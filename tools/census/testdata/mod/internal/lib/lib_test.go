package lib

import "testing"

func TestDead(t *testing.T) { _ = Dead() }

func TestCounter(t *testing.T) { _ = counter{}.last }
