package main_test

import "fixture/internal/lib"

// ExampleUsed sets a field main never does: an Example is a root.
func ExampleUsed() {
	_ = lib.Used(lib.Options{Example: 1})
	// Output:
}

// Unset is exported but no Example: a field only it sets stays unset.
func Unset() int { return lib.Used(lib.Options{Unset: 1}) }
