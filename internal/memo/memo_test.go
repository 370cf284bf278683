package memo

import (
	"errors"
	"sync"
	"testing"
)

// TestGetBuildsOnce: concurrent requests for one key share one build,
// and a failed build is retried on the next request.
func TestGetBuildsOnce(t *testing.T) {
	var c Cache[int]
	builds := 0
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Get("k", func() (int, error) { builds++; return 7, nil })
			if v != 7 || err != nil {
				t.Errorf("Get = %d, %v; want 7, nil", v, err)
			}
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Fatalf("%d builds for one key, want 1", builds)
	}

	fail := errors.New("boom")
	if _, err := c.Get("bad", func() (int, error) { return 0, fail }); !errors.Is(err, fail) {
		t.Fatalf("failed build returned %v", err)
	}
	if v, err := c.Get("bad", func() (int, error) { return 3, nil }); v != 3 || err != nil {
		t.Fatalf("a failed build was cached: %d, %v", v, err)
	}
}
