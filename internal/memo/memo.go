// Package memo is the process-wide cache of values every run or figure
// of a process shares and builds once: deployment measurements, physical
// workloads, and the decisions made on them.
package memo

import "sync"

// Cache maps string keys to values built on first request. The zero
// value is ready to use and safe for concurrent use; a build runs under
// the cache's lock, so each key is built once.
type Cache[V any] struct {
	mu sync.Mutex
	m  map[string]V
}

// Get returns the value under key, building it on the first request. A
// failed build is not cached.
func (c *Cache[V]) Get(key string, build func() (V, error)) (V, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.m[key]; ok {
		return v, nil
	}
	v, err := build()
	if err == nil {
		if c.m == nil {
			c.m = map[string]V{}
		}
		c.m[key] = v
	}
	return v, err
}
