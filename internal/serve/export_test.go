package serve

// Admitted returns the number of requests that entered the system.
func (c *Collector) Admitted() int { return len(c.records) + len(c.ids) }

// Completed returns the number of requests that finished generation.
func (c *Collector) Completed() int { return c.completed }
