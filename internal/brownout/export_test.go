package brownout

// Level returns the current ladder level.
func (c *Controller) Level() int { return c.level }

// NumLevels returns the ladder depth (level 0 included).
func (c *Controller) NumLevels() int { return len(c.ladder) }

// MaxShed returns the effective shed cap.
func (c *Controller) MaxShed() float64 { return c.cfg.maxShed() }
