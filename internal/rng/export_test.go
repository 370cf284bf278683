package rng

// Split derives an independent generator from this one. Use it to give
// each subsystem its own stream so that adding draws in one place does
// not perturb another.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}
