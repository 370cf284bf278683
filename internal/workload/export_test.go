package workload

// Count returns how many mutations have been generated so far.
func (g *MutationGen) Count() int { return g.next }
