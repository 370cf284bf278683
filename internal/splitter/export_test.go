package splitter

// Route is RouteInto over a fresh scratch.
func (p *Plan) Route(probes []int) (perShard [][]int, cpu []int) {
	var s RouteScratch
	return p.RouteInto(&s, probes)
}
