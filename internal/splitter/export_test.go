package splitter

// HotMask returns the shared membership mask (read-only).
func (p *Plan) HotMask() []bool { return p.hotMask }
