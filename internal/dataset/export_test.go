package dataset

// TemplateProbability returns the draw probability of template t.
func (w *Workload) TemplateProbability(t int) float64 { return w.popByTemplate[t] }
