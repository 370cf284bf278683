package stats

import (
	"fmt"
	"sort"
)

// PiecewiseLinear maps a scalar x to an interpolated y over a set of
// knots. The paper models CPU search latency as a piecewise-linear
// function of batch size (Fig. 8 left): steps appear where the runtime
// transitions from single-threaded to multi-threaded execution, so a
// single affine fit would misestimate small batches badly.
//
// Evaluation clamps below the first knot and extrapolates linearly past
// the last knot using the final segment's slope, which is the correct
// behaviour for latency curves that become bandwidth-bound (linear) at
// large batch sizes.
type PiecewiseLinear struct {
	xs, ys []float64
}

// NewPiecewiseLinear builds a model from knot coordinates. Knots are
// sorted by x; duplicate x values are rejected. At least two knots are
// required.
func NewPiecewiseLinear(xs, ys []float64) (*PiecewiseLinear, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("stats: piecewise knots mismatched: %d xs vs %d ys", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return nil, fmt.Errorf("stats: piecewise needs >=2 knots, got %d", len(xs))
	}
	type knot struct{ x, y float64 }
	ks := make([]knot, len(xs))
	for i := range xs {
		ks[i] = knot{xs[i], ys[i]}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].x < ks[j].x })
	p := &PiecewiseLinear{xs: make([]float64, len(ks)), ys: make([]float64, len(ks))}
	for i, k := range ks {
		if i > 0 && k.x == ks[i-1].x {
			return nil, fmt.Errorf("stats: duplicate piecewise knot x=%v", k.x)
		}
		p.xs[i], p.ys[i] = k.x, k.y
	}
	return p, nil
}

// Eval returns the interpolated value at x.
func (p *PiecewiseLinear) Eval(x float64) float64 {
	n := len(p.xs)
	if x <= p.xs[0] {
		return p.ys[0]
	}
	if x >= p.xs[n-1] {
		// Extrapolate with the last segment's slope.
		slope := (p.ys[n-1] - p.ys[n-2]) / (p.xs[n-1] - p.xs[n-2])
		return p.ys[n-1] + slope*(x-p.xs[n-1])
	}
	i := sort.SearchFloat64s(p.xs, x)
	// xs[i-1] < x <= xs[i]
	x0, x1 := p.xs[i-1], p.xs[i]
	y0, y1 := p.ys[i-1], p.ys[i]
	frac := (x - x0) / (x1 - x0)
	return y0 + frac*(y1-y0)
}

// FitPiecewiseLinear builds a model directly from sample points (one
// knot per unique x, averaging duplicate x observations). It is how the
// profiler turns measured (batch size, latency) pairs into a model.
func FitPiecewiseLinear(xs, ys []float64) (*PiecewiseLinear, error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return nil, fmt.Errorf("stats: fit needs matching non-empty samples")
	}
	sum := map[float64]float64{}
	cnt := map[float64]int{}
	for i, x := range xs {
		sum[x] += ys[i]
		cnt[x]++
	}
	ux := make([]float64, 0, len(sum))
	for x := range sum {
		ux = append(ux, x)
	}
	sort.Float64s(ux)
	uy := make([]float64, len(ux))
	for i, x := range ux {
		uy[i] = sum[x] / float64(cnt[x])
	}
	if len(ux) == 1 {
		// Degenerate: flat model.
		ux = append(ux, ux[0]+1)
		uy = append(uy, uy[0])
	}
	return NewPiecewiseLinear(ux, uy)
}
