// Package perfmodel turns latency profiles into the piecewise-linear
// batch-size models of paper §IV-A1: T_CQ(b) and T_LUT(b) are fitted
// independently from profiled samples and evaluated by interpolation,
// exactly as the original system fits its profiled Faiss runs. The
// hybrid search latency of Eq. 1,
//
//	tau_s(b) = T_CQ(b) + (1 - eta) * T_LUT(b),
//
// and its inversions (solve for eta, solve for b) live here because the
// partitioning algorithm consumes them.
package perfmodel

import (
	"fmt"
	"time"

	"vectorliterag/internal/profiler"
	"vectorliterag/internal/stats"
)

// Model is the fitted pair of stage curves.
type Model struct {
	cq  *stats.PiecewiseLinear // seconds vs batch size
	lut *stats.PiecewiseLinear
}

// Fit builds the model from profiled samples (at least two distinct
// batch sizes).
func Fit(samples []profiler.LatencySample) (*Model, error) {
	if len(samples) < 2 {
		return nil, fmt.Errorf("perfmodel: need >=2 samples, got %d", len(samples))
	}
	xs := make([]float64, len(samples))
	cqY := make([]float64, len(samples))
	lutY := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = float64(s.Batch)
		cqY[i] = s.CQ.Seconds()
		lutY[i] = s.LUT.Seconds()
	}
	cq, err := stats.FitPiecewiseLinear(xs, cqY)
	if err != nil {
		return nil, fmt.Errorf("perfmodel: cq fit: %w", err)
	}
	lut, err := stats.FitPiecewiseLinear(xs, lutY)
	if err != nil {
		return nil, fmt.Errorf("perfmodel: lut fit: %w", err)
	}
	return &Model{cq: cq, lut: lut}, nil
}

// CQTime returns the modeled coarse quantization latency at batch b.
func (m *Model) CQTime(b int) time.Duration {
	return secs(m.cq.Eval(float64(max(1, b))))
}

// LUTTime returns the modeled full (uncached) LUT-stage latency at
// batch b.
func (m *Model) LUTTime(b int) time.Duration {
	return secs(m.lut.Eval(float64(max(1, b))))
}

// SearchTime returns the modeled CPU-only search latency at batch b.
func (m *Model) SearchTime(b int) time.Duration {
	return m.CQTime(b) + m.LUTTime(b)
}

// HybridTime evaluates Eq. 1 at batch b with (batch-minimum) hit rate
// eta.
func (m *Model) HybridTime(b int, eta float64) time.Duration {
	if eta < 0 {
		eta = 0
	}
	if eta > 1 {
		eta = 1
	}
	return m.CQTime(b) + time.Duration((1-eta)*float64(m.LUTTime(b)))
}

// EtaForBudget solves Eq. 1 for the hit rate needed to bring batch-b
// search latency within budget:
//
//	eta = (T_search(b) - budget) / T_LUT(b)
//
// A result <= 0 means the CPU alone meets the budget; > 1 means no hit
// rate can (CQ alone exceeds the budget).
func (m *Model) EtaForBudget(b int, budget time.Duration) float64 {
	lut := float64(m.LUTTime(b))
	if lut <= 0 {
		return 0
	}
	return (float64(m.SearchTime(b)) - float64(budget)) / lut
}

func secs(s float64) time.Duration {
	if s < 0 {
		s = 0
	}
	return time.Duration(s * float64(time.Second))
}
