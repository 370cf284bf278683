// Package gpu holds the per-device runtime state shared between the
// retrieval engines and the LLM serving engine when both are co-located
// on the same accelerator — the central resource-contention coupling of
// the paper (§III-A):
//
//   - memory: index shard bytes carve directly into the KV-cache pool;
//   - compute: while a retrieval scan kernel is resident, concurrent
//     LLM iterations on the same GPU are stretched by the node's
//     contention factor.
package gpu

import (
	"vectorliterag/internal/des"
	"vectorliterag/internal/hw"
)

// State is the mutable runtime state of one GPU.
type State struct {
	ID   int
	Spec hw.GPU

	// ShardBytes is the index shard resident on this GPU; it reduces the
	// memory available for KV cache.
	ShardBytes int64

	busyUntil des.Time
}

// NewStates creates the node's GPU states.
func NewStates(node hw.Node) []*State {
	out := make([]*State, node.NumGPUs)
	for i := range out {
		out[i] = &State{ID: i, Spec: node.GPU}
	}
	return out
}

// MarkRetrievalBusy records that a retrieval kernel occupies the GPU
// until the given time. Overlapping kernels extend the busy window.
func (s *State) MarkRetrievalBusy(until des.Time) {
	if until > s.busyUntil {
		s.busyUntil = until
	}
}

// RetrievalBusyUntil reports the end of the current retrieval busy
// window (zero when idle).
func (s *State) RetrievalBusyUntil() des.Time { return s.busyUntil }

// StretchForContention returns the wall time an LLM iteration of
// duration d takes when it starts at now, given that retrieval work
// occupies the GPU until busyUntil and degrades co-running work by
// factor f: inside the contention window the iteration progresses at
// rate 1/(1+f), outside at full rate.
func StretchForContention(now des.Time, d des.Time, busyUntil des.Time, f float64) des.Time {
	if d <= 0 || busyUntil <= now || f <= 0 {
		return d
	}
	window := busyUntil - now
	// Work that completes inside the contention window.
	workInWindow := des.Time(float64(window) / (1 + f))
	if d <= workInWindow {
		return des.Time(float64(d) * (1 + f))
	}
	return window + (d - workInWindow)
}
