package serve

import (
	"testing"
	"time"

	"vectorliterag/internal/workload"
)

// TestRouterLeastLoadedTieBreaking pins the tie-break rule on the
// Exchange's front: the least-loaded scan starts at the rotation cursor
// and takes the first strictly-smaller load, so equal replicas share
// round-robin and a uniquely lighter replica wins regardless of cursor
// position. Each submit holds its request in flight (no replica runs),
// so the sequence of picks is fully determined by the preset loads.
func TestRouterLeastLoadedTieBreaking(t *testing.T) {
	cases := []struct {
		name      string
		inflights []int
		want      []int // picked replica per successive submit
	}{
		{
			name:      "all equal rotates round-robin",
			inflights: []int{0, 0, 0},
			want:      []int{0, 1, 2, 0, 1, 2},
		},
		{
			name:      "uniquely lighter replica wins until loads equalize",
			inflights: []int{2, 0, 2},
			want:      []int{1, 1, 2},
		},
		{
			name:      "tie among lighter pair breaks toward rotation start",
			inflights: []int{3, 1, 1},
			want:      []int{1, 2, 2, 1},
		},
		{
			// The lighter tail replica absorbs submits until loads level
			// out; once equal, the tie goes to the rotation cursor (which
			// the five picks have advanced to it).
			name:      "heavy head never starves the tail",
			inflights: []int{5, 5, 0},
			want:      []int{2, 2, 2, 2, 2, 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x, err := NewExchange(LeastLoaded, len(tc.inflights), time.Millisecond, time.Millisecond, nil)
			if err != nil {
				t.Fatal(err)
			}
			copy(x.inflight, tc.inflights)
			for i, want := range tc.want {
				x.Submit(&workload.Request{})
				if got := x.Inflight(want); got != tc.inflights[want]+count(tc.want[:i+1], want) {
					t.Fatalf("submit %d: replica %d gauge %d, want the pick sequence %v", i, want, got, tc.want)
				}
			}
		})
	}
}

// count returns how many times v occurs in s.
func count(s []int, v int) (n int) {
	for _, x := range s {
		if x == v {
			n++
		}
	}
	return n
}
