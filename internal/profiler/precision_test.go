package profiler

import (
	"math"
	"testing"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/pq"
)

func TestSQRecallDeltasDomain(t *testing.T) {
	w := smallWorkload(t, dataset.Orcas1K)
	p, err := CollectAccess(w, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	deltas, err := SQRecallDeltas(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != w.Index.NList() {
		t.Fatalf("got %d deltas for %d clusters", len(deltas), w.Index.NList())
	}
	var positive int
	for c, d := range deltas {
		if d < 0 || d > MaxSQRecallGain {
			t.Fatalf("cluster %d delta %v outside [0, %v]", c, d, MaxSQRecallGain)
		}
		if d > 0 {
			positive++
		}
	}
	// SQ8 keeps a byte per dimension against PQ's byte per subspace, so
	// on any non-degenerate corpus some clusters must have recall to win.
	if positive == 0 {
		t.Fatal("no cluster shows an SQ8 recall gain")
	}
}

func TestSQRecallDeltasDeterministic(t *testing.T) {
	w := smallWorkload(t, dataset.Orcas1K)
	p, err := CollectAccess(w, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := SQRecallDeltas(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SQRecallDeltas(p)
	if err != nil {
		t.Fatal(err)
	}
	for c := range a {
		if a[c] != b[c] {
			t.Fatalf("cluster %d delta differs across runs: %v vs %v", c, a[c], b[c])
		}
	}
}

func TestRecallDeltasByRank(t *testing.T) {
	w := smallWorkload(t, dataset.Orcas1K)
	p, err := CollectAccess(w, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	deltas, err := SQRecallDeltas(p)
	if err != nil {
		t.Fatal(err)
	}
	byRank := p.RecallDeltasByRank(deltas)
	if len(byRank) != len(p.HotOrder) {
		t.Fatalf("got %d ranked deltas for %d hot-order entries", len(byRank), len(p.HotOrder))
	}
	for r, c := range p.HotOrder {
		if byRank[r] != deltas[c] {
			t.Fatalf("rank %d (cluster %d): %v != %v", r, c, byRank[r], deltas[c])
		}
	}
}

// refSQRecallDeltas is SQRecallDeltas as it stood when it trained the
// SQ8 quantizer on every call: the reference the per-corpus
// measurement must reproduce bit for bit.
func refSQRecallDeltas(p *AccessProfile) ([]float64, error) {
	w := p.W
	dim := w.Index.Dim()
	sq, err := pq.TrainSQ(w.Data, dim)
	if err != nil {
		return nil, err
	}
	quant := w.Index.Quantizer()
	nlist := w.Index.NList()
	var lut pq.LUT
	pqCode := make([]byte, quant.CodeSize())
	sqCode := make([]byte, sq.CodeSize())
	msePQ := make([]float64, nlist)
	mseSQ := make([]float64, nlist)
	var meanPQ float64
	var sampled int
	for c := 0; c < nlist; c++ {
		ids := w.Index.ClusterIDs(c)
		if len(ids) == 0 {
			continue
		}
		stride := len(ids)/32 + 1
		var ePQ, eSQ float64
		n := 0
		for j := 0; j < len(ids); j += stride {
			v := w.Data[int(ids[j])*dim : (int(ids[j])+1)*dim]
			quant.Encode(v, pqCode)
			quant.BuildLUTInto(v, &lut)
			ePQ += float64(lut.Distance(pqCode))
			sq.Encode(v, sqCode)
			eSQ += float64(sq.Distance(v, sqCode))
			n++
		}
		msePQ[c] = ePQ / float64(n)
		mseSQ[c] = eSQ / float64(n)
		meanPQ += ePQ
		sampled += n
	}
	meanPQ /= float64(sampled)
	deltas := make([]float64, nlist)
	for c := range deltas {
		if msePQ[c] <= 0 {
			continue
		}
		rel := (msePQ[c] - mseSQ[c]) / meanPQ
		if rel < 0 {
			rel = 0
		}
		if rel > 1 {
			rel = 1
		}
		deltas[c] = MaxSQRecallGain * rel
	}
	return deltas, nil
}

// TestSQRecallDeltasMatchUncached: the first call (which measures the
// corpus) and a later call from another profile of the same workload
// (which reads the measurement) both give the uncached bits.
func TestSQRecallDeltasMatchUncached(t *testing.T) {
	for _, spec := range []dataset.Spec{dataset.Orcas1K, dataset.WikiAll} {
		w := smallWorkload(t, spec)
		for seed := uint64(7); seed < 9; seed++ {
			p, err := CollectAccess(w, 1000, seed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SQRecallDeltas(p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refSQRecallDeltas(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d deltas, reference %d", spec.Name, len(got), len(want))
			}
			for c := range want {
				if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
					t.Fatalf("%s seed %d cluster %d: %v, reference %v", spec.Name, seed, c, got[c], want[c])
				}
			}
		}
	}
}
