package dataset

import (
	"errors"
	"sync"

	"vectorliterag/internal/pq"
)

// distortionSampleVecs bounds the per-cluster member sample the
// distortion comparison reads.
const distortionSampleVecs = 32

// Distortion compares the two codecs a cluster can be stored in on the
// physical corpus: for a deterministic stride-sample of each cluster's
// members, the squared reconstruction error under the index's trained
// PQ codebooks and under an SQ8 quantizer trained on the same corpus.
// The asymmetric LUT distance of a vector to its own code is exactly its
// squared reconstruction error, so both codecs are measured by the same
// kernels the scans use.
type Distortion struct {
	PQ, SQ []float64 // per-cluster mean over the sample; 0 for an empty cluster
	MeanPQ float64   // PQ error averaged over every sampled vector
}

// distortionSlot holds a Workload's Distortion once measured.
type distortionSlot struct {
	once sync.Once
	d    *Distortion
	err  error
	runs int // measurements made; tests fence it
}

// Distortion returns the corpus's codec distortion, measured on the
// first call and shared, read-only, by every later one: it depends on
// Data and Index alone, and training the SQ8 quantizer reads the whole
// corpus, so every precision decision over this workload would
// otherwise pay for it again. The result is deterministic: sampling is
// by fixed stride in inverted-list order and every accumulation runs in
// cluster order.
func (w *Workload) Distortion() (*Distortion, error) {
	s := &w.distortion
	s.once.Do(func() {
		s.d, s.err = measureDistortion(w)
		s.runs++
	})
	return s.d, s.err
}

func measureDistortion(w *Workload) (*Distortion, error) {
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
	d := &Distortion{PQ: make([]float64, nlist), SQ: make([]float64, nlist)}
	var sampled int
	for c := 0; c < nlist; c++ {
		ids := w.Index.ClusterIDs(c)
		if len(ids) == 0 {
			continue
		}
		stride := len(ids)/distortionSampleVecs + 1
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
		d.PQ[c] = ePQ / float64(n)
		d.SQ[c] = eSQ / float64(n)
		d.MeanPQ += ePQ
		sampled += n
	}
	if sampled == 0 {
		return nil, errors.New("empty index")
	}
	d.MeanPQ /= float64(sampled)
	return d, nil
}
