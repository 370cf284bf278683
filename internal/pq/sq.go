package pq

import "fmt"

// ScalarQuantizer implements scalar quantization (SQ8), the simpler
// compression the paper contrasts with PQ (§II-A: "scalar quantization
// reduces each vector element to a smaller numerical type, offering
// simplicity but limited compression"): each dimension is linearly
// mapped to one byte using per-dimension min/max trained from data.
// One vector costs Dim bytes — 4x compression vs float32, versus PQ's
// typical 16-64x.
type ScalarQuantizer struct {
	Dim      int
	min, max []float32
}

// TrainSQ fits per-dimension ranges from the row-major training matrix.
func TrainSQ(data []float32, dim int) (*ScalarQuantizer, error) {
	if dim <= 0 || len(data) == 0 || len(data)%dim != 0 {
		return nil, fmt.Errorf("pq: bad SQ training matrix length %d for dim %d", len(data), dim)
	}
	q := &ScalarQuantizer{Dim: dim, min: make([]float32, dim), max: make([]float32, dim)}
	copy(q.min, data[:dim])
	copy(q.max, data[:dim])
	n := len(data) / dim
	for i := 1; i < n; i++ {
		row := data[i*dim : (i+1)*dim]
		for d, v := range row {
			if v < q.min[d] {
				q.min[d] = v
			}
			if v > q.max[d] {
				q.max[d] = v
			}
		}
	}
	// Guard degenerate dimensions so Encode stays well-defined.
	for d := range q.min {
		if q.max[d] <= q.min[d] {
			q.max[d] = q.min[d] + 1
		}
	}
	return q, nil
}

// CodeSize returns bytes per encoded vector (one per dimension).
func (q *ScalarQuantizer) CodeSize() int { return q.Dim }

// Encode quantizes v into dst (allocated when nil).
func (q *ScalarQuantizer) Encode(v []float32, dst []byte) []byte {
	if len(v) != q.Dim {
		panic(fmt.Sprintf("pq: SQ encode dim %d != %d", len(v), q.Dim))
	}
	if dst == nil {
		dst = make([]byte, q.Dim)
	}
	for d, x := range v {
		t := (x - q.min[d]) / (q.max[d] - q.min[d])
		if t < 0 {
			t = 0
		}
		if t > 1 {
			t = 1
		}
		dst[d] = byte(t*255 + 0.5)
	}
	return dst
}

// Distance returns the approximate squared L2 distance between a query
// and one code (asymmetric: exact query vs decoded code, computed
// without materializing the decode).
func (q *ScalarQuantizer) Distance(query []float32, code []byte) float32 {
	var sum float32
	for d := range query {
		t := float32(code[d]) / 255
		rec := q.min[d] + t*(q.max[d]-q.min[d])
		diff := query[d] - rec
		sum += diff * diff
	}
	return sum
}
