package pq

// Decode reconstructs the approximate vector.
func (q *ScalarQuantizer) Decode(code []byte) []float32 {
	out := make([]float32, q.Dim)
	for d, c := range code {
		t := float32(c) / 255
		out[d] = q.min[d] + float32(t*(q.max[d]-q.min[d]))
	}
	return out
}
