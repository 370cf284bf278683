package pq

import (
	"math"
	"testing"

	"vectorliterag/internal/rng"
	"vectorliterag/internal/vecmath"
)

func TestTrainSQValidation(t *testing.T) {
	if _, err := TrainSQ(nil, 4); err == nil {
		t.Fatal("empty data accepted")
	}
	if _, err := TrainSQ([]float32{1, 2, 3}, 2); err == nil {
		t.Fatal("ragged data accepted")
	}
	if _, err := TrainSQ([]float32{1, 2}, 0); err == nil {
		t.Fatal("zero dim accepted")
	}
}

func TestSQRoundTripAccuracy(t *testing.T) {
	r := rng.New(1)
	data := randomMatrix(r, 500, 8)
	q, err := TrainSQ(data, 8)
	if err != nil {
		t.Fatal(err)
	}
	if q.CodeSize() != 8 {
		t.Fatalf("code size %d", q.CodeSize())
	}
	// 8-bit linear quantization: reconstruction error per dim is bounded
	// by half a step of the trained range.
	var errSum, sigSum float64
	for i := 0; i < 200; i++ {
		v := data[i*8 : (i+1)*8]
		rec := q.Decode(q.Encode(v, nil))
		errSum += float64(vecmath.SquaredL2(v, rec))
		sigSum += float64(vecmath.Norm2(v))
	}
	if ratio := errSum / sigSum; ratio > 0.001 {
		t.Fatalf("SQ reconstruction error ratio %v too high for 8-bit codes", ratio)
	}
}

func TestSQMuchMoreAccurateThanPQ(t *testing.T) {
	// The paper's trade-off: SQ gives limited compression (4x) but high
	// fidelity; PQ compresses 16-64x with more distortion.
	r := rng.New(2)
	data := randomMatrix(r, 600, 8)
	sq, err := TrainSQ(data, 8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Train(data, Config{Dim: 8, M: 4, K: 32, Iters: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var sqErr, pqErr float64
	for i := 0; i < 100; i++ {
		v := data[i*8 : (i+1)*8]
		sqErr += float64(vecmath.SquaredL2(v, sq.Decode(sq.Encode(v, nil))))
		pqErr += float64(vecmath.SquaredL2(v, p.Decode(p.Encode(v, nil))))
	}
	if sqErr >= pqErr {
		t.Fatalf("SQ error %v not below PQ error %v", sqErr, pqErr)
	}
	if sq.CodeSize() <= p.CodeSize() {
		t.Fatalf("SQ code %dB should cost more than PQ code %dB", sq.CodeSize(), p.CodeSize())
	}
}

func TestSQDistanceMatchesDecode(t *testing.T) {
	r := rng.New(3)
	data := randomMatrix(r, 300, 8)
	q, _ := TrainSQ(data, 8)
	query := randomMatrix(r, 1, 8)
	for i := 0; i < 50; i++ {
		code := q.Encode(data[i*8:(i+1)*8], nil)
		direct := float64(q.Distance(query, code))
		viaDecode := float64(vecmath.SquaredL2(query, q.Decode(code)))
		if math.Abs(direct-viaDecode) > 1e-3 {
			t.Fatalf("Distance %v != decode distance %v", direct, viaDecode)
		}
	}
}

func TestSQScanFindsNearest(t *testing.T) {
	r := rng.New(4)
	data := randomMatrix(r, 400, 8)
	q, _ := TrainSQ(data, 8)
	codes := make([]byte, 0, 400*8)
	for i := 0; i < 400; i++ {
		codes = append(codes, q.Encode(data[i*8:(i+1)*8], nil)...)
	}
	query := data[33*8 : 34*8]
	top := vecmath.NewTopK(5)
	q.ScanSQIDs(query, codes, positional(400), top)
	res := top.AppendSorted(nil)
	if res[0].Index != 33 {
		t.Fatalf("self not ranked first: %+v", res)
	}
}

func TestSQClampsOutOfRange(t *testing.T) {
	q, _ := TrainSQ([]float32{0, 0, 1, 1}, 2)
	code := q.Encode([]float32{-5, 10}, nil)
	if code[0] != 0 || code[1] != 255 {
		t.Fatalf("out-of-range values not clamped: %v", code)
	}
}
