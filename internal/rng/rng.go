// Package rng provides deterministic pseudo-random number generation for
// every stochastic component in the simulator: corpus synthesis, query
// sampling, Poisson arrival processes, and Beta-distributed hit rates.
//
// All experiments in this repository are seeded, so two runs with the
// same configuration produce byte-identical results. The generator is
// xoshiro256** seeded through splitmix64, the combination recommended by
// the xoshiro authors; it is small, fast, and has no measurable bias in
// the low bits (unlike the historical math/rand LCG).
package rng

import "math"

// Rand is a deterministic random source. The zero value is not usable;
// construct with New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed via splitmix64,
// which guarantees the xoshiro state is never all-zero.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and avoids the
	// modulo.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + t>>32 + (t&mask+aLo*bHi)>>32
	return hi, lo
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Gamma returns a Gamma(shape, 1) variate using Marsaglia–Tsang.
func (r *Rand) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("rng: Gamma with non-positive shape")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		return r.Gamma(shape+1) * math.Pow(r.Float64()+1e-300, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Beta returns a Beta(alpha, beta) variate via the Gamma ratio.
func (r *Rand) Beta(alpha, beta float64) float64 {
	x := r.Gamma(alpha)
	y := r.Gamma(beta)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf samples integers in [0, n) with probability proportional to
// 1/(i+1)^s. It precomputes the CDF once, plus a guide table that cuts
// [0, 1) into n equal buckets: a draw u binary-searches only the CDF
// entries its bucket can land on, O(1) expected instead of O(log n),
// and returns exactly what a search of the whole CDF returns. The
// sampler holds no random state of its own — the caller supplies the
// stream at draw time, so one table can serve many independent,
// reproducible streams.
type Zipf struct {
	cdf []float64
	// guide[j] is the answer for the smallest u that int(u·n) puts in
	// bucket j or later, and guide[n] is n-1. Answers grow with u, so a
	// draw in bucket j lands in [guide[j], guide[j+1]].
	guide []int32
}

// NewZipf builds a Zipf sampler over n items with exponent s >= 0.
// s = 0 degenerates to uniform.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: Zipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	z := &Zipf{cdf: cdf, guide: make([]int32, n+1)}
	fn := float64(n)
	i := 0
	for j := 0; j < n; j++ {
		// The smallest u that Draw puts in bucket j or later: j/n, nudged
		// over the rounding of u·n so that no u of the bucket is below it.
		u := float64(j) / fn
		for u > 0 && int(math.Nextafter(u, 0)*fn) >= j {
			u = math.Nextafter(u, 0)
		}
		for int(u*fn) < j {
			u = math.Nextafter(u, 1)
		}
		for i < n-1 && cdf[i] < u {
			i++
		}
		z.guide[j] = int32(i)
	}
	z.guide[n] = int32(n - 1)
	return z
}

// Draw returns the next Zipf-distributed index using r's stream.
func (z *Zipf) Draw(r *Rand) int { return z.index(r.Float64()) }

// index maps u in [0, 1) to the first index whose CDF entry is ≥ u (the
// last index if none is), searching only u's guide bucket.
func (z *Zipf) index(u float64) int {
	j := int(u * float64(len(z.cdf)))
	lo, hi := int(z.guide[j]), int(z.guide[j+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
