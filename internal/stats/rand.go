// Package stats provides the deterministic random-number, distribution,
// and descriptive-statistics substrate used by every model in vidperf.
//
// All simulation components draw randomness through *Rand, a splitmix64
// generator with an explicit seed, so that a scenario seed fully determines
// the generated trace across Go versions and platforms (math/rand makes no
// such stability promise). The package also implements the empirical
// machinery the paper's analysis needs: quantiles, coefficient of variation,
// ECDF/CCDF curves, and binned scatter summaries (mean/median/IQR per bin).
package stats

import "math"

// Rand is a deterministic pseudo-random source based on splitmix64.
// It is not safe for concurrent use; give each concurrent component its
// own Rand derived via Split or NewRand.
type Rand struct {
	state uint64
	// spare holds a cached second normal variate from the polar method.
	spare    float64
	hasSpare bool
}

// NewRand returns a generator seeded with seed. Two generators with the
// same seed produce identical streams.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Split derives a new, statistically independent generator from r.
// It advances r once, so streams created by successive Splits differ.
func (r *Rand) Split() *Rand {
	return &Rand{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// ShrinkingBoolCount returns how many draws come up true in the loop
//
//	hits := 0
//	for i := 0; i < budget-hits; i++ {
//		if r.Bool(p) {
//			hits++
//		}
//	}
//
// and consumes exactly the generator draws that loop would, leaving r in
// the same state. Every hit shrinks the loop bound by one, so at p >= 1 it
// returns ceil(budget/2) without drawing, like Bool's no-draw paths.
//
// It is the per-segment loss kernel of the TCP model, so it keeps the
// generator state in a local and replaces Bool's float compare with an
// integer one: Float64() < p holds exactly when Uint64()>>11 <
// ceil(p·2^53), because Float64 is (Uint64()>>11)·2^-53 and scaling p by
// 2^53 is exact.
func (r *Rand) ShrinkingBoolCount(budget int, p float64) int {
	if budget <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return (budget + 1) / 2
	}
	// A NaN p draws but never hits, as in Bool.
	var threshold uint64
	if t := math.Ceil(p * (1 << 53)); t > 0 {
		threshold = uint64(t)
	}
	state, hits := r.state, 0
	for i := 0; i < budget-hits; i++ {
		state += 0x9e3779b97f4a7c15
		z := (state ^ (state >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		if (z^(z>>31))>>11 < threshold {
			hits++
		}
	}
	r.state = state
	return hits
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a normally distributed float64 with the given mean and
// standard deviation, using the Marsaglia polar method.
func (r *Rand) Norm(mean, std float64) float64 {
	if r.hasSpare {
		r.hasSpare = false
		return mean + std*r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		m := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * m
		r.hasSpare = true
		return mean + std*u*m
	}
}

// Exp returns an exponentially distributed float64 with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	// Guard against log(0).
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// LogNormal returns a log-normally distributed value where mu and sigma are
// the mean and standard deviation of the underlying normal (i.e. the median
// of the result is exp(mu)).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Pareto returns a Pareto-distributed value with minimum xm and shape alpha.
// Smaller alpha means a heavier tail.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Choice returns an index in [0, len(weights)) sampled proportionally to
// weights. It panics if weights is empty or sums to a non-positive value.
func (r *Rand) Choice(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if len(weights) == 0 || total <= 0 {
		panic("stats: Choice with empty or non-positive weights")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Shuffle permutes xs in place using the Fisher–Yates algorithm.
func Shuffle[T any](r *Rand, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
