// Package xrand provides the deterministic randomness substrate used by
// the trace generator, the simulator, and the Vivaldi bootstrap.
//
// Two styles are offered:
//
//   - Stream: a sequential PRNG (SplitMix64 core) with the usual variate
//     methods. Every consumer owns its own Stream; there are no package
//     level mutable generators.
//   - Stateless hashing (At, HashStream): a pure function of
//     (seed, identifiers...) producing an independent Stream. The latency
//     model uses this so that the k-th observation on link (i, j) is a
//     fixed function of the seed — generation order cannot perturb the
//     trace, and any single sample can be re-derived in O(1).
//
// The implementation is SplitMix64 (Steele, Lea, Flood 2014), which passes
// BigCrush and is trivially seedable — exactly what a reproducible
// simulation needs. It is not cryptographically secure and must never be
// used for anything security sensitive.
package xrand

import "math"

// golden is the 64-bit golden-ratio increment used by SplitMix64.
const golden = 0x9E3779B97F4A7C15

// mix advances and scrambles a SplitMix64 state word.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Hash64 combines a seed with a sequence of identifiers into a single
// well-mixed 64-bit value. It is the basis of the stateless streams.
func Hash64(seed uint64, ids ...uint64) uint64 {
	h := seed + golden
	h = mix(h)
	for _, id := range ids {
		h ^= mix(id + golden)
		h *= 0xFF51AFD7ED558CCD
		h = mix(h)
	}
	return h
}

// Stream is a deterministic sequential source of variates. The zero value
// is a valid stream seeded with zero; NewStream is clearer.
type Stream struct {
	state uint64
	// spare caches the second Box-Muller normal variate.
	spare    float64
	hasSpare bool
}

// NewStream returns a Stream seeded with the given value.
func NewStream(seed uint64) *Stream {
	return &Stream{state: seed}
}

// At returns an independent Stream determined purely by (seed, ids...).
// Streams for distinct id tuples are statistically independent.
func At(seed uint64, ids ...uint64) *Stream {
	return &Stream{state: Hash64(seed, ids...)}
}

// Uint64 returns the next 64 uniformly random bits.
func (s *Stream) Uint64() uint64 {
	s.state += golden
	return mix(s.state)
}

// Float64 returns a uniform variate in [0, 1).
func (s *Stream) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). n must be positive; n <= 0
// returns 0 rather than panicking (callers validate their own bounds).
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(s.Uint64() % uint64(n))
}

// Uniform returns a uniform variate in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Normal returns a normal variate with the given mean and standard
// deviation, via the Box-Muller transform (deterministic, no rejection).
func (s *Stream) Normal(mean, stddev float64) float64 {
	if s.hasSpare {
		s.hasSpare = false
		return mean + stddev*s.spare
	}
	// Guard against log(0).
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	r := math.Sqrt(-2 * math.Log(u1))
	theta := 2 * math.Pi * u2
	s.spare = r * math.Sin(theta)
	s.hasSpare = true
	return mean + stddev*r*math.Cos(theta)
}

// Exponential returns an exponential variate with the given mean.
func (s *Stream) Exponential(mean float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// Pareto returns a Pareto variate with scale xm > 0 and shape alpha > 0.
// Heavy-tailed: the latency model uses it for the multi-order-of-magnitude
// spikes observed in the PlanetLab trace.
func (s *Stream) Pareto(xm, alpha float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// Perm returns a deterministic pseudo-random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
