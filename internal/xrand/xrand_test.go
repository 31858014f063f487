package xrand

import (
	"math"
	"testing"
)

func TestHash64Deterministic(t *testing.T) {
	a := Hash64(42, 1, 2, 3)
	b := Hash64(42, 1, 2, 3)
	if a != b {
		t.Fatalf("Hash64 not deterministic: %x != %x", a, b)
	}
}

func TestHash64SensitiveToInputs(t *testing.T) {
	base := Hash64(42, 1, 2, 3)
	variants := []uint64{
		Hash64(43, 1, 2, 3),
		Hash64(42, 2, 2, 3),
		Hash64(42, 1, 3, 3),
		Hash64(42, 1, 2, 4),
		Hash64(42, 1, 2),
		Hash64(42, 3, 2, 1),
	}
	for i, v := range variants {
		if v == base {
			t.Errorf("variant %d collided with base hash", i)
		}
	}
}

func TestStreamDeterministic(t *testing.T) {
	a, b := NewStream(7), NewStream(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at step %d", i)
		}
	}
}

func TestAtIndependentOfCreationOrder(t *testing.T) {
	s1 := At(9, 4, 5)
	first := s1.Float64()
	// Interleave other streams; re-derive the same stream and compare.
	_ = At(9, 1, 1).Float64()
	_ = At(9, 2, 2).Float64()
	s2 := At(9, 4, 5)
	if got := s2.Float64(); got != first {
		t.Fatalf("At stream not order independent: %v != %v", got, first)
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewStream(1)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := NewStream(2)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := NewStream(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) produced only %d distinct values in 1000 draws", len(seen))
	}
	if got := s.Intn(0); got != 0 {
		t.Fatalf("Intn(0) = %d, want 0", got)
	}
	if got := s.Intn(-5); got != 0 {
		t.Fatalf("Intn(-5) = %d, want 0", got)
	}
}

func TestUniformRange(t *testing.T) {
	s := NewStream(4)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(10, 20)
		if v < 10 || v >= 20 {
			t.Fatalf("Uniform(10,20) out of range: %v", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	s := NewStream(5)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Normal(10, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Fatalf("normal stddev = %v, want ~3", math.Sqrt(variance))
	}
}

func TestExponentialMean(t *testing.T) {
	s := NewStream(6)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := s.Exponential(4)
		if v < 0 {
			t.Fatalf("exponential produced negative value %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-4) > 0.1 {
		t.Fatalf("exponential mean = %v, want ~4", mean)
	}
}

func TestParetoProperties(t *testing.T) {
	s := NewStream(7)
	const n = 100000
	exceed := 0
	for i := 0; i < n; i++ {
		v := s.Pareto(2, 1.5)
		if v < 2 {
			t.Fatalf("Pareto(2, 1.5) below scale: %v", v)
		}
		if v > 20 {
			exceed++
		}
	}
	// P(X > 20) = (2/20)^1.5 ≈ 0.0316 for a Pareto(xm=2, alpha=1.5).
	p := float64(exceed) / n
	if math.Abs(p-0.0316) > 0.01 {
		t.Fatalf("Pareto tail probability = %v, want ~0.0316", p)
	}
}

func TestBernoulliProbability(t *testing.T) {
	s := NewStream(9)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := NewStream(10)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length = %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermVaries(t *testing.T) {
	s := NewStream(11)
	same := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		p := s.Perm(6)
		identity := true
		for j, v := range p {
			if v != j {
				identity = false
				break
			}
		}
		if identity {
			same++
		}
	}
	// Identity permutation of 6 elements has probability 1/720; 100
	// trials should essentially never produce more than a couple.
	if same > 3 {
		t.Fatalf("Perm returned the identity %d/%d times", same, trials)
	}
}

func TestStreamsWithDifferentSeedsDiffer(t *testing.T) {
	a, b := NewStream(1), NewStream(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func BenchmarkStreamUint64(b *testing.B) {
	s := NewStream(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkHash64ThreeIDs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Hash64(42, 1, 2, uint64(i))
	}
}

func BenchmarkNormal(b *testing.B) {
	s := NewStream(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Normal(0, 1)
	}
}
