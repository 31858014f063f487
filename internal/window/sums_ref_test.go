package window

import (
	"fmt"
	"math"
	"testing"

	"netcoord/internal/vec"
	"netcoord/internal/xrand"
)

// refPair is the sums bookkeeping as it stood before the fill-time
// shortcut, kept verbatim as the reference the shortcut must equal bit
// for bit: the sums are built from all 2k^2-k distances the moment the
// windows fill, through vec.Vector.Dist, with the three accumulators as
// struct fields. Only the names differ (fillSums was initSums).
type refPair struct {
	k int

	start    []vec.Vector
	startLen int
	current  []vec.Vector
	head     int
	curLen   int

	sumCross   float64
	sumWithinS float64
	sumWithinC float64
	sumsValid  bool
}

func newRefPair(k, dim int) *refPair {
	p := &refPair{k: k, start: make([]vec.Vector, k), current: make([]vec.Vector, k)}
	for i := 0; i < k; i++ {
		p.start[i] = vec.Zero(dim)
		p.current[i] = vec.Zero(dim)
	}
	return p
}

func (p *refPair) full() bool { return p.startLen == p.k && p.curLen == p.k }

func (p *refPair) append(v vec.Vector) {
	if p.startLen < p.k {
		copy(p.start[p.startLen], v)
		copy(p.current[p.curLen], v)
		p.startLen++
		p.curLen++
		p.head = 0
		if p.startLen == p.k {
			p.fillSums()
		}
		return
	}
	old := p.current[p.head]
	p.slideSums(old, v)
	copy(old, v)
	p.head = (p.head + 1) % p.k
}

func (p *refPair) reset() {
	p.startLen = 0
	p.curLen = 0
	p.head = 0
	p.sumsValid = false
}

func (p *refPair) energy() float64 {
	if !p.sumsValid {
		p.fillSums()
	}
	n := float64(p.k)
	return (n * n / (2 * n)) *
		(2/(n*n)*p.sumCross - p.sumWithinS/(n*n) - p.sumWithinC/(n*n))
}

func (p *refPair) fillSums() {
	start := p.start[:p.startLen]
	cur := p.current[:p.curLen]
	p.sumCross = 0
	for _, a := range start {
		for _, b := range cur {
			p.sumCross += refDist(a, b)
		}
	}
	p.sumWithinS = 0
	for i := range start {
		for j := i + 1; j < len(start); j++ {
			p.sumWithinS += 2 * refDist(start[i], start[j])
		}
	}
	p.sumWithinC = 0
	for i := range cur {
		for j := i + 1; j < len(cur); j++ {
			p.sumWithinC += 2 * refDist(cur[i], cur[j])
		}
	}
	p.sumsValid = true
}

func (p *refPair) slideSums(old, nw vec.Vector) {
	if !p.sumsValid {
		return // will be rebuilt lazily by Energy
	}
	for _, a := range p.start {
		p.sumCross += refDist(a, nw) - refDist(a, old)
	}
	for i := 0; i < p.k; i++ {
		if i == p.head {
			continue
		}
		m := p.current[i]
		p.sumWithinC -= 2 * refDist(m, old)
		p.sumWithinC += 2 * refDist(m, nw)
	}
}

func refDist(a, b vec.Vector) float64 {
	d, err := a.Dist(b)
	if err != nil {
		return 0
	}
	return d
}

// driftingPoint is point i of a seeded cloud whose centre moves, so
// streams cross the detector's threshold now and then.
func driftingPoint(rng *xrand.Stream, dim, i int) vec.Vector {
	v := vec.Zero(dim)
	for d := range v {
		v[d] = rng.Normal(float64(i)*0.3*float64(d+1), 2)
	}
	return v
}

// requireSameSums demands bit equality, not closeness: the simulator's
// goldens move if one bit of one sum does.
func requireSameSums(t *testing.T, at string, p *Pair, ref *refPair) {
	t.Helper()
	want := ref.energy()
	got, err := p.Energy()
	if err != nil {
		t.Fatalf("%s: Energy: %v", at, err)
	}
	if p.sumCross != ref.sumCross || p.sumWithinS != ref.sumWithinS || p.sumWithinC != ref.sumWithinC || got != want {
		t.Fatalf("%s: sums (%v, %v, %v) energy %v; reference (%v, %v, %v) energy %v", at,
			p.sumCross, p.sumWithinS, p.sumWithinC, got,
			ref.sumCross, ref.sumWithinS, ref.sumWithinC, want)
	}
}

func forEachShape(t *testing.T, f func(t *testing.T, k, dim int, rng *xrand.Stream)) {
	for _, k := range []int{1, 2, 5, 32} {
		for _, dim := range []int{2, 3, 5} {
			t.Run(fmt.Sprintf("k=%d/dim=%d", k, dim), func(t *testing.T) {
				f(t, k, dim, xrand.NewStream(uint64(100*k+dim)))
			})
		}
	}
}

// TestFillSumsMatchReference drives a pair the way the ENERGY policy
// does — Energy read on every full append, so the sums are built by the
// fill-time shortcut — and requires the reference's bits after the fill
// and after every slide, across interleaved Resets.
func TestFillSumsMatchReference(t *testing.T) {
	forEachShape(t, func(t *testing.T, k, dim int, rng *xrand.Stream) {
		p, ref := mustPair(t, k, dim), newRefPair(k, dim)
		for i := 0; i < 12*k+40; i++ {
			if rng.Intn(3*k+7) == 0 {
				p.Reset()
				ref.reset()
			}
			pt := driftingPoint(rng, dim, i)
			appendN(t, p, []vec.Vector{pt})
			ref.append(pt)
			if p.Full() != ref.full() {
				t.Fatalf("append %d: Full %v, reference %v", i, p.Full(), ref.full())
			}
			if p.Full() {
				requireSameSums(t, fmt.Sprintf("append %d", i), p, ref)
			}
		}
	})
}

// TestColdSumsMatchReference covers a first Energy that arrives only
// after Wc has slid: the shortcut no longer applies and the sums come
// from the general loops over the windows as they stand — what the old
// code's Energy did when it found its sums invalid, so the reference is
// put in that state at the fill. From there on both slide incrementally
// and must stay equal. The result also has to agree, to rounding, with a
// reference that kept its sums from the fill.
func TestColdSumsMatchReference(t *testing.T) {
	forEachShape(t, func(t *testing.T, k, dim int, rng *xrand.Stream) {
		for _, slides := range []int{1, k / 2, k, 3*k + 1} {
			p, ref, kept := mustPair(t, k, dim), newRefPair(k, dim), newRefPair(k, dim)
			for i := 0; i < k+slides; i++ {
				pt := driftingPoint(rng, dim, i)
				appendN(t, p, []vec.Vector{pt})
				ref.append(pt)
				kept.append(pt)
				if i == k-1 {
					ref.sumsValid = false
				}
			}
			if p.sumsValid {
				t.Fatalf("slides=%d: sums built before any Energy call", slides)
			}
			requireSameSums(t, fmt.Sprintf("first Energy after %d slides", slides), p, ref)
			if got, want := ref.energy(), kept.energy(); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("slides=%d: rebuilt energy %v, incrementally kept %v", slides, got, want)
			}
			for i := 0; i < 2*k+3; i++ {
				pt := driftingPoint(rng, dim, k+slides+i)
				appendN(t, p, []vec.Vector{pt})
				ref.append(pt)
				requireSameSums(t, fmt.Sprintf("slides=%d, later slide %d", slides, i), p, ref)
			}
		}
	})
}

// TestRelativeDetectorNeverBuildsSums: a pair read only through
// Relative pays for no distance sums, and what Relative does read —
// windows and centroids — is what it read before.
func TestRelativeDetectorNeverBuildsSums(t *testing.T) {
	forEachShape(t, func(t *testing.T, k, dim int, rng *xrand.Stream) {
		p, ref := mustPair(t, k, dim), newRefPair(k, dim)
		neighbor := vec.Zero(dim)
		neighbor[0] = 40
		for i := 0; i < 6*k+20; i++ {
			pt := driftingPoint(rng, dim, i)
			appendN(t, p, []vec.Vector{pt})
			ref.append(pt)
			fired := false
			if p.Full() {
				ratio, err := p.Relative(neighbor)
				if err != nil {
					t.Fatalf("Relative: %v", err)
				}
				fired = ratio > 0.3
			}
			if p.sumsValid || p.sumCross != 0 || p.sumWithinS != 0 || p.sumWithinC != 0 {
				t.Fatalf("append %d: sums built (%v, %v, %v) though Energy was never read", i, p.sumCross, p.sumWithinS, p.sumWithinC)
			}
			requireSameWindows(t, i, p, ref)
			if !p.Full() {
				continue
			}
			wantS, _ := vec.Centroid(ref.start)
			ordered := append(append([]vec.Vector{}, ref.current[ref.head:]...), ref.current[:ref.head]...)
			wantC, _ := vec.Centroid(ordered)
			gotS, _ := p.StartCentroid()
			gotC, _ := p.CurrentCentroid()
			if !gotS.Equal(wantS) || !gotC.Equal(wantC) {
				t.Fatalf("append %d: centroids %v / %v, want %v / %v", i, gotS, gotC, wantS, wantC)
			}
			if fired {
				p.Reset()
				ref.reset()
			}
		}
	})
}

func requireSameWindows(t *testing.T, i int, p *Pair, ref *refPair) {
	t.Helper()
	start, cur := p.Start(), p.Current()
	if len(start) != ref.startLen || len(cur) != ref.curLen {
		t.Fatalf("append %d: window lengths %d/%d, reference %d/%d", i, len(start), len(cur), ref.startLen, ref.curLen)
	}
	for j := range start {
		if !start[j].Equal(ref.start[j]) {
			t.Fatalf("append %d: Start()[%d] = %v, reference %v", i, j, start[j], ref.start[j])
		}
	}
	for j := range cur {
		if want := ref.current[(ref.head+j)%ref.k]; !cur[j].Equal(want) {
			t.Fatalf("append %d: Current()[%d] = %v, reference %v", i, j, cur[j], want)
		}
	}
}

// freshDriver feeds one seeded drifting stream to a Pair and to refPair
// side by side. The reference builds its sums at the fill, as the old
// code did; when the pair's first Energy since the fill comes after a
// slide, the pair builds cold, and the reference is made to rebuild
// from the windows as they stand at the same read, which is what the
// old code's Energy did when it found its sums invalid.
type freshDriver struct {
	t     *testing.T
	rng   *xrand.Stream
	dim   int
	n     int // points drawn so far
	p     *Pair
	ref   *refPair
	built bool // Energy read since the last Reset
}

func newFreshDriver(t *testing.T, k, dim int) *freshDriver {
	return &freshDriver{t: t, rng: xrand.NewStream(uint64(1000*k + dim)), dim: dim, p: mustPair(t, k, dim), ref: newRefPair(k, dim)}
}

func (d *freshDriver) append() {
	pt := driftingPoint(d.rng, d.dim, d.n)
	d.n++
	appendN(d.t, d.p, []vec.Vector{pt})
	d.ref.append(pt)
}

func (d *freshDriver) read(at string) {
	d.t.Helper()
	if !d.built {
		d.ref.sumsValid = false
		d.built = true
	}
	requireSameSums(d.t, at, d.p, d.ref)
	requireFreshInvariant(d.t, at, d.p)
}

func (d *freshDriver) reset() {
	d.p.Reset()
	d.ref.reset()
	d.built = false
}

// requireFreshInvariant: while a slot from head on still holds its fill
// point, fresh counts exactly those slots, which run to the ring's end.
func requireFreshInvariant(t *testing.T, at string, p *Pair) {
	t.Helper()
	if p.fresh < 0 || p.fresh > p.k || (p.fresh > 0 && p.head+p.fresh != p.k) {
		t.Fatalf("%s: fresh %d with head %d, k %d", at, p.fresh, p.head, p.k)
	}
	for i := p.head; i < p.head+p.fresh; i++ {
		if !p.current[i].Equal(p.start[i]) {
			t.Fatalf("%s: slot %d counted fresh but holds %v, fill point %v", at, i, p.current[i], p.start[i])
		}
	}
}

// TestFreshSlidesMatchReference walks every slide across the boundary
// where the last fill point leaves Wc — the slides that read the
// cross-distance table instead of taking square roots, and the first
// ones after them that cannot — and requires the reference's bits after
// each, with the sums built at the fill, built cold after 1, k-1 and k
// slides, and read on every append or only on every third. A run that
// stops short of the boundary comes right before a Reset and a cold
// build, so a fresh count left over from it would be read.
func TestFreshSlidesMatchReference(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 32} {
		for _, dim := range []int{2, 3, 5} {
			t.Run(fmt.Sprintf("k=%d/dim=%d", k, dim), func(t *testing.T) {
				d := newFreshDriver(t, k, dim)
				for _, every := range []int{1, 3} {
					for _, slides := range []int{k + 3, k, k - 1} {
						d.reset()
						for i := 0; i < k+slides; i++ {
							d.append()
							if d.p.Full() && (i+1)%every == 0 {
								d.read(fmt.Sprintf("every %d, %d slides, append %d", every, slides, i))
							}
						}
					}
				}
				for _, cold := range []int{1, k - 1, k} {
					d.reset()
					for i := 0; i < k+cold; i++ {
						d.append()
					}
					d.read(fmt.Sprintf("cold build after %d slides", cold))
					if cold > 0 && d.p.fresh != 0 {
						t.Fatalf("cold build after %d slides: fresh %d, want 0", cold, d.p.fresh)
					}
					for i := 0; i < 2*k; i++ {
						d.append()
						d.read(fmt.Sprintf("cold build after %d slides, slide %d", cold, i))
					}
				}
			})
		}
	}
}
