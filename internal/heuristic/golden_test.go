package heuristic

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"testing"

	"netcoord/internal/coord"
	"netcoord/internal/xrand"
)

// goldenStream is one seeded observation stream for TestPolicyGolden.
type goldenStream struct {
	sys      []coord.Coordinate
	neighbor coord.Coordinate
}

// withHeight gives every coordinate a positive height, so a policy that
// publishes a centroid has to average heights as well as vectors.
func withHeight(rng *xrand.Stream, cs []coord.Coordinate) []coord.Coordinate {
	for i := range cs {
		cs[i].Height = 1 + math.Abs(rng.Normal(0, 0.5))
	}
	return cs
}

func goldenStreams() map[string]goldenStream {
	far := coord.New(80, 50, 50)

	rng := xrand.NewStream(101)
	stationary := withHeight(rng, noisyWalk(rng, 400, 50, 50, 50, 1))

	// A radial shift: the cloud walks 40 ms away from where it started.
	rng = xrand.NewStream(102)
	radial := noisyWalk(rng, 100, 50, 50, 50, 0.5)
	for i := 0; i < 150; i++ {
		x := 50 + 40*float64(i)/149
		radial = append(radial, coord.New(x+rng.Normal(0, 0.5), 50+rng.Normal(0, 0.5), 50+rng.Normal(0, 0.5)))
	}
	radial = withHeight(rng, append(radial, noisyWalk(rng, 150, 90, 50, 50, 0.5)...))

	// A direction-only shift, RANKSUM's blind spot: a window spread on a
	// ring of radius 30 around its centroid, then a window collapsed onto
	// one point of that ring — every point stays ~30 ms from C(Ws).
	rng = xrand.NewStream(103)
	var direction []coord.Coordinate
	for rep := 0; rep < 4; rep++ {
		for i := 0; i < 32; i++ {
			theta := 2 * math.Pi * float64(i) / 32
			direction = append(direction, coord.New(
				50+30*math.Cos(theta)+rng.Normal(0, 0.2),
				50+30*math.Sin(theta)+rng.Normal(0, 0.2),
				50+rng.Normal(0, 0.2)))
		}
		for i := 0; i < 48; i++ {
			direction = append(direction, coord.New(80+rng.Normal(0, 0.2), 50+rng.Normal(0, 0.2), 50+rng.Normal(0, 0.2)))
		}
	}
	direction = withHeight(rng, direction)

	// Zero scale for RELATIVE: the neighbor sits exactly on a constant
	// start window, so the first movement at all must fire it.
	rng = xrand.NewStream(104)
	var still []coord.Coordinate
	for half := 0; half < 2; half++ {
		for i := 0; i < 30; i++ {
			still = append(still, coord.New(10, 10, 10))
		}
		still = append(still, noisyWalk(rng, 30, 12, 10, 10, 0.1)...)
	}
	still = withHeight(rng, still)

	return map[string]goldenStream{
		"stationary": {sys: stationary, neighbor: far},
		"radial":     {sys: radial, neighbor: far},
		"direction":  {sys: direction, neighbor: far},
		"zero-scale": {sys: still, neighbor: coord.New(10, 10, 10)},
	}
}

// goldenPolicies builds every constructor's policy; "relative-alone" is
// RELATIVE fed no neighbor.
func goldenPolicies(t *testing.T) map[string]Policy {
	t.Helper()
	mk := map[string]func() (Policy, error){
		"direct":         func() (Policy, error) { return NewDirect(3) },
		"system":         func() (Policy, error) { return NewSystem(3, 2) },
		"application":    func() (Policy, error) { return NewApplication(3, 5) },
		"relative":       func() (Policy, error) { return NewRelative(3, 8, DefaultRelativeEpsilon) },
		"relative-alone": func() (Policy, error) { return NewRelative(3, 8, DefaultRelativeEpsilon) },
		"energy":         func() (Policy, error) { return NewEnergy(3, DefaultWindow, DefaultEnergyTau) },
		"centroid":       func() (Policy, error) { return NewApplicationCentroid(3, 8, 5) },
		"ranksum":        func() (Policy, error) { return NewRankSum(3, DefaultWindow, DefaultRankSumZ) },
	}
	out := make(map[string]Policy, len(mk))
	for name, f := range mk {
		p, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = p
	}
	return out
}

// policyGolden holds, per policy/stream, the FNV-64a digest of every
// observation's changed flag and the bits of the returned application
// vector and height, with a Reset halfway through the stream.
var policyGolden = map[string]uint64{
	"application/direction":     0x7f33f8a5d334ab22, // 130 changes
	"application/radial":        0x805d9a04b9298866, // 10 changes
	"application/stationary":    0x2ef3d89bc548af05, // 10 changes
	"application/zero-scale":    0x20da2f42e1765115, // 2 changes
	"centroid/direction":        0x68b3de220247c551, // 149 changes
	"centroid/radial":           0x0f60abcf35dee277, // 12 changes
	"centroid/stationary":       0xf6b3e3dc8ae0ffeb, // 3 changes
	"centroid/zero-scale":       0x20da2f42e1765115, // 2 changes
	"direct/direction":          0x29ade1ae72c85394, // 320 changes
	"direct/radial":             0x91d0922d1f2f496d, // 400 changes
	"direct/stationary":         0x9dfa661c362d34b4, // 400 changes
	"direct/zero-scale":         0x21e9d0cb4231d9d1, // 120 changes
	"energy/direction":          0x43bf1ba65e5708ef, // 8 changes
	"energy/radial":             0xb991febfa6b57266, // 6 changes
	"energy/stationary":         0xcbfa6e290530f755, // 2 changes
	"energy/zero-scale":         0xf4e79ca8f9c353d0, // 4 changes
	"ranksum/direction":         0x9adc24e0bfe1fe24, // 3 changes
	"ranksum/radial":            0x5dff59d306b8c552, // 7 changes
	"ranksum/stationary":        0xcc0610fb2d2db858, // 3 changes
	"ranksum/zero-scale":        0xba07f9dc3475a441, // 4 changes
	"relative-alone/direction":  0xb38f0fcbc43b52a5, // 2 changes
	"relative-alone/radial":     0x47d2209d1c4d8545, // 2 changes
	"relative-alone/stationary": 0xcbfa6e290530f755, // 2 changes
	"relative-alone/zero-scale": 0x20da2f42e1765115, // 2 changes
	"relative/direction":        0x5a78674fb4c19d7f, // 34 changes
	"relative/radial":           0x0454f3aa505ba83d, // 9 changes
	"relative/stationary":       0xcbfa6e290530f755, // 2 changes
	"relative/zero-scale":       0x904c2e2a956c5b21, // 4 changes
	"system/direction":          0x7f33f8a5d334ab22, // 130 changes
	"system/radial":             0x7afc51dc752302be, // 78 changes
	"system/stationary":         0x8fb30bb58e513756, // 270 changes
	"system/zero-scale":         0x68d133a2bb88adf5, // 4 changes
}

// TestPolicyGolden pins every policy's output bit for bit on seeded
// streams: a refactor of the policies must leave every digest as it is.
func TestPolicyGolden(t *testing.T) {
	streams := goldenStreams()
	got := make(map[string]uint64)
	fires := make(map[string]int)
	for sname, s := range streams {
		for pname, p := range goldenPolicies(t) {
			h := fnv.New64a()
			var buf [8]byte
			word := func(u uint64) {
				for i := range buf {
					buf[i] = byte(u >> (8 * i))
				}
				h.Write(buf[:])
			}
			key := pname + "/" + sname
			for i, c := range s.sys {
				if i == len(s.sys)/2 {
					p.Reset()
				}
				obs := Observation{Sys: c}
				if pname != "relative-alone" {
					obs.Neighbor, obs.HasNeighbor = s.neighbor, true
				}
				app, changed, err := p.Observe(obs)
				if err != nil {
					t.Fatalf("%s: observe %d: %v", key, i, err)
				}
				if changed {
					word(1)
					fires[key]++
				} else {
					word(0)
				}
				for _, x := range app.Vec {
					word(math.Float64bits(x))
				}
				word(math.Float64bits(app.Height))
			}
			got[key] = h.Sum64()
		}
	}

	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var table strings.Builder
	bad := 0
	for _, k := range keys {
		fmt.Fprintf(&table, "\t%q: %#016x, // %d changes\n", k, got[k], fires[k])
		if want, ok := policyGolden[k]; !ok || want != got[k] {
			bad++
		}
	}
	if bad > 0 || len(policyGolden) != len(got) {
		t.Fatalf("%d of %d digests differ (golden has %d); observed:\n%s", bad, len(got), len(policyGolden), table.String())
	}

	// The streams must exercise what they are named for.
	for _, want := range []struct {
		key  string
		more bool // more than the two primes (start and after Reset)
	}{
		{"energy/radial", true},
		{"energy/direction", true},
		{"ranksum/radial", true},
		{"relative/radial", true},
		{"relative/zero-scale", true},
		{"relative-alone/radial", false},
		{"energy/stationary", false},
	} {
		if got := fires[want.key] > 2; got != want.more {
			t.Errorf("%s: %d changes, want more than the primes: %v", want.key, fires[want.key], want.more)
		}
	}
	if e, r := fires["energy/direction"], fires["ranksum/direction"]; r >= e {
		t.Errorf("direction-only shift: ranksum changed %d times, energy %d; the blind spot should show", r, e)
	}
}
