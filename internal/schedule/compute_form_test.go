package schedule

import (
	"fmt"
	"slices"
	"testing"
)

// costVec is a point of the compute form's cost space, (F, B, HeadF, HeadB),
// or a path's count vector in it.
type costVec [4]int64

func (v costVec) dot(c costVec) int64 { return v[0]*c[0] + v[1]*c[1] + v[2]*c[2] + v[3]*c[3] }

func (v costVec) costs() ComputeCosts {
	return ComputeCosts{F: v[0], B: v[1], HeadF: v[2], HeadB: v[3]}
}

// coneFacets are the inward normals of the cone ComputeMakespan answers on:
// c lies in it iff a·c ≥ 0 for every a here (F ≥ 0, HeadF ≥ F, B ≥ 2F,
// HeadB ≥ 2·HeadF).
var coneFacets = []costVec{{1, 0, 0, 0}, {-1, 0, 1, 0}, {-2, 1, 0, 0}, {0, 0, -2, 1}}

// coneRays are the cone's four extreme rays.
var coneRays = []costVec{{0, 0, 0, 1}, {0, 1, 0, 0}, {0, 0, 1, 2}, {1, 2, 1, 2}}

// nullRay returns a nonzero integer x with a·x = 0 for the three rows, their
// generalized cross product reduced by its gcd, or ok = false if the rows
// have rank below three.
func nullRay(a, b, c costVec) (x costVec, ok bool) {
	det3 := func(i, j, k int) int64 {
		return a[i]*(b[j]*c[k]-b[k]*c[j]) - a[j]*(b[i]*c[k]-b[k]*c[i]) + a[k]*(b[i]*c[j]-b[j]*c[i])
	}
	x = costVec{-det3(1, 2, 3), det3(0, 2, 3), -det3(0, 1, 3), det3(0, 1, 2)}
	var g int64
	for _, v := range x {
		g = gcd(g, max(v, -v))
	}
	if g == 0 {
		return x, false
	}
	for i := range x {
		x[i] /= g
	}
	return x, true
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// computeVecs returns cfg's compute-form families as count vectors.
func computeVecs(cfg ChimeraConfig) []costVec {
	paths, n := cfg.computePaths()
	vecs := make([]costVec, n)
	for i, p := range paths[:n] {
		vecs[i] = costVec{p.f, p.b, p.h, p.h}
	}
	return vecs
}

// regionRays returns the extreme rays of each family's region: the part of
// the cone where that family is the largest, a polyhedral cone cut out by
// the cone's facets and the hyperplanes where the family ties another. An
// extreme ray is where three of those constraints are active with rank
// three, so rays[i] lists every such ray in family i's region.
func regionRays(vecs []costVec) [][]costVec {
	rays := make([][]costVec, len(vecs))
	for i, v := range vecs {
		cons := slices.Clone(coneFacets)
		for j, u := range vecs {
			if j != i {
				cons = append(cons, costVec{v[0] - u[0], v[1] - u[1], v[2] - u[2], v[3] - u[3]})
			}
		}
		for a := range cons {
			for b := a + 1; b < len(cons); b++ {
				for c := b + 1; c < len(cons); c++ {
					x, ok := nullRay(cons[a], cons[b], cons[c])
					if !ok {
						continue
					}
					for _, r := range []costVec{x, {-x[0], -x[1], -x[2], -x[3]}} {
						if !slices.ContainsFunc(cons, func(a costVec) bool { return a.dot(r) < 0 }) && !slices.Contains(rays[i], r) {
							rays[i] = append(rays[i], r)
						}
					}
				}
			}
		}
	}
	return rays
}

// computeReplayConfig prices c on a D-stage schedule: body ops at c[0] and
// c[1], head-stage ops at c[2] and c[3], no p2p latency.
func computeReplayConfig(d int, c costVec) ReplayConfig {
	return ReplayConfig{
		OpCost: func(_ int, op Op) int64 {
			i := 0
			if op.Stage == d-1 {
				i = 2
			}
			if op.Kind == Backward {
				i++
			}
			return c[i]
		},
		EdgeCost: func(Op) int64 { return 0 },
	}
}

// sameComputeMakespan reports how ComputeMakespan at c differs from the
// replay's makespan, or nil.
func sameComputeMakespan(p *sweepPoint, c costVec) error {
	got, ok, err := p.cfg.ComputeMakespan(c.costs())
	if err != nil || !ok {
		return fmt.Errorf("%v: no closed-form compute makespan (%v)", c, err)
	}
	r, err := p.replay(computeReplayConfig(p.cfg.D, c))
	if err != nil {
		return err
	}
	want := r.Makespan()
	r.Release()
	if got != want {
		return fmt.Errorf("%v: closed-form compute makespan %d, replay %d", c, got, want)
	}
	return nil
}

// checkComputeForm proves ComputeMakespan on the whole cone at p: it equals
// the replay at every extreme ray of every family's region and at one
// relative-interior point of each. The replay is a maximum of linear forms,
// so convex and positively homogeneous: on a region whose rays it matches it
// is at most the family's linear form, and, convex and at most that form, it
// meets the form throughout once it meets it at a relative-interior point.
// Every cost lies in the region of a family it maximizes.
func checkComputeForm(p *sweepPoint) error {
	var seen []costVec
	for i, rays := range regionRays(computeVecs(p.cfg)) {
		// The sum of a region's extreme rays lies in its relative interior.
		var sum costVec
		for _, r := range rays {
			for x := range sum {
				sum[x] += r[x]
			}
			if slices.Contains(seen, r) {
				continue
			}
			seen = append(seen, r)
			if err := sameComputeMakespan(p, r); err != nil {
				return fmt.Errorf("family %d's ray %w", i, err)
			}
		}
		if len(rays) == 0 {
			continue
		}
		if err := sameComputeMakespan(p, sum); err != nil {
			return fmt.Errorf("family %d's interior point %w", i, err)
		}
	}
	return nil
}

// checkComputeRays: the closed-form compute makespan is the replay's at the
// cone's four rays, which past checkComputeForm's grid is what shows each
// family growing by a fixed vector per unit.
func checkComputeRays(p *sweepPoint) error {
	for _, r := range coneRays {
		if err := sameComputeMakespan(p, r); err != nil {
			return fmt.Errorf("ray %w", err)
		}
	}
	return nil
}

// TestComputeMakespanConeBound: the cone's bound B ≥ 2F is where the form
// needs it. Just below it — D = 8, N = 13, a body backward of 2F − 1 — a path
// with more forwards and fewer backwards than any family outruns them all,
// and the form answers nothing there.
func TestComputeMakespanConeBound(t *testing.T) {
	cfg, c := ChimeraConfig{D: 8, N: 13}, costVec{1000, 1999, 1000, 2000}
	var form int64
	for _, v := range computeVecs(cfg) {
		form = max(form, v.dot(c))
	}
	r := mustGraph(t, cfg).Readout(computeReplayConfig(cfg.D, c))
	defer r.Release()
	if r.Makespan() <= form {
		t.Fatalf("%v: the replay's makespan %d does not exceed the families' %d: the cone could reach below B = 2F", c, r.Makespan(), form)
	}
	if _, ok, _ := cfg.ComputeMakespan(c.costs()); ok {
		t.Fatalf("%v: a closed-form compute makespan below the cone", c)
	}
}

// TestComputeMakespanClosedFormAllocFree: the planner reads the compute
// makespan once per candidate, and the read allocates nothing, for N below,
// at and past D and at the three-family point N ≡ −1 (mod D).
func TestComputeMakespanClosedFormAllocFree(t *testing.T) {
	c := ComputeCosts{F: 1000, B: 2000, HeadF: 1500, HeadB: 3000}
	for _, cfg := range []ChimeraConfig{{D: 8, N: 1}, {D: 8, N: 5}, {D: 8, N: 8}, {D: 8, N: 15}, {D: 8, N: 67}} {
		if allocs := testing.AllocsPerRun(100, func() {
			if _, ok, err := cfg.ComputeMakespan(c); err != nil || !ok {
				t.Fatalf("%+v: no closed-form compute makespan (%v)", cfg, err)
			}
		}); allocs != 0 {
			t.Fatalf("%+v: a closed-form compute makespan allocates %.1f times, want 0", cfg, allocs)
		}
	}
}

// FuzzComputeMakespanClosedForm: over fuzzer-chosen even D ≤ 256, N ≤ 8D, F,
// concatenation mode and four costs, the closed-form compute makespan is the
// replay's whenever it answers; it answers for every direct F = 1 configuration and cost in
// the cone, answers nothing outside that scope or for a cost outside the
// cone, and fails exactly when — and as — Chimera does. The costs are a
// body forward, a head forward of at least it, and each backward twice its
// forward plus a margin; the last argument moves them off the cone or not:
// a head forward below the body's, a backward below twice its forward, a
// negative forward. The committed corpus (testdata/fuzz) replays on every
// go test.
func FuzzComputeMakespanClosedForm(f *testing.F) {
	f.Add(uint8(3), uint16(14), uint8(1), uint8(0), uint16(1000), uint16(500), uint16(0), uint16(0), uint8(0))
	f.Add(uint8(3), uint16(14), uint8(0), uint8(0), uint16(7), uint16(65000), uint16(3), uint16(1), uint8(0))
	f.Add(uint8(7), uint16(40), uint8(2), uint8(1), uint16(1000), uint16(500), uint16(1000), uint16(0), uint8(1))
	f.Fuzz(func(t *testing.T, d8 uint8, n16 uint16, f8 uint8, mode uint8, fa, dh, ba, bh uint16, off uint8) {
		d := 2 + 2*int(d8%128)
		cfg := ChimeraConfig{D: d, N: 1 + int(n16)%(8*d), F: int(f8 % 5), Concat: ConcatMode(mode % 3)}
		c := ComputeCosts{F: int64(fa), HeadF: int64(fa) + int64(dh)}
		c.B, c.HeadB = 2*c.F+int64(ba), 2*c.HeadF+int64(bh)
		switch off % 4 {
		case 1:
			c.F, c.HeadF = c.HeadF+1, c.F
			c.B, c.HeadB = 2*c.F+int64(ba), 2*c.HeadF+int64(bh)
		case 2:
			c.B = 2*c.F - 1 - int64(ba%8)
		case 3:
			c.F = -1 - int64(fa%8)
		}
		got, ok, err := cfg.ComputeMakespan(c)
		_, serr := Chimera(cfg)
		if (err == nil) != (serr == nil) || (err != nil && err.Error() != serr.Error()) {
			t.Fatalf("%+v: closed-form error %v, Chimera %v", cfg, err, serr)
		}
		want := err == nil && cfg.F <= 1 && (cfg.N <= cfg.D || cfg.Concat == Direct) && off%4 == 0
		switch {
		case err != nil:
			if ok {
				t.Fatalf("%+v: a makespan beside the error %v", cfg, err)
			}
		case ok != want:
			t.Fatalf("%+v %+v: closed form answers %v, want %v", cfg, c, ok, want)
		case ok:
			p := &sweepPoint{cfg: cfg}
			v := costVec{c.F, c.B, c.HeadF, c.HeadB}
			r, err := p.replay(computeReplayConfig(d, v))
			if err != nil {
				t.Fatalf("%+v: %v", cfg, err)
			}
			defer r.Release()
			if r.Makespan() != got {
				t.Fatalf("%+v %+v: closed-form compute makespan %d, replay %d", cfg, c, got, r.Makespan())
			}
		}
	})
}
