package schedule

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// planCosts are Eq. 1's unit-cost models: the planner prices the free
// regions with a backward of two forwards, or three under recomputation.
var planCosts = []CostModel{{FUnit: 1000, BUnit: 2000}, {FUnit: 1000, BUnit: 3000}}

// sweepPoint is one (D, N) of the oracle sweep and what the forms checked at
// it share: the schedule Chimera builds, its compiled graph and the
// free-region tables the replay reads under each of planCosts, each built on
// first use and at most once, and the tables at N − D if the sweep read them.
type sweepPoint struct {
	cfg        ChimeraConfig
	s          *Schedule
	g          *Graph
	free, back []FreeRegions
}

// schedule is Chimera(cfg).
func (p *sweepPoint) schedule() (*Schedule, error) {
	if p.s == nil {
		s, err := Chimera(p.cfg)
		if err != nil {
			return nil, err
		}
		p.s = s
	}
	return p.s, nil
}

// graph is the compiled graph of Chimera(cfg).
func (p *sweepPoint) graph() (*Graph, error) {
	if p.g == nil {
		s, err := p.schedule()
		if err != nil {
			return nil, err
		}
		if p.g, err = s.Graph(); err != nil {
			return nil, err
		}
	}
	return p.g, nil
}

// replay is the full schedule's read-out of cfg under rc.
func (p *sweepPoint) replay(rc ReplayConfig) (*Readout, error) {
	g, err := p.graph()
	if err != nil {
		return nil, err
	}
	return g.Readout(rc), nil
}

// freeTables are the free-region tables the replay reads under each of
// planCosts, in that order.
func (p *sweepPoint) freeTables() ([]FreeRegions, error) {
	if p.free == nil {
		g, err := p.graph()
		if err != nil {
			return nil, err
		}
		free := make([]FreeRegions, len(planCosts))
		for i, cm := range planCosts {
			if free[i], err = replayFree(g, p.cfg.D, cm); err != nil {
				return nil, fmt.Errorf("%+v: %w", cm, err)
			}
		}
		p.free = free
	}
	return p.free, nil
}

// critical is CriticalPath probed on the point's schedule.
func (p *sweepPoint) critical() (cf, cb int, err error) {
	s, err := p.schedule()
	if err != nil {
		return 0, 0, err
	}
	return CriticalPath(s)
}

// closedForm is one closed form, or a property the closed forms rest on,
// that the oracle sweep holds to the mechanism on its own grid of (D, N) and
// reports as a subtest of its own. A point of a form whose check compares
// under each of planCosts counts as that many (D, N, cost) triples.
type closedForm struct {
	name    string
	on      func(d, n int) bool
	check   func(p *sweepPoint) error
	perCost bool
}

// depthSweep is what the oracle sweep found at one depth, per form: the
// points checked and the first five errors.
type depthSweep struct {
	checked []int
	errs    [][]error
}

// sweepDepth checks every form at each (d, N) of its grid, walking N upward
// over the union of the grids, all of which lie within N ≤ longestN. Of a
// point it keeps only the free-region tables, and only until the point one
// unit longer has been checked against them.
func sweepDepth(d int, forms []*closedForm) depthSweep {
	out := depthSweep{checked: make([]int, len(forms)), errs: make([][]error, len(forms))}
	kept := map[int][]FreeRegions{}
	for n := 1; n <= longestN; n++ {
		p := &sweepPoint{cfg: ChimeraConfig{D: d, N: n}, back: kept[n-d]}
		for i, f := range forms {
			if !f.on(d, n) {
				continue
			}
			out.checked[i]++
			if err := f.check(p); err != nil && len(out.errs[i]) < 5 {
				out.errs[i] = append(out.errs[i], fmt.Errorf("D=%d N=%d: %w", d, n, err))
			}
		}
		delete(kept, n-d)
		kept[n] = p.free
	}
	return out
}

// upTo reports whether n is at most max or one of the long N periodicNs
// lists for depth d.
func upTo(d, n, max int) bool { return n <= max || periodicN(d, n) }

// TestChimeraClosedForms holds every closed form of a fixed-placement,
// direct, F = 1 Chimera configuration, and the periodic structure they rest
// on, to the general mechanism in one pass: each (D, N) of the union of
// their grids is built, compiled and replayed under each cost model once,
// and every form whose grid holds it is checked against that. The depths are
// shared out over GOMAXPROCS goroutines, deepest first, each depth on one of
// them; the results merge in D order, so every form reports the first five
// errors a sequential sweep would. Each form reports as a subtest under the
// name of the test it replaces:
//
//   - TestResidencyPeriodic: the profile built from ChimeraConfig.ResidencyRow
//     is the walk of the schedule, struct for struct, and at N ≥ D each worker's peak is
//     Table 2's D/2 + min(D/2, w+1, D−w) micro-batches; every even D ≤ 128
//     (32 under -short or -race), every N ≤ 2D + 1 and every long N of
//     periodicNs.
//   - TestCriticalPathClosedForm: ChimeraConfig.CriticalPath is the
//     two-probe CriticalPath of the replay; every even D ≤ 128 (16 under
//     -short or -race) and the same N.
//   - TestFreeRegionsClosedForm: ChimeraConfig.FreeRegions under either of
//     Eq. 1's cost models is what (*Readout).FreeRegions reads off the
//     replay at every point of the critical-path grid and at every even
//     D ≤ 64 (16 under -short or -race) and N ≤ 4D + 1.
//   - TestFreeRegionsPeriodic: what makes the free regions closed-form in
//     (D, N mod D, N ≥ D) — from one full unit on, adding a unit changes no
//     placement's free region: under either cost model the replay's table
//     at N is the one at N − D, for every even D ≤ 64 (16 under -short or
//     -race) and 2D ≤ N ≤ 4D.
//   - ComputeMakespan: ChimeraConfig.ComputeMakespan is the makespan of the
//     replay on the whole cone it answers on, proved by checkComputeForm's
//     rays and interior points; every even D ≤ 64 (32 under -short or
//     -race) and N ≤ 4D + 1.
//   - TestComputeMakespanPeriodic: past that grid each family grows by a
//     fixed vector per unit; the closed-form compute makespan is the
//     replay's at the cone's four rays for every even D ≤ 32 (16 under
//     -short or -race) and 3D ≤ N ≤ 8D.
//   - TestChimeraDirectLockstep: checkLockstep's S1 and S2 on the compiled
//     graph, for every even D ≤ 64 (16 under -short or -race) and
//     N = uD + r with 3 ≤ u ≤ 7 and r ∈ {0, 1, D/2, D − 1}.
func TestChimeraClosedForms(t *testing.T) {
	resD, critD, freeD := exhaustiveD(128, 32), exhaustiveD(128, 16), exhaustiveD(64, 16)
	computeD, raysD, lockD := exhaustiveD(64, 32), exhaustiveD(32, 16), exhaustiveD(64, 16)
	critOn := func(d, n int) bool { return d <= critD && upTo(d, n, 2*d+1) }
	forms := []*closedForm{
		{name: "TestResidencyPeriodic", on: func(d, n int) bool { return d <= resD && upTo(d, n, 2*d+1) }, check: checkResidencyForm},
		{name: "TestCriticalPathClosedForm", on: critOn, check: checkCriticalForm},
		{name: "TestFreeRegionsClosedForm", on: func(d, n int) bool { return d <= freeD && n <= 4*d+1 || critOn(d, n) }, check: checkFreeForm},
		{name: "TestFreeRegionsPeriodic", on: func(d, n int) bool { return d <= freeD && 2*d <= n && n <= 4*d }, check: checkFreePeriodic, perCost: true},
		{name: "ComputeMakespan", on: func(d, n int) bool { return d <= computeD && n <= 4*d+1 }, check: checkComputeForm},
		{name: "TestComputeMakespanPeriodic", on: func(d, n int) bool { return d <= raysD && 3*d <= n && n <= 8*d }, check: checkComputeRays},
		{name: "TestChimeraDirectLockstep", check: checkLockstep, on: func(d, n int) bool {
			r := n % d
			return d <= lockD && n/d >= 3 && n/d <= 7 && (r <= 1 || r == d/2 || r == d-1)
		}},
	}
	depths := make([]depthSweep, 64) // D = 2, 4, …, 128
	var claimed atomic.Int64
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := len(depths) - int(claimed.Add(1))
				if i < 0 {
					return
				}
				depths[i] = sweepDepth(2+2*i, forms)
			}
		}()
	}
	wg.Wait()
	for i, f := range forms {
		t.Run(f.name, func(t *testing.T) {
			checked, errs := 0, []error{}
			for _, ds := range depths {
				checked += ds.checked[i]
				errs = append(errs, ds.errs[i]...)
			}
			for _, err := range errs[:min(len(errs), 5)] {
				t.Error(err)
			}
			if f.perCost {
				t.Logf("%d (D, N, cost) triples checked", checked*len(planCosts))
			} else {
				t.Logf("%d (D, N) pairs checked", checked)
			}
		})
	}
}

// checkResidencyForm: the closed-form residency profile is the walk.
func checkResidencyForm(p *sweepPoint) error {
	got, err := closedFormResidency(p.cfg)
	if err != nil || got == nil {
		return fmt.Errorf("no closed-form residency (%v)", err)
	}
	s, err := p.schedule()
	if err != nil {
		return err
	}
	if want := s.Residency(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("closed-form residency %+v, walk %+v", got, want)
	}
	if d := p.cfg.D; p.cfg.N >= d {
		for w := range got.Workers {
			if peak, want := got.Workers[w].PeakUnits(), int64(d+2*min(d/2, w+1, d-w)); peak != want {
				return fmt.Errorf("worker %d: peak %d half-micro-batches, Table 2 says %d", w, peak, want)
			}
		}
	}
	return nil
}

// checkCriticalForm: the closed-form (Cf, Cb) is the two-probe CriticalPath.
func checkCriticalForm(p *sweepPoint) error {
	cf, cb, ok, err := p.cfg.CriticalPath()
	if err != nil || !ok {
		return fmt.Errorf("no closed-form critical path (%v)", err)
	}
	wcf, wcb, err := p.critical()
	if err != nil {
		return err
	}
	if cf != wcf || cb != wcb {
		return fmt.Errorf("closed-form (Cf, Cb) = (%d, %d), probe (%d, %d)", cf, cb, wcf, wcb)
	}
	return nil
}

// checkFreeForm: under each of Eq. 1's cost models the closed-form free
// regions are the replay's.
func checkFreeForm(p *sweepPoint) error {
	want, err := p.freeTables()
	if err != nil {
		return err
	}
	for i, cm := range planCosts {
		got, ok, err := p.cfg.FreeRegions(cm)
		if err != nil || !ok {
			return fmt.Errorf("%+v: no closed-form free regions (%v)", cm, err)
		}
		if err := sameFreeRegions(p.cfg.D, got, want[i]); err != nil {
			return fmt.Errorf("%+v: closed form against the replay: %w", cm, err)
		}
	}
	return nil
}

// checkFreePeriodic: under each of Eq. 1's cost models the replay's free
// regions at N are those at N − D.
func checkFreePeriodic(p *sweepPoint) error {
	got, err := p.freeTables()
	if err != nil {
		return err
	}
	if p.back == nil {
		return errors.New("the sweep read no tables at N − D")
	}
	for i, cm := range planCosts {
		if err := sameFreeRegions(p.cfg.D, got[i], p.back[i]); err != nil {
			return fmt.Errorf("%+v: N against N − D: %w", cm, err)
		}
	}
	return nil
}

// replayFree is the free-region table g's replay under cm reads, checked
// against the read-out it comes from: ComputeEnd − GradReady.At per
// placement, on each of the d workers.
func replayFree(g *Graph, d int, cm CostModel) (FreeRegions, error) {
	r := g.Readout(cm.ReplayConfig())
	defer r.Release()
	table := r.FreeRegions()
	var buf [2]FreeRegion
	for w := range d {
		f, end, ready := table.AppendWorker(buf[:0], w), r.ComputeEnd(w), r.GradReady(w)
		if len(f) != len(ready) {
			return FreeRegions{}, fmt.Errorf("worker %d: replay's table %+v, read-out %+v", w, f, ready)
		}
		for i, gr := range ready {
			if f[i] != (FreeRegion{Stage: int32(gr.Stage), Slack: end - gr.At}) {
				return FreeRegions{}, fmt.Errorf("worker %d: replay's table %+v, read-out %+v ending at %d", w, f[i], gr, end)
			}
		}
	}
	return table, nil
}

// sameFreeRegions reports how got differs, worker for worker, from want, or
// nil.
func sameFreeRegions(d int, got, want FreeRegions) error {
	var gbuf, wbuf [2]FreeRegion
	for w := range d {
		if g, f := got.AppendWorker(gbuf[:0], w), want.AppendWorker(wbuf[:0], w); !slices.Equal(g, f) {
			return fmt.Errorf("worker %d: free regions %+v, want %+v", w, g, f)
		}
	}
	return nil
}

// TestFreeRegionsClosedFormAllocFree: the planner reads a closed-form
// free-region table once per candidate, so the read — the table and every
// worker's regions through AppendWorker — allocates nothing, under either of
// Eq. 1's cost models, for N below, at and past D.
func TestFreeRegionsClosedFormAllocFree(t *testing.T) {
	var buf [2]FreeRegion
	for _, cfg := range []ChimeraConfig{{D: 8, N: 1}, {D: 8, N: 5}, {D: 8, N: 8}, {D: 8, N: 67}} {
		for _, cm := range planCosts {
			if allocs := testing.AllocsPerRun(100, func() {
				f, ok, err := cfg.FreeRegions(cm)
				if err != nil || !ok {
					t.Fatalf("%+v %+v: no closed-form free regions (%v)", cfg, cm, err)
				}
				for w := range cfg.D {
					f.AppendWorker(buf[:0], w)
				}
			}); allocs != 0 {
				t.Fatalf("%+v %+v: a closed-form free-region read allocates %.1f times, want 0", cfg, cm, allocs)
			}
		}
	}
}

// FuzzFreeRegionsClosedForm: over fuzzer-chosen even D ≤ 256, N ≤ 8D, F,
// concatenation mode and unit cost model — a forward of 1 to 127 or 1000, a
// backward of two or three forwards — the closed-form free regions are the
// replay's whenever they answer; they answer
// for every direct F = 1 configuration, answer no table outside that scope
// or for any other cost model (p2p latency, a free forward, any other
// backward), and fail exactly when — and as — Chimera does. The committed
// corpus (testdata/fuzz) replays on every go test.
func FuzzFreeRegionsClosedForm(f *testing.F) {
	f.Add(uint8(3), uint16(67), uint8(1), uint8(0), uint8(0))
	f.Add(uint8(7), uint16(40), uint8(2), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, d8 uint8, n16 uint16, f8 uint8, mode uint8, b8 uint8) {
		d := 2 + 2*int(d8%128)
		cfg := ChimeraConfig{D: d, N: 1 + int(n16)%(8*d), F: int(f8 % 5), Concat: ConcatMode(mode % 3)}
		fu := int64(b8 >> 1)
		if fu == 0 {
			fu = 1000
		}
		cm := CostModel{FUnit: fu, BUnit: fu * (2 + int64(b8%2))}
		for _, out := range []CostModel{
			{FUnit: fu, BUnit: cm.BUnit, P2P: 1},
			{FUnit: fu, BUnit: fu},
			{FUnit: fu, BUnit: 4 * fu},
			{FUnit: 2 * fu, BUnit: 4*fu + 1},
			{BUnit: cm.BUnit},
			{},
		} {
			if _, ok, _ := cfg.FreeRegions(out); ok {
				t.Fatalf("%+v: a closed form under %+v", cfg, out)
			}
		}
		got, ok, err := cfg.FreeRegions(cm)
		_, serr := Chimera(cfg)
		if (err == nil) != (serr == nil) || (err != nil && err.Error() != serr.Error()) {
			t.Fatalf("%+v: closed-form error %v, Chimera %v", cfg, err, serr)
		}
		inScope := cfg.F <= 1 && (cfg.N <= cfg.D || cfg.Concat == Direct)
		switch {
		case err != nil:
			if ok {
				t.Fatalf("%+v: a table beside the error %v", cfg, err)
			}
		case ok != inScope:
			t.Fatalf("%+v: closed form answers %v, want %v", cfg, ok, inScope)
		case ok:
			g, err := (&sweepPoint{cfg: cfg}).graph()
			if err != nil {
				t.Fatalf("%+v: %v", cfg, err)
			}
			want, err := replayFree(g, d, cm)
			if err != nil {
				t.Fatalf("%+v %+v: %v", cfg, cm, err)
			}
			if err := sameFreeRegions(d, got, want); err != nil {
				t.Fatalf("%+v %+v: %v", cfg, cm, err)
			}
		}
	})
}
