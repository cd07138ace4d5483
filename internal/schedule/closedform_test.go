package schedule

import (
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
// it share: the schedule Chimera builds and its compiled graph, each built on
// first use and at most once.
type sweepPoint struct {
	cfg ChimeraConfig
	s   *Schedule
	g   *Graph
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

// critical is CriticalPath probed on the point's schedule.
func (p *sweepPoint) critical() (cf, cb int, err error) {
	s, err := p.schedule()
	if err != nil {
		return 0, 0, err
	}
	return CriticalPath(s)
}

// closedForm is one closed form the oracle sweep holds to the mechanism it
// replaces, on its own grid of (D, N), and reports as a subtest of its own.
type closedForm struct {
	name  string
	on    func(d, n int) bool
	check func(p *sweepPoint) error
}

// depthSweep is what the oracle sweep found at one depth, per form: the
// points checked and the first five errors.
type depthSweep struct {
	checked []int
	errs    [][]error
}

// sweepDepth checks every form at each (d, N) of its grid.
func sweepDepth(d int, forms []*closedForm) depthSweep {
	out := depthSweep{checked: make([]int, len(forms)), errs: make([][]error, len(forms))}
	ns := []int{}
	for n := 1; n <= 4*d+1; n++ {
		ns = append(ns, n)
	}
	for _, n := range periodicNs(d) {
		if n > 4*d+1 {
			ns = append(ns, n)
		}
	}
	for _, n := range ns {
		p := &sweepPoint{cfg: ChimeraConfig{D: d, N: n}}
		for i, f := range forms {
			if !f.on(d, n) {
				continue
			}
			out.checked[i]++
			if err := f.check(p); err != nil && len(out.errs[i]) < 5 {
				out.errs[i] = append(out.errs[i], fmt.Errorf("D=%d N=%d: %w", d, n, err))
			}
		}
	}
	return out
}

// upTo reports whether n is at most max or one of the long N periodicNs
// lists for depth d.
func upTo(d, n, max int) bool { return n <= max || slices.Contains(periodicNs(d), n) }

// TestChimeraClosedForms holds every closed form of a fixed-placement,
// direct, F = 1 Chimera configuration to the general mechanism in one pass:
// each (D, N) of the union of their grids is built, compiled and replayed
// once, and every form whose grid holds it is checked against that. The
// depths are shared out over GOMAXPROCS goroutines, deepest first, each
// depth on one of them; the results merge in D order, so every form reports
// the first five errors a sequential sweep would. Each form reports as a
// subtest under the name of the test it replaces:
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
//     D ≤ 32 (16 under -short or -race) and N ≤ 4D + 1.
//   - ComputeMakespan: ChimeraConfig.ComputeMakespan is the makespan of the
//     replay on the whole cone it answers on, proved by checkComputeForm's
//     rays and interior points; every even D ≤ 64 (32 under -short or
//     -race) and N ≤ 4D + 1.
func TestChimeraClosedForms(t *testing.T) {
	resD, critD, freeD, computeD := exhaustiveD(128, 32), exhaustiveD(128, 16), exhaustiveD(32, 16), exhaustiveD(64, 32)
	critOn := func(d, n int) bool { return d <= critD && upTo(d, n, 2*d+1) }
	freeOn := func(d, n int) bool { return d <= freeD && n <= 4*d+1 }
	forms := []*closedForm{
		{name: "TestResidencyPeriodic", on: func(d, n int) bool { return d <= resD && upTo(d, n, 2*d+1) }, check: checkResidencyForm},
		{name: "TestCriticalPathClosedForm", on: critOn, check: checkCriticalForm},
		{name: "TestFreeRegionsClosedForm", on: func(d, n int) bool { return freeOn(d, n) || critOn(d, n) }, check: checkFreeForm},
		{name: "ComputeMakespan", on: func(d, n int) bool { return d <= computeD && n <= 4*d+1 }, check: checkComputeForm},
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
			t.Logf("%d (D, N) pairs checked", checked)
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
	for _, cm := range planCosts {
		got, ok, err := p.cfg.FreeRegions(cm)
		if err != nil || !ok {
			return fmt.Errorf("%+v: no closed-form free regions (%v)", cm, err)
		}
		r, err := p.replay(cm.ReplayConfig())
		if err != nil {
			return err
		}
		err = sameFreeRegions(p.cfg.D, got, r)
		r.Release()
		if err != nil {
			return fmt.Errorf("%+v: %w", cm, err)
		}
	}
	return nil
}

// sameFreeRegions reports how got differs, worker for worker, from the free
// regions r reads (ComputeEnd − GradReady.At per placement), or nil.
func sameFreeRegions(d int, got FreeRegions, r *Readout) error {
	want := r.FreeRegions()
	var gbuf, wbuf [2]FreeRegion
	for w := range d {
		g, f := got.AppendWorker(gbuf[:0], w), want.AppendWorker(wbuf[:0], w)
		if !slices.Equal(g, f) {
			return fmt.Errorf("worker %d: free regions %+v, replay %+v", w, g, f)
		}
		end, ready := r.ComputeEnd(w), r.GradReady(w)
		for i, gr := range ready {
			if f[i] != (FreeRegion{Stage: int32(gr.Stage), Slack: end - gr.At}) {
				return fmt.Errorf("worker %d: replay's table %+v, read-out %+v ending at %d", w, f[i], gr, end)
			}
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

// TestFreeRegionsPeriodic pins what makes the free regions closed-form in
// (D, N mod D, N ≥ D): from one full unit on, adding a unit changes no
// placement's free region. The replays of N and N + D agree, table for
// table, for every even D ≤ 64 (16 under -short or -race), every N from D to
// 3D and both of Eq. 1's cost models.
func TestFreeRegionsPeriodic(t *testing.T) {
	t.Parallel()
	checked := 0
	for d := 2; d <= exhaustiveD(64, 16); d += 2 {
		for _, cm := range planCosts {
			tables := map[int]FreeRegions{}
			for n := d; n <= 4*d; n++ {
				r := mustGraph(t, ChimeraConfig{D: d, N: n}).Readout(cm.ReplayConfig())
				tables[n] = r.FreeRegions()
				r.Release()
				if n-d < d {
					continue
				}
				if !reflect.DeepEqual(tables[n], tables[n-d]) {
					t.Fatalf("D=%d %+v: the free regions at N=%d differ from those at N=%d", d, cm, n, n-d)
				}
				checked++
			}
		}
	}
	t.Logf("%d (D, N, cost) triples equal those one unit shorter", checked)
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
			p := &sweepPoint{cfg: cfg}
			r, err := p.replay(cm.ReplayConfig())
			if err != nil {
				t.Fatalf("%+v: %v", cfg, err)
			}
			defer r.Release()
			if err := sameFreeRegions(d, got, r); err != nil {
				t.Fatalf("%+v %+v: %v", cfg, cm, err)
			}
		}
	})
}
