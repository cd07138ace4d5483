package schedule

import (
	"math/rand"
	"testing"
)

// stageHeavy is the planner's compute replay in shape: per-stage forward
// costs with a heavier first (embedding) and last (head) stage, backward
// btMult times forward, free edges.
func stageHeavy(d int, btMult int64) ReplayConfig {
	return ReplayConfig{
		OpCost: func(_ int, op Op) int64 {
			c := int64(1000)
			switch op.Stage {
			case 0:
				c = 1310
			case d - 1:
				c = 1740
			}
			if op.Kind == Backward {
				c *= btMult
			}
			return c * int64(len(op.Micros))
		},
		EdgeCost: func(Op) int64 { return 0 },
	}
}

// extendShapes are the cost shapes the planner path replays under: both
// critical-path probes, Eq. 1's unit replay with a p2p edge, and the
// per-stage compute replay at ×2 and ×3 backward.
func extendShapes(d int) map[string]ReplayConfig {
	return map[string]ReplayConfig{
		"probeA":   cpProbeA,
		"probeB":   cpProbeB,
		"unit+p2p": CostModel{FUnit: 1000, BUnit: 2000, P2P: 10}.ReplayConfig(),
		"stage×2":  stageHeavy(d, 2),
		"stage×3":  stageHeavy(d, 3),
	}
}

// exhaustiveD bounds the depth sweep of the steady-state replay's
// exhaustive suites: the full range on a plain run, the short one under
// -short and under the race detector, which has nothing to find in these
// single-goroutine loops and runs them ten times slower (make race-sweep
// repeats the package five times).
func exhaustiveD(full, short int) int {
	if testing.Short() || raceEnabled {
		return short
	}
	return full
}

// mustGraph builds and compiles a Chimera schedule.
func mustGraph(tb testing.TB, cfg ChimeraConfig) *Graph {
	tb.Helper()
	s, err := Chimera(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// sameReadout reports the first read-out on which got differs from want:
// makespan, every compute-end, every grad-ready entry, bubble ratio.
func sameReadout(tb testing.TB, name string, got, want *Readout) {
	tb.Helper()
	if got.Makespan() != want.Makespan() {
		tb.Fatalf("%s: makespan %d, full replay %d", name, got.Makespan(), want.Makespan())
	}
	for w := 0; w < want.g.s.D; w++ {
		if g, f := got.ComputeEnd(w), want.ComputeEnd(w); g != f {
			tb.Fatalf("%s: worker %d compute-end %d, full replay %d", name, w, g, f)
		}
		g, f := got.GradReady(w), want.GradReady(w)
		if len(g) != len(f) {
			tb.Fatalf("%s: worker %d has %d grad-ready entries, full replay %d", name, w, len(g), len(f))
		}
		for i := range f {
			if g[i] != f[i] {
				tb.Fatalf("%s: worker %d grad-ready %+v, full replay %+v", name, w, g[i], f[i])
			}
		}
	}
	if g, f := got.BubbleRatio(), want.BubbleRatio(); g != f {
		tb.Fatalf("%s: bubble ratio %v, full replay %v", name, g, f)
	}
}

// TestReplayPeriodic is the replay sibling of the closed-form residency
// sweep (TestChimeraClosedForms/TestResidencyPeriodic): for
// every even D ≤ 128 and every N ≥ 3D of periodicNs, under every cost shape
// the planner replays, the short schedule's read-out passes Extend's check
// and, extended, equals the full schedule's on every read-out. A refusal is
// a failure here: these are the homogeneous cases the planner relies on, and
// a check that always fell back would hide a regression.
func TestReplayPeriodic(t *testing.T) {
	t.Parallel()
	checked := 0
	for d := 2; d <= exhaustiveD(128, 32); d += 2 {
		shapes := extendShapes(d)
		short := map[int]*Graph{} // one short graph per residue
		for _, n := range periodicNs(d) {
			if n < 3*d {
				continue
			}
			cfg := ChimeraConfig{D: d, N: n}
			eq, units := cfg.ReplayEquivalent()
			if units != n/d-2 || eq.N != 2*d+n%d || eq.D != d {
				t.Fatalf("D=%d N=%d: equivalent %+v × %d units is not two units plus the same residue", d, n, eq, units)
			}
			if short[eq.N] == nil {
				short[eq.N] = mustGraph(t, eq)
			}
			full := mustGraph(t, cfg)
			for name, rc := range shapes {
				got, want := short[eq.N].Readout(rc), full.Readout(rc)
				if !got.Extend(units) {
					t.Fatalf("D=%d N=%d %s: the short replay's period check refused", d, n, name)
				}
				sameReadout(t, name, got, want)
				got.Release()
				want.Release()
				checked++
			}
		}
	}
	t.Logf("%d extended read-outs equal the full replay", checked)
}

// TestReplayEquivalentScope: what the steady-state argument does not cover
// maps to itself, and Extend refuses a read-out that is not the short side
// of the equivalence.
func TestReplayEquivalentScope(t *testing.T) {
	for _, cfg := range []ChimeraConfig{
		{D: 8, N: 8}, {D: 8, N: 23}, // N < 3D: no steady-state unit to leave out
		{D: 8, N: 64, F: 2},
		{D: 8, N: 64, Concat: ForwardDoubling},
		{D: 8, N: 64, Concat: BackwardHalving},
	} {
		if eq, units := cfg.ReplayEquivalent(); eq != cfg || units != 0 {
			t.Errorf("%+v shortened to %+v × %d", cfg, eq, units)
		}
	}
	if eq, units := (ChimeraConfig{D: 8, N: 67}).ReplayEquivalent(); eq.N != 19 || units != 6 {
		t.Errorf("D=8 N=67: got N′=%d × %d units, want 19 × 6", eq.N, units)
	}
	rc := UnitPractical.ReplayConfig()
	for name, s := range map[string]func() (*Schedule, error){
		"one unit":    func() (*Schedule, error) { return Chimera(ChimeraConfig{D: 8, N: 8}) },
		"three units": func() (*Schedule, error) { return Chimera(ChimeraConfig{D: 8, N: 24}) },
		"F=2":         func() (*Schedule, error) { return Chimera(ChimeraConfig{D: 8, N: 16, F: 2}) },
		"halving":     func() (*Schedule, error) { return Chimera(ChimeraConfig{D: 8, N: 16, Concat: BackwardHalving}) },
		"gpipe":       func() (*Schedule, error) { return ByName("gpipe", 8, 16) },
		"heft": func() (*Schedule, error) {
			return Build(Spec{Scheme: "chimera", Scheduler: "heft", D: 8, N: 16, SpeedFactors: speedProfiles(8)["graded"]})
		},
	} {
		sch, err := s()
		if err != nil {
			t.Fatal(err)
		}
		r, err := sch.Readout(rc)
		if err != nil {
			t.Fatal(err)
		}
		if r.Extend(3) {
			t.Errorf("%s: Extend accepted a schedule outside its scope", name)
		}
		r.Release()
	}
	g := mustGraph(t, ChimeraConfig{D: 8, N: 16})
	r := g.Readout(rc)
	if r.Extend(0) || !r.Extend(2) || r.Extend(2) {
		t.Error("Extend must refuse zero units, accept once, and refuse a second extension")
	}
	r.Release()
}

// TestExtendedReadoutTimelinePanics: an extended read-out holds the short
// schedule's finish times, so it has no per-op timeline to hand out, and
// asking for one panics rather than presenting the short schedule's ops.
func TestExtendedReadoutTimelinePanics(t *testing.T) {
	r := mustGraph(t, ChimeraConfig{D: 8, N: 16}).Readout(UnitPractical.ReplayConfig())
	if !r.Extend(2) {
		t.Fatal("the short replay's period check refused")
	}
	defer func() {
		if recover() == nil {
			t.Error("an extended read-out was presented as a timeline")
		}
	}()
	r.Timeline()
}

// TestExtendChecksWholeWindow tampers with a settled replay's finish array:
// the check is integer equality against one λ — worker 0's — at every index
// of the window on every worker, so a worker periodic with a λ of its own,
// or a single finish time off by one at either end of the window, is refused.
func TestExtendChecksWholeWindow(t *testing.T) {
	const d = 8
	g, rc := mustGraph(t, ChimeraConfig{D: d, N: 2*d + 3}), UnitPractical.ReplayConfig()
	for name, tamper := range map[string]func(end []int64){
		"untouched": nil,
		"a worker with a period of its own": func(end []int64) {
			for id := g.base[3] + 2*d; id < g.base[4]; id++ {
				end[id] += 5
			}
		},
		"first index, early side":   func(end []int64) { end[g.base[5]+d]++ },
		"first index, late side":    func(end []int64) { end[g.base[5]+3*d]-- },
		"last index, early side":    func(end []int64) { end[g.base[d-1]+d+d/2]++ },
		"last index, late side":     func(end []int64) { end[g.base[d-1]+3*d+d/2]-- },
		"worker 0, where λ is read": func(end []int64) { end[3*d] += 2 },
	} {
		r := g.Readout(rc)
		if tamper != nil {
			tamper(r.end)
		}
		if got := r.Extend(3); got != (tamper == nil) {
			t.Errorf("%s: Extend reported %v", name, got)
		}
		r.Release()
	}
}

// sameNode reports whether node a of ga and node b of gb agree in shape and
// in every predecessor slot (same order, same worker, same cross flag, unused
// in both or in neither), each predecessor's program index shifted by as
// much as the node's own.
func sameNode(ga *Graph, a int32, gb *Graph, b int32) bool {
	sa, sb := ga.shapes[ga.shape[a]], gb.shapes[gb.shape[b]]
	if sa.worker != sb.worker || sa.op.Kind != sb.op.Kind || sa.op.Stage != sb.op.Stage ||
		sa.op.Replica != sb.op.Replica || len(sa.op.Micros) != len(sb.op.Micros) || sa.op.Half != sb.op.Half {
		return false
	}
	ra, rb := ga.row(a), gb.row(b)
	if len(ra) != len(rb) {
		return false
	}
	shift := (b - gb.base[sb.worker]) - (a - ga.base[sa.worker])
	for k := range ra {
		pa, ca := unpack(ra[k])
		pb, cb := unpack(rb[k])
		if unusedA, unusedB := pa == int32(ga.Nodes()), pb == int32(gb.Nodes()); unusedA || unusedB {
			if unusedA != unusedB {
				return false
			}
			continue
		}
		wa, _ := ga.at(pa)
		wb, _ := gb.at(pb)
		if wa != wb || ca != cb || (pb-gb.base[wb])-(pa-ga.base[wa]) != shift {
			return false
		}
	}
	return true
}

// TestChimeraDirectLockstep pins, on the compiled predecessor rows, the
// structure the steady-state replay rests on (DESIGN.md §3), for every even
// D ≤ 64, 3–7 units and partial last units:
//
//	S1  every edge joins ops at most one program index apart — the producer
//	    sits at index i−1 or i of its worker, never later — so the i-th ops
//	    of all workers are a function of the (i−1)-th alone;
//	S2  op i+2D repeats op i, predecessors shifted by 2D, outside a head of
//	    D/2 indices and a tail of D/2−1 indices plus the partial unit;
//
// and that the short schedule Extend reads is the long one's head and tail:
// identical up to index 7D/2, and from there on identical to the long
// schedule's last ops, shifted by the units left out — grad-ready nodes
// included.
func TestChimeraDirectLockstep(t *testing.T) {
	t.Parallel()
	for d := 2; d <= exhaustiveD(64, 16); d += 2 {
		for _, r := range []int{0, 1, d / 2, d - 1} {
			short := mustGraph(t, ChimeraConfig{D: d, N: 2*d + r})
			for units := 3; units <= 7; units++ {
				n := units*d + r
				g := mustGraph(t, ChimeraConfig{D: d, N: n})
				period, skipped := int32(2*d), int32(2*d*(units-2))
				for w := 0; w < d; w++ {
					lo, hi := g.base[w], g.base[w+1]
					for id := lo; id < hi; id++ {
						i := id - lo
						for _, p := range g.row(id) {
							if p, _ = unpack(p); p == int32(g.Nodes()) {
								continue
							}
							pw, _ := g.at(p)
							if j := p - g.base[pw]; j != i && j != i-1 {
								t.Fatalf("D=%d N=%d worker %d: op %d waits on op %d of worker %d", d, n, w, i, j, pw)
							}
						}
						regular := i >= period+int32(d/2) && i <= int32(2*d*units-d/2)
						if regular && !sameNode(g, id-period, g, id) {
							t.Fatalf("D=%d N=%d worker %d: op %d does not repeat op %d", d, n, w, i, i-period)
						}
					}
					slo, shi := short.base[w], short.base[w+1]
					for sid := slo; sid < shi; sid++ {
						id := lo + (sid - slo)
						if sid-slo > int32(7*d/2) {
							id += skipped
						}
						if !sameNode(short, sid, g, id) {
							t.Fatalf("D=%d N=%d worker %d: short op %d is not long op %d", d, n, w, sid-slo, id-lo)
						}
					}
				}
				if len(short.grad) != len(g.grad) {
					t.Fatalf("D=%d N=%d: %d grad-ready nodes, short schedule %d", d, n, len(g.grad), len(short.grad))
				}
				for k, gn := range g.grad {
					sn := short.grad[k]
					w, _ := g.at(gn.node)
					if sn.StagePlacement != gn.StagePlacement || gn.node-g.base[w] != sn.node-short.base[w]+skipped {
						t.Fatalf("D=%d N=%d: grad-ready node %d (%+v) is not the short schedule's shifted", d, n, k, gn.StagePlacement)
					}
				}
			}
		}
	}
}

// fuzzCosts draws a cost model pure in (worker, op shape) from seed: per
// (kind, stage, replica) op costs and per (kind, stage) edge costs, a share
// of them zero, and per-worker integer factors when hetero is set.
func fuzzCosts(d int, seed int64, hetero bool) ReplayConfig {
	rng := rand.New(rand.NewSource(seed))
	draw := func(n int, limit int64) []int64 {
		out := make([]int64, n)
		zeroShare := rng.Intn(4) // 0: none … 3: most
		for i := range out {
			if rng.Intn(4) >= zeroShare {
				out[i] = rng.Int63n(limit)
			}
		}
		return out
	}
	op, edge := draw(4*d, 5000), draw(2*d, 300)
	factor := make([]int64, d)
	for w := range factor {
		factor[w] = 1
		if hetero {
			factor[w] += rng.Int63n(3)
		}
	}
	return ReplayConfig{
		OpCost: func(w int, o Op) int64 {
			return factor[w] * op[(int(o.Kind)*2+o.Replica)*d+o.Stage] * int64(len(o.Micros))
		},
		EdgeCost: func(o Op) int64 { return edge[int(o.Kind)*d+o.Stage] },
	}
}

// FuzzReplayExtend: over fuzzer-chosen (D, N) and random per-shape op and
// edge costs — zero costs and per-worker factors included — Extend may
// refuse, but whenever it accepts, the extended read-out is the full
// replay's. The committed corpus (testdata/fuzz) replays on every go test.
func FuzzReplayExtend(f *testing.F) {
	f.Add(uint8(1), uint16(0), int64(1), false)
	f.Add(uint8(3), uint16(43), int64(2), false)
	f.Add(uint8(0), uint16(7), int64(3), true)
	f.Add(uint8(7), uint16(52), int64(4), true)
	f.Fuzz(func(t *testing.T, d8 uint8, n16 uint16, seed int64, hetero bool) {
		d := 2 + 2*int(d8%16)       // even, ≤ 32
		n := 3*d + int(n16)%(5*d+1) // three to eight units
		cfg := ChimeraConfig{D: d, N: n}
		eq, units := cfg.ReplayEquivalent()
		rc := fuzzCosts(d, seed, hetero)
		got := mustGraph(t, eq).Readout(rc)
		defer got.Release()
		if !got.Extend(units) {
			return
		}
		want := mustGraph(t, cfg).Readout(rc)
		defer want.Release()
		sameReadout(t, "extended", got, want)
	})
}
