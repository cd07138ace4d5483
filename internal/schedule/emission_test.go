package schedule

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// emitPair appends the forward+backward pair of micro-batch mb of replica r,
// the m-th of its pipeline within the unit at unitOffset, to every worker
// the replica crosses (micro-major emission: the oracles sort it later).
func (s *Schedule) emitPair(r, mb, m, unitOffset int) {
	d := s.D
	rm := s.Replicas[r]
	micros := microRun(mb, 1)
	for st := 0; st < d; st++ {
		w := rm.WorkerOf[st]
		fSlot, bSlot := pairSlots(d, st, m, unitOffset)
		s.Workers[w] = append(s.Workers[w],
			Op{Kind: Forward, Stage: st, Replica: r, Micros: micros, prio: fSlot},
			Op{Kind: Backward, Stage: st, Replica: r, Micros: micros, prio: bSlot})
	}
	s.MicroReplica[mb] = r
}

// emitPlainUnit deals inUnit ≤ D consecutive micro-batches starting at mb to
// the 2f pipelines — pipeline p = down0, up0, down1, up1, ... gets its
// ceil-fair share, locally 1F1B ordered — as one basic unit at unitOffset.
func (s *Schedule) emitPlainUnit(order, counts []int, mb, unitOffset int) {
	for pi, rep := range order {
		for m := 0; m < counts[pi]; m++ {
			s.emitPair(rep, mb, m, unitOffset)
			mb++
		}
	}
}

// pipelineDealOrder lists dealReplica over the 2f pipelines.
func pipelineDealOrder(f int) []int {
	out := make([]int, 2*f)
	for pi := range out {
		out[pi] = dealReplica(f, pi)
	}
	return out
}

// fairShare lists dealt's counts over all k pipelines.
func fairShare(n, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i], _ = dealt(n, k, i)
	}
	return out
}

// emissionHeader is a Chimera schedule with its replicas and no ops.
func emissionHeader(d, n, f int) *Schedule {
	s := &Schedule{
		Scheme: "chimera", D: d, N: n, F: f,
		Workers:      make([][]Op, d),
		Synchronous:  true,
		MicroReplica: make([]int, n),
	}
	for i := 0; i < f; i++ {
		s.Replicas = append(s.Replicas, downMap(d, f, i))
	}
	for i := 0; i < f; i++ {
		s.Replicas = append(s.Replicas, upMap(d, f, i))
	}
	return s
}

// opCmp is opLess as a three-way comparison, for slices.SortStableFunc.
func opCmp(a, b Op) int {
	switch {
	case opLess(a, b):
		return -1
	case opLess(b, a):
		return 1
	}
	return 0
}

// sortEmission stably sorts every worker's micro-major emission by opLess.
func sortEmission(s *Schedule) *Schedule {
	for _, ops := range s.Workers {
		slices.SortStableFunc(ops, opCmp)
	}
	return s
}

// sameWorkers is reflect.DeepEqual on two schedules' Workers, without
// reflection: every field of every op compared, prio included.
func sameWorkers(a, b [][]Op) bool {
	return deepSlices(a, b, func(x, y []Op) bool { return deepSlices(x, y, sameOp) })
}

func sameOp(x, y Op) bool {
	return x.Kind == y.Kind && x.Half == y.Half && x.prio == y.prio && x.Stage == y.Stage && x.Replica == y.Replica &&
		deepSlices(x.Micros, y.Micros, func(i, j int) bool { return i == j })
}

// deepSlices is reflect.DeepEqual on two slices whose elements eq compares:
// nil in both or in neither, of one length, and equal element by element.
func deepSlices[T any](a, b []T, eq func(T, T) bool) bool {
	return (a == nil) == (b == nil) && slices.EqualFunc(a, b, eq)
}

// TestSameWorkersIsDeepEqual holds sameWorkers to reflect.DeepEqual, both
// ways round, on equal pairs and on pairs that differ in one place each. Op
// gaining a field fails it until sameOp compares that field too.
func TestSameWorkersIsDeepEqual(t *testing.T) {
	if n := reflect.TypeFor[Op]().NumField(); n != 6 {
		t.Fatalf("Op has %d fields; sameOp compares 6", n)
	}
	op := Op{Kind: Backward, Half: 1, prio: 7, Stage: 2, Replica: 1, Micros: []int{3}}
	with := func(edit func(*Op)) [][]Op {
		o := op
		o.Micros = slices.Clone(op.Micros)
		edit(&o)
		return [][]Op{{op}, {o}}
	}
	same := with(func(*Op) {})
	for _, c := range []struct {
		name string
		a, b [][]Op
	}{
		{"equal", same, with(func(*Op) {})},
		{"no workers", nil, nil},
		{"nil and empty worker lists", nil, [][]Op{}},
		{"nil and empty op lists", [][]Op{nil}, [][]Op{{}}},
		{"one worker more", same, append(with(func(*Op) {}), nil)},
		{"one op more", same, [][]Op{{op}, {op, op}}},
		{"nil and empty Micros", with(func(o *Op) { o.Micros = nil }), with(func(o *Op) { o.Micros = []int{} })},
		{"one micro more", same, with(func(o *Op) { o.Micros = append(o.Micros, 4) })},
		{"micro id", same, with(func(o *Op) { o.Micros[0] = 4 })},
		{"Kind", same, with(func(o *Op) { o.Kind = Forward })},
		{"Half", same, with(func(o *Op) { o.Half = 2 })},
		{"prio", same, with(func(o *Op) { o.prio++ })},
		{"Stage", same, with(func(o *Op) { o.Stage++ })},
		{"Replica", same, with(func(o *Op) { o.Replica = 0 })},
	} {
		want := reflect.DeepEqual(c.a, c.b)
		if got, back := sameWorkers(c.a, c.b), sameWorkers(c.b, c.a); got != want || back != want {
			t.Errorf("%s: sameWorkers %v and %v reversed, reflect.DeepEqual %v", c.name, got, back, want)
		}
	}
}

// unitEmissionDirect is the direct-concatenation generator as it was before
// the worker-major enumeration: every basic unit emitted micro-major through
// emitPlainUnit, then each worker's list stably sorted by opLess. Kept as the
// oracle for directWorkerOps.
func unitEmissionDirect(t *testing.T, d, n, f int) *Schedule {
	t.Helper()
	s := emissionHeader(d, n, f)
	order := pipelineDealOrder(f)
	for unit, mb := 0, 0; mb < n; unit, mb = unit+1, mb+d {
		s.emitPlainUnit(order, fairShare(min(d, n-mb), 2*f), mb, unit*2*d)
	}
	return sortEmission(s)
}

// unitEmissionDoubling is the forward-doubling / backward-halving generator
// as it was before the worker-major enumeration: each 1F2B unit emitted
// micro-major (up pipelines shifted by upPhase), the odd residual unit of
// doubling through emitPlainUnit, then each worker's list stably sorted by
// opLess. Kept as the oracle for doublingWorkerOps.
func unitEmissionDoubling(t *testing.T, cfg ChimeraConfig, upPhase int) *Schedule {
	t.Helper()
	d, n, f := cfg.D, cfg.N, cfg.F
	s := emissionHeader(d, n, f)
	s.DoubledForward = true
	s.HalvedBackward = cfg.Concat == BackwardHalving
	oneF2BUnit := func(mbBase, offset int, halving bool) {
		order := pipelineDealOrder(f)
		slotsPerPipe := d / (2 * f)
		local := 0
		for _, rep := range order {
			rm := s.Replicas[rep]
			phase := 0
			if !rm.Down {
				phase = upPhase
			}
			for j := 0; j < slotsPerPipe; j++ {
				fSlot := offset + phase + 3*j
				b0Slot := offset + phase + 3*j + 2*d - 1
				b1Slot := b0Slot + 1
				if halving {
					m := mbBase + local
					local++
					s.MicroReplica[m] = rep
					for st := 0; st < d; st++ {
						w := rm.WorkerOf[st]
						s.Workers[w] = append(s.Workers[w],
							Op{Kind: Forward, Stage: st, Replica: rep, Micros: microRun(m, 1), prio: int32(fSlot + st)},
							Op{Kind: Backward, Stage: st, Replica: rep, Micros: microRun(m, 1), Half: 1, prio: int32(b0Slot - st)},
							Op{Kind: Backward, Stage: st, Replica: rep, Micros: microRun(m, 1), Half: 2, prio: int32(b1Slot - st)})
					}
				} else {
					m0, m1 := mbBase+local, mbBase+local+1
					local += 2
					s.MicroReplica[m0], s.MicroReplica[m1] = rep, rep
					for st := 0; st < d; st++ {
						w := rm.WorkerOf[st]
						s.Workers[w] = append(s.Workers[w],
							Op{Kind: Forward, Stage: st, Replica: rep, Micros: microRun(m0, 2), prio: int32(fSlot + st)},
							Op{Kind: Backward, Stage: st, Replica: rep, Micros: microRun(m0, 1), prio: int32(b0Slot - st)},
							Op{Kind: Backward, Stage: st, Replica: rep, Micros: microRun(m1, 1), prio: int32(b1Slot - st)})
					}
				}
			}
		}
	}
	halving := cfg.Concat == BackwardHalving
	mb, offset := 0, 0
	if halving {
		for mb < n {
			oneF2BUnit(mb, offset, true)
			mb += d
			// Busy slots per worker per unit: D forwards + 2D half-backwards.
			offset += 3 * d
		}
		return sortEmission(s)
	}
	k := n / d
	for k >= 2 {
		oneF2BUnit(mb, offset, false)
		mb += 2 * d
		offset += 3 * d
		k -= 2
	}
	if k == 1 {
		// Odd residual: one plain bidirectional unit of D micro-batches.
		s.emitPlainUnit(pipelineDealOrder(f), fairShare(d, 2*f), mb, offset)
	}
	return sortEmission(s)
}

// TestChimeraDoublingMatchesUnitEmission is the byte-identity gate of the
// worker-major doubling/halving enumeration: for every even D ≤ 32 (a
// quarter of that under -short or -race), every legal F of 1, 2, 4, 8,
// N/D from 2 to 9 (odd counts give doubling its residual plain unit), both
// modes and up-pipeline phases 0–4, Workers and MicroReplica equal the
// unit-by-unit emission's, unexported slots included.
func TestChimeraDoublingMatchesUnitEmission(t *testing.T) {
	t.Parallel()
	checked := 0
	for d := 2; d <= exhaustiveD(32, 8); d += 2 {
		for _, f := range []int{1, 2, 4, 8} {
			if (d/2)%f != 0 {
				continue
			}
			for k := 2; k <= 9; k++ {
				for _, mode := range []ConcatMode{ForwardDoubling, BackwardHalving} {
					for phase := 0; phase <= 4; phase++ {
						cfg := ChimeraConfig{D: d, N: k * d, F: f, Concat: mode}
						got, err := chimera(cfg, phase)
						if err != nil {
							t.Fatalf("%+v phase %d: %v", cfg, phase, err)
						}
						want := unitEmissionDoubling(t, cfg, phase)
						if !sameWorkers(got.Workers, want.Workers) {
							t.Fatalf("%+v phase %d: Workers differ from the unit-by-unit emission", cfg, phase)
						}
						if !reflect.DeepEqual(got.MicroReplica, want.MicroReplica) {
							t.Fatalf("%+v phase %d: MicroReplica %v, unit-by-unit emission %v", cfg, phase, got.MicroReplica, want.MicroReplica)
						}
						if got.DoubledForward != want.DoubledForward || got.HalvedBackward != want.HalvedBackward {
							t.Fatalf("%+v phase %d: variant flags differ", cfg, phase)
						}
						checked++
					}
				}
			}
		}
	}
	t.Logf("%d doubling/halving schedules equal their unit-by-unit emission", checked)
}

// TestChimeraDirectMatchesUnitEmission is the byte-identity gate of the
// in-place emission: for every even D ≤ 32, every N up to 4D + 3 (whole
// units, every partial trailing unit, N < D) and every legal F of 1, 2, 4 —
// plus the longest schedule the planner reaches — Workers and MicroReplica
// equal the unit-by-unit emission's, unexported slots included.
func TestChimeraDirectMatchesUnitEmission(t *testing.T) {
	t.Parallel()
	check := func(d, n, f int) {
		t.Helper()
		got, err := Chimera(ChimeraConfig{D: d, N: n, F: f})
		if err != nil {
			t.Fatalf("D=%d N=%d F=%d: %v", d, n, f, err)
		}
		want := unitEmissionDirect(t, d, n, f)
		if !sameWorkers(got.Workers, want.Workers) {
			t.Fatalf("D=%d N=%d F=%d: Workers differ from the unit-by-unit emission", d, n, f)
		}
		if !reflect.DeepEqual(got.MicroReplica, want.MicroReplica) {
			t.Fatalf("D=%d N=%d F=%d: MicroReplica %v, unit-by-unit emission %v", d, n, f, got.MicroReplica, want.MicroReplica)
		}
		if !reflect.DeepEqual(got.Replicas, want.Replicas) {
			t.Fatalf("D=%d N=%d F=%d: Replicas differ", d, n, f)
		}
	}
	checked := 0
	for d := 2; d <= 32; d += 2 {
		for _, f := range []int{1, 2, 4} {
			if (d/2)%f != 0 {
				continue
			}
			for n := 1; n <= 4*d+3; n++ {
				check(d, n, f)
				checked++
			}
		}
	}
	check(128, 1024, 1)
	t.Logf("%d (D, N, F) schedules equal their unit-by-unit emission", checked+1)
}

// TestOpSize makes re-bloating Op a decision: a schedule is one array of
// them, built per cold plan and retained per memoized one.
func TestOpSize(t *testing.T) {
	if size := unsafe.Sizeof(Op{}); size > 48 {
		t.Fatalf("Op is %d bytes, want ≤ 48 (Kind, Half and prio share the first word)", size)
	}
}

// TestChimeraBuildWritesOnce: a Chimera build — direct, forward doubling
// with its odd residual unit, backward halving — allocates its op array once
// and nothing of that size beside it — no emission buffer, no sorted copy —
// so its bytes stay within 5 % of ops × Sizeof(Op) and its allocation count
// is a constant independent of D and N.
func TestChimeraBuildWritesOnce(t *testing.T) {
	for _, cfg := range []ChimeraConfig{
		{D: 16, N: 256},
		{D: 16, N: 240, Concat: ForwardDoubling},
		{D: 16, N: 256, Concat: BackwardHalving},
	} {
		var ops int
		build := func() {
			s, err := Chimera(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ops = s.OpsTotal()
		}
		build() // grow the shared micro-batch identity table outside the measurement
		if allocs := testing.AllocsPerRun(10, build); allocs > 12 {
			t.Errorf("%+v: %.0f allocations per build, want ≤ 12", cfg, allocs)
		}
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			build()
		}
		runtime.ReadMemStats(&after)
		perBuild := float64(after.TotalAlloc-before.TotalAlloc) / runs
		if limit := 1.05 * float64(ops) * float64(unsafe.Sizeof(Op{})); perBuild > limit {
			t.Errorf("%+v: %.0f bytes per build, want ≤ 1.05 × %d ops × %d = %.0f", cfg, perBuild, ops, unsafe.Sizeof(Op{}), limit)
		}
	}
}

// TestSettleTiesKeepsTakeOrderOnTies pins the one case no generator
// produces: ops opLess cannot tell apart stay in the order their slot handed
// them indices, as under a stable sort, while ops the tiebreak does order
// (a forward before a backward of the same slot) are settled by it.
func TestSettleTiesKeepsTakeOrderOnTies(t *testing.T) {
	m := microRun(0, 1)
	ops := []Op{
		{Kind: Backward, Stage: 1, Micros: m, prio: 5},
		{Kind: Forward, Stage: 7, Micros: m, prio: 3},
		{Kind: Forward, Stage: 8, Micros: m, prio: 3},
		{Kind: Forward, Stage: 2, Micros: m, prio: 5},
		{Kind: Forward, Stage: 9, Micros: m, prio: 3},
		{Kind: Forward, Stage: 0, Micros: m, prio: 0},
	}
	want := append([]Op(nil), ops...)
	slices.SortStableFunc(want, opCmp)
	var slots slotTable
	slots.reset(0, 5)
	for _, op := range ops {
		slots.put(nil, op.Kind, op.Half, op.prio, op.Stage, op.Replica, op.Micros)
	}
	if !slots.prefix() {
		t.Fatal("prefix reports no shared slot")
	}
	got := make([]Op, len(ops))
	for _, op := range ops {
		slots.put(got, op.Kind, op.Half, op.prio, op.Stage, op.Replica, op.Micros)
	}
	settleTies(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}
