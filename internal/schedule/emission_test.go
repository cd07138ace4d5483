package schedule

import (
	"reflect"
	"runtime"
	"sort"
	"testing"
	"unsafe"
)

// unitEmissionDirect is the direct-concatenation generator as it was before
// the worker-major enumeration: every basic unit emitted micro-major through
// emitPlainUnit, then each worker's list stably sorted by opLess. Kept as the
// oracle for buildChimeraDirect.
func unitEmissionDirect(t *testing.T, d, n, f int) *Schedule {
	t.Helper()
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
	order := pipelineDealOrder(f)
	for unit, mb := 0, 0; mb < n; unit, mb = unit+1, mb+d {
		s.emitPlainUnit(order, fairShare(min(d, n-mb), 2*f), mb, unit*2*d)
	}
	for _, ops := range s.Workers {
		sort.SliceStable(ops, func(i, j int) bool { return opLess(ops[i], ops[j]) })
	}
	return s
}

// TestChimeraDirectMatchesUnitEmission is the byte-identity gate of the
// in-place emission: for every even D ≤ 32, every N up to 4D + 3 (whole
// units, every partial trailing unit, N < D) and every legal F of 1, 2, 4 —
// plus the longest schedule the planner reaches — Workers and MicroReplica
// equal the unit-by-unit emission's, unexported slots included.
func TestChimeraDirectMatchesUnitEmission(t *testing.T) {
	check := func(d, n, f int) {
		t.Helper()
		got, err := Chimera(ChimeraConfig{D: d, N: n, F: f})
		if err != nil {
			t.Fatalf("D=%d N=%d F=%d: %v", d, n, f, err)
		}
		want := unitEmissionDirect(t, d, n, f)
		if !reflect.DeepEqual(got.Workers, want.Workers) {
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

// TestChimeraBuildWritesOnce: a direct-concatenation build allocates its op
// array once and nothing of that size beside it — no emission buffer, no
// sorted copy — so its bytes stay within 5 % of ops × Sizeof(Op) and its
// allocation count is a constant independent of D and N.
func TestChimeraBuildWritesOnce(t *testing.T) {
	cfg := ChimeraConfig{D: 16, N: 256}
	build := func() {
		if _, err := Chimera(cfg); err != nil {
			t.Fatal(err)
		}
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
	ops := 2 * cfg.N * cfg.D
	if limit := 1.05 * float64(ops) * float64(unsafe.Sizeof(Op{})); perBuild > limit {
		t.Errorf("%+v: %.0f bytes per build, want ≤ 1.05 × %d ops × %d = %.0f", cfg, perBuild, ops, unsafe.Sizeof(Op{}), limit)
	}
}
