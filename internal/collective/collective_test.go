package collective

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"chimera/internal/comm"
)

// runGroup executes fn concurrently on every member of a fresh world.
func runGroup(t *testing.T, size int, fn func(c *comm.Communicator, g Group)) {
	t.Helper()
	w := comm.NewWorld(size)
	ranks := make([]int, size)
	for i := range ranks {
		ranks[i] = i
	}
	g := NewGroup(ranks...)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fn(w.Rank(r), g)
		}(r)
	}
	wg.Wait()
}

func checkAllReduce(t *testing.T, size, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(size*1000 + n)))
	inputs := make([][]float32, size)
	want := make([]float32, n)
	for r := range inputs {
		inputs[r] = make([]float32, n)
		for i := range inputs[r] {
			inputs[r][i] = float32(rng.Intn(1000)) // integers: exact fp sums
			want[i] += inputs[r][i]
		}
	}
	results := make([][]float32, size)
	runGroup(t, size, func(c *comm.Communicator, g Group) {
		buf := make([]float32, n)
		copy(buf, inputs[c.Rank()])
		AllReduce(c, g, 3, buf)
		results[c.Rank()] = buf
	})
	for r := 0; r < size; r++ {
		for i := 0; i < n; i++ {
			if results[r][i] != want[i] {
				t.Fatalf("size=%d n=%d rank=%d idx=%d: got %v want %v",
					size, n, r, i, results[r][i], want[i])
			}
		}
	}
}

func TestAllReduceAlgorithms(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 5, 8} {
		for _, n := range []int{1, 7, 16, 333} {
			checkAllReduce(t, size, n)
		}
	}
}

func TestAllReducePropertySumPreserved(t *testing.T) {
	// Property: for random vectors, every rank ends with the elementwise sum.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 2 + rng.Intn(7)
		n := 1 + rng.Intn(100)
		inputs := make([][]float32, size)
		want := make([]float32, n)
		for r := range inputs {
			inputs[r] = make([]float32, n)
			for i := range inputs[r] {
				inputs[r][i] = float32(rng.Intn(64) - 32)
				want[i] += inputs[r][i]
			}
		}
		results := make([][]float32, size)
		runGroup(t, size, func(c *comm.Communicator, g Group) {
			buf := append([]float32(nil), inputs[c.Rank()]...)
			AllReduce(c, g, 0, buf)
			results[c.Rank()] = buf
		})
		for r := 0; r < size; r++ {
			for i := 0; i < n; i++ {
				if results[r][i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSubgroup(t *testing.T) {
	// Only ranks {1,3} of a 4-rank world participate; others stay silent.
	w := comm.NewWorld(4)
	g := NewGroup(1, 3)
	var wg sync.WaitGroup
	results := make([][]float32, 4)
	for _, r := range []int{1, 3} {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := []float32{float32(r), float32(r * 10)}
			AllReduce(w.Rank(r), g, 0, buf)
			results[r] = buf
		}(r)
	}
	wg.Wait()
	for _, r := range []int{1, 3} {
		if results[r][0] != 4 || results[r][1] != 40 {
			t.Fatalf("rank %d got %v", r, results[r])
		}
	}
}

func TestConcurrentAllReducesDistinctTags(t *testing.T) {
	// Two allreduces with different opTags interleaved on the same group must
	// not cross-contaminate.
	const size = 4
	w := comm.NewWorld(size)
	ranks := []int{0, 1, 2, 3}
	g := NewGroup(ranks...)
	var wg sync.WaitGroup
	resA := make([][]float32, size)
	resB := make([][]float32, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Rank(r)
			a := []float32{1}
			b := []float32{10}
			AllReduce(c, g, 1, a)
			AllReduce(c, g, 2, b)
			resA[r], resB[r] = a, b
		}(r)
	}
	wg.Wait()
	for r := 0; r < size; r++ {
		if resA[r][0] != 4 {
			t.Fatalf("rank %d opA got %v want 4", r, resA[r][0])
		}
		if resB[r][0] != 40 {
			t.Fatalf("rank %d opB got %v want 40", r, resB[r][0])
		}
	}
}

func TestIAllReduceOverlap(t *testing.T) {
	runGroup(t, 4, func(c *comm.Communicator, g Group) {
		buf := []float32{1, 2, 3, 4}
		h := IAllReduce(c, g, 5, buf)
		h.Wait()
		for i, v := range buf {
			if v != float32(4*(i+1)) {
				t.Errorf("rank %d idx %d: got %v", c.Rank(), i, v)
			}
		}
	})
}

func TestAllGather(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5, 8} {
		results := make([][]float32, size)
		runGroup(t, size, func(c *comm.Communicator, g Group) {
			me := g.Index(c.Rank())
			contrib := []float32{float32(me), float32(me * 2)}
			out := make([]float32, size*2)
			AllGather(c, g, 0, contrib, out)
			results[c.Rank()] = out
		})
		for r := 0; r < size; r++ {
			for m := 0; m < size; m++ {
				if results[r][2*m] != float32(m) || results[r][2*m+1] != float32(2*m) {
					t.Fatalf("size=%d rank=%d: got %v", size, r, results[r])
				}
			}
		}
	}
}

func TestGroupIndex(t *testing.T) {
	g := NewGroup(4, 2, 9)
	if g.Size() != 3 {
		t.Fatalf("size %d", g.Size())
	}
	if g.Index(2) != 1 || g.Index(9) != 2 || g.Index(5) != -1 {
		t.Fatalf("index lookup broken: %d %d %d", g.Index(2), g.Index(9), g.Index(5))
	}
}

func TestSplitChunksCoverExactly(t *testing.T) {
	f := func(n, parts uint8) bool {
		np := int(parts%16) + 1
		nn := int(n)
		chunks := splitChunks(nn, np)
		if len(chunks) != np {
			return false
		}
		prev := 0
		for _, ch := range chunks {
			if ch.lo != prev || ch.hi < ch.lo {
				return false
			}
			prev = ch.hi
		}
		return prev == nn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
