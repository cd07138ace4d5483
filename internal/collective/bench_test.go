package collective

import (
	"sync"
	"testing"

	"chimera/internal/comm"
)

func benchAllReduce(b *testing.B, size, n int) {
	b.Helper()
	ranks := make([]int, size)
	for i := range ranks {
		ranks[i] = i
	}
	g := NewGroup(ranks...)
	bufs := make([][]float32, size)
	for r := range bufs {
		bufs[r] = make([]float32, n)
	}
	b.SetBytes(int64(n * 4 * size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := comm.NewWorld(size)
		var wg sync.WaitGroup
		for r := 0; r < size; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				AllReduce(w.Rank(r), g, 0, bufs[r])
			}(r)
		}
		wg.Wait()
	}
}

func BenchmarkAllReduceRing8x64k(b *testing.B) { benchAllReduce(b, 8, 1<<16) }
