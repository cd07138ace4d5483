package comm

import (
	"sync"
	"testing"
)

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := w.Rank(0)
		c.Send(1, 7, []float32{1, 2, 3})
	}()
	var got []float32
	go func() {
		defer wg.Done()
		c := w.Rank(1)
		got = c.Recv(0, 7)
	}()
	wg.Wait()
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("recv got %v", got)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	w := NewWorld(2)
	buf := []float32{1, 2, 3}
	done := make(chan []float32, 1)
	go func() {
		c := w.Rank(1)
		done <- c.Recv(0, 0)
	}()
	c := w.Rank(0)
	c.Send(1, 0, buf)
	buf[0] = 99 // mutate after send: receiver must see the original
	got := <-done
	if got[0] != 1 {
		t.Fatalf("payload aliased: got[0]=%v want 1", got[0])
	}
}

func TestOutOfOrderTags(t *testing.T) {
	w := NewWorld(2)
	go func() {
		c := w.Rank(0)
		c.Send(1, 2, []float32{2})
		c.Send(1, 1, []float32{1})
		c.Send(1, 3, []float32{3})
	}()
	c := w.Rank(1)
	// Receive in a different order than sent.
	for _, tag := range []int{1, 3, 2} {
		got := c.Recv(0, tag)
		if int(got[0]) != tag {
			t.Fatalf("tag %d: got payload %v", tag, got)
		}
	}
}

func TestInterleavedSources(t *testing.T) {
	w := NewWorld(3)
	var wg sync.WaitGroup
	for src := 0; src < 2; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			c := w.Rank(src)
			for i := 0; i < 10; i++ {
				c.Send(2, i, []float32{float32(src*100 + i)})
			}
		}(src)
	}
	c := w.Rank(2)
	for i := 9; i >= 0; i-- {
		for src := 1; src >= 0; src-- {
			got := c.Recv(src, i)
			if want := float32(src*100 + i); got[0] != want {
				t.Fatalf("src %d tag %d: got %v want %v", src, i, got[0], want)
			}
		}
	}
	wg.Wait()
}

func TestBarrier(t *testing.T) {
	const n = 8
	w := NewWorld(n)
	var mu sync.Mutex
	phase := make([]int, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Rank(r)
			for p := 0; p < 5; p++ {
				mu.Lock()
				phase[r] = p
				// All ranks must be within one phase of each other.
				for _, q := range phase {
					if q < p-1 || q > p+1 {
						mu.Unlock()
						t.Errorf("rank %d at phase %d saw phase %d", r, p, q)
						return
					}
				}
				mu.Unlock()
				c.Barrier()
			}
		}(r)
	}
	wg.Wait()
}

func TestWorldSizeAndRankValidation(t *testing.T) {
	w := NewWorld(4)
	if w.size != 4 {
		t.Fatalf("size = %d", w.size)
	}
	if got := w.Rank(3).Rank(); got != 3 {
		t.Fatalf("rank = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range rank")
		}
	}()
	w.Rank(4)
}

func TestSendToInvalidRankPanics(t *testing.T) {
	w := NewWorld(1)
	c := w.Rank(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Send(5, 0, nil)
}

// TestAbortReleasesWaiters: Abort makes a waiting Recv and a waiting
// Barrier panic with ErrAborted, and so every Send, Recv and Barrier after
// it.
func TestAbortReleasesWaiters(t *testing.T) {
	w := NewWorld(3)
	aborted := func(call func()) (err any) {
		defer func() { err = recover() }()
		call()
		return nil
	}
	got := make(chan any, 2)
	go func() { got <- aborted(func() { w.Rank(1).Recv(0, 0) }) }()
	go func() { got <- aborted(func() { w.Rank(2).Barrier() }) }()
	w.Abort()
	w.Abort() // idempotent
	for i := 0; i < 2; i++ {
		if r := <-got; r != ErrAborted {
			t.Fatalf("waiter released with %v, want ErrAborted", r)
		}
	}
	c := w.Rank(0)
	for name, call := range map[string]func(){
		"Send":    func() { c.Send(1, 0, []float32{1}) },
		"Recv":    func() { c.Recv(1, 0) },
		"Barrier": c.Barrier,
	} {
		if r := aborted(call); r != ErrAborted {
			t.Fatalf("%s after Abort: %v, want a panic with ErrAborted", name, r)
		}
	}
}
