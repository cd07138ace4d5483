package httpd

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// memoModel is a direct-mapped table of n slots written out from the
// documented rule: a body's slot is the low bits of the first eight bytes
// (little-endian) of its SHA-256, and a slot holds the last body that
// derived there without an error.
type memoModel struct {
	n            uint64
	slots        map[uint64][]byte
	hits, misses uint64
}

// see records one Get of body whose derive fails iff fail, and reports
// whether the call hits.
func (m *memoModel) see(body []byte, fail bool) bool {
	sum := sha256.Sum256(body)
	i := binary.LittleEndian.Uint64(sum[:8]) & (m.n - 1)
	if held, ok := m.slots[i]; ok && bytes.Equal(held, body) {
		m.hits++
		return true
	}
	m.misses++
	if !fail {
		m.slots[i] = body
	}
	return false
}

var errDerive = errors.New("derive failed")

// FuzzBodyMemo runs a fuzzed sequence of Get calls on a small table against
// memoModel. The bodies are the corpus split at commas; each op byte picks
// one (its low bits) and whether its derive fails (the high bit). Every
// returned value is the one derive gives that body (the body itself), a
// failed derive is never served to a later call, and the hit and miss
// counts are exactly the model's.
func FuzzBodyMemo(f *testing.F) {
	f.Add(uint8(1), []byte("a,b"), []byte{0, 1, 0, 1, 0x80, 0})
	f.Add(uint8(2), []byte("x,y,z,,x"), []byte{0, 1, 2, 3, 4, 0, 1, 2, 3, 4})
	f.Add(uint8(3), []byte(`{"p":4},{"p":8},{"p":16}`), []byte{0x80, 0x80, 0, 0, 1, 0x81, 1, 2, 2})
	f.Add(uint8(0), []byte("solo"), []byte{0, 0x80, 0, 0})
	f.Fuzz(func(t *testing.T, capacity uint8, corpus, ops []byte) {
		bodies := bytes.Split(corpus, []byte(","))
		m := NewBodyMemo[string](int(capacity % 9))
		model := &memoModel{n: uint64(m.n), slots: map[uint64][]byte{}}
		for k, op := range ops {
			body := bodies[int(op&0x7f)%len(bodies)]
			fail := op&0x80 != 0
			derived := false
			got, err := m.Get(body, func() (string, error) {
				derived = true
				if fail {
					return "", errDerive
				}
				return string(body), nil
			})
			hit := model.see(body, fail)
			switch {
			case hit == derived:
				t.Fatalf("op %d (%q): derived %v, the model hits %v", k, body, derived, hit)
			case derived && fail && !errors.Is(err, errDerive):
				t.Fatalf("op %d (%q): failed derive returned %q, %v", k, body, got, err)
			case !(derived && fail) && (err != nil || got != string(body)):
				t.Fatalf("op %d (%q): got %q, %v", k, body, got, err)
			}
		}
		if m.Hits() != model.hits || m.Misses() != model.misses {
			t.Fatalf("%d hits / %d misses, the model's %d / %d", m.Hits(), m.Misses(), model.hits, model.misses)
		}
	})
}

// TestBodyMemoSizing: the slot count is the capacity rounded up to a power
// of two, at most 2¹⁶, and 2¹¹ for capacity 0; no table exists before the
// first store, and a failed derive stores nothing.
func TestBodyMemoSizing(t *testing.T) {
	for _, tc := range []struct{ capacity, slots int }{
		{0, 1 << 11}, {1, 1}, {3, 4}, {128, 128}, {1 << 17, 1 << 16},
	} {
		m := NewBodyMemo[int](tc.capacity)
		if m.n != tc.slots {
			t.Fatalf("capacity %d: %d slots, want %d", tc.capacity, m.n, tc.slots)
		}
		if _, err := m.Get([]byte("body"), func() (int, error) { return 0, errDerive }); !errors.Is(err, errDerive) {
			t.Fatalf("capacity %d: a failed derive returned %v", tc.capacity, err)
		}
		if m.slots != nil {
			t.Fatalf("capacity %d: a table exists before the first store", tc.capacity)
		}
		m.Get([]byte("body"), func() (int, error) { return 1, nil })
		if len(m.slots) != tc.slots {
			t.Fatalf("capacity %d: the first store made %d slots, want %d", tc.capacity, len(m.slots), tc.slots)
		}
	}
}

// TestBodyMemoUnwrittenSlot: a tag always has its last bit set, so it never
// equals the all-zero digest of a slot that was never written; every Get
// into a fresh table's unwritten slots derives.
func TestBodyMemoUnwrittenSlot(t *testing.T) {
	m := NewBodyMemo[int](1 << 10)
	m.Get([]byte("first"), func() (int, error) { return 0, nil })
	first := tag([]byte("first"))
	for k := range 1 << 10 {
		body := fmt.Appendf(nil, "body-%d", k)
		sum := tag(body)
		if sum[sha256.Size-1]&1 == 0 {
			t.Fatalf("tag of %q has its last bit clear", body)
		}
		if m.slot(&sum) == m.slot(&first) {
			continue
		}
		derived := false
		m.Get(body, func() (int, error) { derived = true; return k, errDerive })
		if !derived {
			t.Fatalf("%q matched an unwritten slot", body)
		}
	}
}

// TestBodyMemoConcurrentSlotMates: four callers get six bodies that share
// the two slots of a capacity-2 memo, so misses overwrite slots other
// callers are reading; each always gets its own body's value, and every
// call is counted once. make race-sweep runs it under the race detector.
func TestBodyMemoConcurrentSlotMates(t *testing.T) {
	m := NewBodyMemo[string](2)
	bodies := make([][]byte, 6)
	for k := range bodies {
		bodies[k] = fmt.Appendf(nil, "body-%d", k)
	}
	const callers, rounds = 4, 200
	var wg sync.WaitGroup
	errs := make(chan string, callers)
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range rounds {
				body := bodies[(c+k*(c+1))%len(bodies)] // each caller strides differently
				got, err := m.Get(body, func() (string, error) { return string(body), nil })
				if err != nil || got != string(body) {
					errs <- fmt.Sprintf("caller %d: %q got %q, %v", c, body, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if m.Hits()+m.Misses() != callers*rounds || m.Hits() == 0 {
		t.Fatalf("%d hits / %d misses, want %d calls with some hits", m.Hits(), m.Misses(), callers*rounds)
	}
}

// TestBodyMemoHitAllocs: a hit allocates nothing.
func TestBodyMemoHitAllocs(t *testing.T) {
	m := NewBodyMemo[uint64](0)
	body := []byte(`{"model":{"preset":"bert48"},"p":16,"mini_batch":128}`)
	derive := func() (uint64, error) { return 42, nil }
	m.Get(body, derive)
	if allocs := testing.AllocsPerRun(100, func() { m.Get(body, derive) }); allocs != 0 {
		t.Fatalf("a hit made %.1f allocations, want 0", allocs)
	}
	if m.Hits() != 101 {
		t.Fatalf("%d hits, want 101", m.Hits())
	}
}
