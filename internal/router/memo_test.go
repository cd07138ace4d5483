package router

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"chimera/internal/serve"
)

// TestRouteMemoAgreesWithCanonicalKey: the route memo is cacheKey's ring
// position and nothing else. Every body of keyCorpora, interleaved across
// endpoints and repeated, places where keyPos(cacheKey(path, body)) does on
// its first call (a miss) and on every later one (a hit). Then enough
// distinct plan bodies to fill the table twice over overwrite occupied
// slots, and each overwrite still agrees — for the new body and, on its
// next call, for the body it displaced. A hit allocates nothing.
func TestRouteMemoAgreesWithCanonicalKey(t *testing.T) {
	m := newRouteMemo()
	type req struct {
		path string
		body []byte
	}
	check := func(r req, when string) {
		t.Helper()
		if got, want := m.pos(r.path, r.body), keyPos(cacheKey(r.path, r.body)); got != want {
			t.Fatalf("%s %.60q (%s): memo places at %#x, cacheKey at %#x", r.path, r.body, when, got, want)
		}
	}

	// Round-robin over the corpora, so consecutive calls change endpoint.
	var corpus []req
	corpora := keyCorpora()
	for i := 0; ; i++ {
		added := false
		for _, c := range corpora {
			if i < len(c.bodies) {
				corpus = append(corpus, req{c.path, []byte(c.bodies[i])})
				added = true
			}
		}
		if !added {
			break
		}
	}
	for pass := 0; pass < 3; pass++ {
		for _, r := range corpus {
			check(r, fmt.Sprintf("pass %d", pass))
		}
	}
	// A body alone in its slot misses once and then hits; bodies that share
	// a slot displace each other between calls and miss every time.
	perSlot := map[*routeSlot]uint64{}
	for _, r := range corpus {
		perSlot[m.slot(m.sum(r.path, r.body))]++
	}
	var alone uint64
	for _, n := range perSlot {
		if n == 1 {
			alone++
		}
	}
	n := uint64(len(corpus))
	if hits, misses := m.hits.Load(), m.misses.Load(); hits != 2*alone || misses != 3*n-2*alone {
		t.Fatalf("three passes over %d bodies, %d alone in their slot: %d hits and %d misses, want %d and %d",
			n, alone, hits, misses, 2*alone, 3*n-2*alone)
	}

	overwrites := 0
	for i := 0; i < 2<<routeMemoBits; i++ {
		r := req{"/v1/plan", fmt.Appendf(nil, `{"model":{"preset":"bert48"},"p":%d,"mini_batch":%d,"platform":{"preset":"pizdaint"}}`, 4<<(i%3), 64+i)}
		s := m.slot(m.sum(r.path, r.body))
		displaced := *s
		check(r, "overwriting")
		if displaced.sum == 0 {
			continue
		}
		overwrites++
		// Find the displaced body among the corpus; when it is one, its next
		// call misses and must place it where it always was.
		for _, c := range corpus {
			if m.sum(c.path, c.body) == displaced.sum {
				check(c, "displaced")
				check(r, "after displacing back")
			}
		}
	}
	if overwrites < 1<<routeMemoBits/2 {
		t.Fatalf("%d distinct bodies overwrote %d occupied slots; the table was not exercised", 2<<routeMemoBits, overwrites)
	}
	for _, r := range corpus {
		check(r, "after overwrites")
	}

	hit := corpus[0]
	m.pos(hit.path, hit.body)
	hits := m.hits.Load()
	if allocs := testing.AllocsPerRun(100, func() { m.pos(hit.path, hit.body) }); allocs != 0 {
		t.Fatalf("a memo hit made %.1f allocations, want 0", allocs)
	}
	if m.hits.Load() == hits {
		t.Fatal("the allocation probe did not hit the memo")
	}
}

// TestRouteMemoSharedSlotsUnderConcurrency: goroutines posting bodies that
// share memo slots through one router, so misses overwrite slots other
// requests are reading, get exactly the bytes a direct replica answers, and
// the memo still agrees with cacheKey afterwards.
func TestRouteMemoSharedSlotsUnderConcurrency(t *testing.T) {
	f := newFleet(t, 3)
	m := f.router.memo
	// Cheap, distinct plan requests, grouped by the slot this router's seed
	// puts them in; keep two slots that hold three bodies each.
	bySlot := map[*routeSlot][][]byte{}
	var bodies [][]byte
	for b := 1; len(bodies) < 6; b++ {
		body := fmt.Appendf(nil, `{"model":{"preset":"bert48"},"p":4,"mini_batch":%d,"max_b":4,"platform":{"preset":"pizdaint"}}`, 4*b)
		s := m.slot(m.sum("/v1/plan", body))
		if bySlot[s] = append(bySlot[s], body); len(bySlot[s]) == 3 {
			bodies = append(bodies, bySlot[s]...)
		}
	}

	direct := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer direct.Close()
	want := make([][]byte, len(bodies))
	for i, body := range bodies {
		_, want[i] = postURL(t, direct.URL+"/v1/plan", string(body))
	}

	const callers, rounds = 4, 5
	var wg sync.WaitGroup
	errs := make(chan error, callers*rounds*len(bodies))
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < rounds*len(bodies); k++ {
				i := (c + k*(c+1)) % len(bodies) // each caller strides differently
				resp, err := http.Post(f.front.URL+"/v1/plan", "application/json", bytes.NewReader(bodies[i]))
				if err != nil {
					errs <- err
					continue
				}
				var got bytes.Buffer
				got.ReadFrom(resp.Body)
				resp.Body.Close()
				if !bytes.Equal(got.Bytes(), want[i]) {
					errs <- fmt.Errorf("body %d: routed reply %.80q, direct %.80q", i, got.Bytes(), want[i])
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, body := range bodies {
		if got, want := m.pos("/v1/plan", body), keyPos(cacheKey("/v1/plan", body)); got != want {
			t.Fatalf("after the concurrent run the memo places %s at %#x, cacheKey at %#x", body, got, want)
		}
	}
	if m.misses.Load() < uint64(len(bodies)) {
		t.Fatalf("memo saw %d misses for %d distinct bodies; the run did not go through it", m.misses.Load(), len(bodies))
	}
}
