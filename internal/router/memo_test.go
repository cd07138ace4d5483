package router

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"chimera/internal/httpd"
	"chimera/internal/serve"
)

// slotMates returns first and k-1 of the candidate bodies that take first's
// slot in a body memo built for capacity: in a scratch memo of that size,
// each one's store displaces first. Tags are unseeded SHA-256 sums, so the
// router's own memos put them in one slot too.
func slotMates(capacity, k int, first []byte, candidate func(i int) []byte) [][]byte {
	m := httpd.NewBodyMemo[struct{}](capacity)
	get := func(body []byte) { m.Get(body, func() (struct{}, error) { return struct{}{}, nil }) }
	get(first)
	mates := [][]byte{first}
	for i := 0; len(mates) < k; i++ {
		c := candidate(i)
		get(c)
		misses := m.Misses()
		if get(first); m.Misses() != misses {
			mates = append(mates, c)
		}
	}
	return mates
}

// planBodyN is the n-th of a family of distinct, cheap plan requests.
func planBodyN(n int) []byte {
	return fmt.Appendf(nil, `{"model":{"preset":"bert48"},"p":4,"mini_batch":%d,"max_b":4,"platform":{"preset":"pizdaint"}}`, 4*(n+1))
}

// TestRouteMemoAgreesWithCanonicalKey: a router's body memos are cacheKey's
// ring position and nothing else. Every body of keyCorpora, interleaved
// across endpoints and repeated, places where keyPos(cacheKey(path, body))
// does on its first call (a miss) and on every later one (a hit). Then
// 4,096 distinct plan bodies, twice the /v1/plan memo's 2,048 slots, so at
// least 2,048 of them overwrite an occupied slot, each miss once and agree;
// so does every corpus body after them, displaced or not. A hit allocates
// nothing.
func TestRouteMemoAgreesWithCanonicalKey(t *testing.T) {
	rt, err := New(Config{Replicas: []string{"http://replica-a:1", "http://replica-b:2", "http://replica-c:3"}})
	if err != nil {
		t.Fatal(err)
	}
	type req struct {
		path string
		body []byte
	}
	check := func(r req, when string) {
		t.Helper()
		if got, want := rt.place(r.path, r.body), keyPos(cacheKey(r.path, r.body)); got != want {
			t.Fatalf("%s %.60q (%s): memo places at %#x, cacheKey at %#x", r.path, r.body, when, got, want)
		}
	}
	hits, misses := rt.memoSum((*httpd.BodyMemo[uint64]).Hits), rt.memoSum((*httpd.BodyMemo[uint64]).Misses)

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
	n := uint64(len(corpus))
	if hits()+misses() != 3*n || hits() < n {
		t.Fatalf("three passes over %d bodies: %d hits and %d misses", n, hits(), misses())
	}

	const distinct = 2 << 11
	before := misses()
	for i := 0; i < distinct; i++ {
		check(req{"/v1/plan", planBodyN(i)}, "overwriting")
	}
	if got := misses() - before; got != distinct {
		t.Fatalf("%d distinct bodies missed %d times", distinct, got)
	}
	before = misses()
	for _, r := range corpus {
		check(r, "after overwrites")
	}
	if misses() == before {
		t.Fatal("4,096 stores displaced no corpus body; the table was not exercised")
	}

	hit := corpus[0]
	rt.place(hit.path, hit.body)
	before = hits()
	if allocs := testing.AllocsPerRun(100, func() { rt.place(hit.path, hit.body) }); allocs != 0 {
		t.Fatalf("a memo hit made %.1f allocations, want 0", allocs)
	}
	if hits() == before {
		t.Fatal("the allocation probe did not hit the memo")
	}
}

// TestRouteMemoSharedSlotsUnderConcurrency: goroutines posting bodies that
// share memo slots through one router, so misses overwrite slots other
// requests are reading, get exactly the bytes a direct replica answers, and
// the memo still agrees with cacheKey afterwards.
func TestRouteMemoSharedSlotsUnderConcurrency(t *testing.T) {
	f := newFleet(t, 3)
	// Two slots of the /v1/plan memo, three bodies each, drawn from
	// disjoint candidates.
	bodies := append(slotMates(0, 3, planBodyN(0), func(i int) []byte { return planBodyN(2 + 2*i) }),
		slotMates(0, 3, planBodyN(1), func(i int) []byte { return planBodyN(3 + 2*i) })...)

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
		if got, want := f.router.place("/v1/plan", body), keyPos(cacheKey("/v1/plan", body)); got != want {
			t.Fatalf("after the concurrent run the memo places %s at %#x, cacheKey at %#x", body, got, want)
		}
	}
	if m := f.router.memos["/v1/plan"]; m.Misses() < uint64(len(bodies)) {
		t.Fatalf("memo saw %d misses for %d distinct bodies; the run did not go through it", m.Misses(), len(bodies))
	}
}
