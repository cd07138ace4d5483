package router

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chimera/internal/serve"
)

// keyCorpus is one cached endpoint's request bodies and the /v1/stats table
// that counts its cache.
type keyCorpus struct {
	path   string
	table  func(serve.StatsResponse) serve.CacheTableJSON
	bodies []string
}

// keyCorpora spells each cached endpoint's requests every way that matters:
// optional fields spelled and omitted, classic and elastic scenarios,
// requests that resolve but have no answer, malformed and unresolvable
// bodies.
func keyCorpora() []keyCorpus {
	const cluster = `"cluster":{"nodes":8,"platform":{"preset":"pizdaint"}}`
	const jobs = `"jobs":[{"name":"big","model":{"preset":"bert48"},"mini_batch":256,"priority":4,"max_nodes":4},{"name":"small","model":{"preset":"bert48"},"mini_batch":32}]`
	return []keyCorpus{
		{"/v1/plan", func(s serve.StatsResponse) serve.CacheTableJSON { return s.PlanCache }, []string{
			`{"model":{"preset":"bert48"},"p":16,"mini_batch":128,"max_b":16,"platform":{"preset":"pizdaint"}}`,
			// Same request: key order, whitespace, the default scheduler spelled.
			`{"platform":{"preset":"pizdaint"}, "max_b":16, "mini_batch":128, "p":16, "model":{"preset":"bert48"}, "scheduler":"fixed"}`,
			// max_b omitted resolves to its default, 64: a different entry…
			`{"model":{"preset":"bert48"},"p":16,"mini_batch":128,"platform":{"preset":"pizdaint"}}`,
			// …which spelling the default shares.
			`{"model":{"preset":"bert48"},"p":16,"mini_batch":128,"max_b":64,"platform":{"preset":"pizdaint"}}`,
			// The preset inlined is the same model.
			`{"model":{"name":"Bert-48","layers":48,"hidden":1024,"heads":16,"vocab":30522,"seq_len":128},"p":16,"mini_batch":128,"max_b":16,"platform":{"preset":"pizdaint"}}`,
			`{"model":{"preset":"bert48"},"p":16,"mini_batch":256,"max_b":16,"platform":{"preset":"pizdaint"}}`,
			`{"model":{"preset":"bert48"},"p":4,"mini_batch":64,"max_b":8,"speed_factors":[1,1,1,2],"platform":{"preset":"pizdaint"}}`,
			`{"model":{"preset":"bert48"},"p":4,"mini_batch":64,"max_b":8,"speed_factors":[1.0,1,1,2.0],"platform":{"preset":"pizdaint"}}`,
			// Resolves, but no configuration exists: a cached 422, twice.
			`{"model":{"preset":"bert48"},"p":7,"mini_batch":512,"platform":{"preset":"pizdaint"}}`,
			`{"model":{"preset":"bert48"},"p":7,"mini_batch":512,"max_b":64,"platform":{"preset":"pizdaint"}}`,
			// Never reach the cache.
			`{"model":{"preset":"nope"},"p":16,"mini_batch":128,"platform":{"preset":"pizdaint"}}`,
			`{"model":{"preset":"bert48"},"p":16,"mini_batch":128,"platform":{"preset":"pizdaint"},"unknown":1}`,
			`{"model":{"preset":"bert48"},"p":16,"mini_batch":128,"platform":{"preset":"pizdaint"}} trailing`,
			`{not json`,
			``,
		}},
		{"/v1/fleet/plan", func(s serve.StatsResponse) serve.CacheTableJSON { return s.FleetCache }, []string{
			`{` + cluster + `,` + jobs + `}`,
			`{` + jobs + `,` + cluster + `,"policy":"planner-guided"}`,
			`{` + cluster + `,` + jobs + `,"policy":"equal-split"}`,
			`{"cluster":{"nodes":8,"platform":{"preset":"pizdaint"},"scheduler":"auto"},` + jobs + `}`,
			`{` + cluster + `,"jobs":[]}`,
			`{` + cluster + `,` + jobs + `,"policy":"bogus"}`,
			`{"cluster":`,
		}},
		{"/v1/fleet/simulate", func(s serve.StatsResponse) serve.CacheTableJSON { return s.FleetSimCache }, []string{
			// Classic (trace) and elastic (events) scenarios over one fleet.
			`{` + cluster + `,` + jobs + `,"trace":[{"at":0,"job":"big","work":10000}]}`,
			`{"trace":[{"at":0,"job":"big","work":10000}],` + cluster + `,` + jobs + `,"policy":"planner-guided"}`,
			`{` + cluster + `,` + jobs + `,"events":[{"at":0,"job":"big","work":10000}]}`,
			`{` + cluster + `,` + jobs + `,"events":[{"at":0,"kind":"arrival","job":"big","work":10000}],"replan":"incremental"}`,
			`{` + cluster + `,` + jobs + `,"events":[{"at":0,"job":"big","work":10000}],"replan":"full"}`,
			`{` + cluster + `,` + jobs + `,"events":[{"at":0,"job":"big","work":10000},{"at":10,"kind":"node_fail","node":0}],"migration_penalty":2}`,
			// Neither trace nor events, elastic knobs on a classic trace,
			// both traces at once, an unknown job: all 400.
			`{` + cluster + `,` + jobs + `}`,
			`{` + cluster + `,` + jobs + `,"trace":[{"at":0,"job":"big","work":10000}],"replan":"full"}`,
			`{` + cluster + `,` + jobs + `,"trace":[{"at":0,"job":"big","work":1}],"events":[{"at":0,"job":"big","work":1}]}`,
			`{` + cluster + `,` + jobs + `,"events":[{"at":0,"job":"ghost","work":10000}]}`,
			`[]`,
		}},
	}
}

// TestRoutingKeyAgreesWithServeCache is the property that makes hash routing
// worth doing: two bodies get the same routing key iff they hit the same
// serve cache entry. Each endpoint's corpus (keyCorpora) is posted in order
// to one fresh server; a body whose routing key was already seen must be a
// cache hit returning the first reply's bytes, a new key must be a miss, and
// a body the router can only hash raw must never reach the cache at all.
func TestRoutingKeyAgreesWithServeCache(t *testing.T) {
	for _, corpus := range keyCorpora() {
		srv := serve.New(serve.Config{})
		ts := httptest.NewServer(srv.Handler())
		first := map[string][]byte{} // routing key → the reply that created the entry
		raws := 0
		for i, body := range corpus.bodies {
			before := corpus.table(srv.Snapshot())
			status, reply := postURL(t, ts.URL+corpus.path, body)
			after := corpus.table(srv.Snapshot())
			hit, miss := after.Hits-before.Hits, after.Misses-before.Misses

			key := cacheKey(corpus.path, []byte(body))
			if strings.HasPrefix(key, "raw:") {
				raws++
				if status != http.StatusBadRequest || hit+miss != 0 {
					t.Errorf("%s body %d: routed raw, but serve answered %d with %d cache lookups; want 400 and none", corpus.path, i, status, hit+miss)
				}
				continue
			}
			if status != http.StatusOK && status != http.StatusUnprocessableEntity {
				t.Errorf("%s body %d: has cache key %.40q but serve answered %d", corpus.path, i, key, status)
			}
			if want, seen := first[key]; seen {
				if hit != 1 || miss != 0 || !bytes.Equal(reply, want) {
					t.Errorf("%s body %d: routing key seen before, but serve counted hit=%d miss=%d (reply equal: %v); want the same cache entry",
						corpus.path, i, hit, miss, bytes.Equal(reply, want))
				}
			} else {
				if hit != 0 || miss != 1 {
					t.Errorf("%s body %d: new routing key, but serve counted hit=%d miss=%d; want a new cache entry", corpus.path, i, hit, miss)
				}
				first[key] = reply
			}
		}
		ts.Close()
		if len(first) < 3 || len(first) == len(corpus.bodies)-raws || raws < 2 {
			t.Errorf("%s: corpus has %d distinct keys over %d cacheable bodies and %d raw — it should exercise shared keys, distinct keys and raw fallbacks",
				corpus.path, len(first), len(corpus.bodies)-raws, raws)
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/canonical_keys.golden from current output")

// TestCanonicalKeyGolden pins serve.CanonicalKey's bytes (as sha256 digests)
// for every cacheable body of keyCorpora. The agreement test above only
// checks that keys agree with each other; a change that re-spells every key
// at once — say, JSON tags on a resolved input type — keeps that agreement
// but re-keys the router's ring and orphans every snapshot entry, so it must
// fail here. Regenerate with -update only for an intended re-keying.
func TestCanonicalKeyGolden(t *testing.T) {
	var out bytes.Buffer
	for _, corpus := range keyCorpora() {
		for i, body := range corpus.bodies {
			if key, ok := serve.CanonicalKey(corpus.path, []byte(body)); ok {
				fmt.Fprintf(&out, "%s %d %x\n", corpus.path, i, sha256.Sum256([]byte(key)))
			}
		}
	}
	path := filepath.Join("testdata", "canonical_keys.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/router -run Golden -update` once): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("canonical keys drifted from %s.\nIf the re-keying is intentional, regenerate with -update.\ngot:\n%s", path, out.Bytes())
	}
}
