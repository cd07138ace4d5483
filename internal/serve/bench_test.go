package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"chimera/internal/engine"
)

// tenantShapes is the number of distinct tenant plan shapes: three depths
// × three widths × two platforms.
const tenantShapes = 18

// tenantBody is the /v1/plan body of tenant k, in the inline shape of the
// repository benchmark's serve_zipf workload (P = 8, B̂ = 64, max B 8).
// Tenants k and k+18 share a shape but not a name, so their keys differ.
func tenantBody(k int) []byte {
	platform := "pizdaint"
	if (k/9)%2 == 1 {
		platform = "v100"
	}
	body, err := json.Marshal(PlanRequest{
		Model: ModelRef{
			Name:   fmt.Sprintf("tenant-%04d", k),
			Layers: 8 + 4*(k%3), Hidden: 256 + 128*((k/3)%3), Heads: 8, Vocab: 8192, SeqLen: 128,
		},
		P: 8, MiniBatch: 64, MaxB: 8,
		Platform: PlatformRef{Preset: platform},
	})
	if err != nil {
		panic(err)
	}
	return body
}

// benchServePlan serves the tenant shapes' bodies round-robin through the
// handler of a server on a warm Workers(1) engine and returns that server.
// Every shape is served once before the timer starts, so its schedules are
// built and compiled.
func benchServePlan(b *testing.B, cacheCapacity int) *Server {
	bodies := make([][]byte, tenantShapes)
	for k := range bodies {
		bodies[k] = tenantBody(k)
	}
	srv := New(Config{Engine: engine.New(engine.Workers(1)), CacheCapacity: cacheCapacity})
	h := srv.Handler()
	serve := func(k int) {
		req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(bodies[k%len(bodies)]))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("tenant %d: status %d: %s", k%len(bodies), rec.Code, rec.Body)
		}
	}
	for k := range bodies {
		serve(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(i)
	}
	b.StopTimer()
	return srv
}

// BenchmarkServePlanMiss is POST /v1/plan through the handler on a
// response-cache miss, without sockets: decode, admission, cache insert and
// eviction, one small plan on a warm Workers(1) engine, encode. The 18
// tenant shapes are cycled past a capacity-1 response cache so every one
// misses; the engine's own memos are unbounded, so after the first lap a
// miss plans on compiled schedules — the steady state of a long-running
// replica, and what the benchmark's serve.handler_miss_us probe reads.
func BenchmarkServePlanMiss(b *testing.B) {
	srv := benchServePlan(b, 1)
	if hits := srv.Snapshot().PlanCache.Hits; hits != 0 {
		b.Fatalf("%d response-cache hits: the benchmark is meant to measure misses only", hits)
	}
}

// BenchmarkServePlanHit is POST /v1/plan through the handler on a
// response-cache hit, without sockets: the 18 tenant shapes cycled through
// a cache that holds them all, so after the untimed first lap every
// request is a hit, and a resolve-memo hit — the p50 request of serve_zipf.
func BenchmarkServePlanHit(b *testing.B) {
	srv := benchServePlan(b, tenantShapes)
	if misses := srv.Snapshot().PlanCache.Misses; misses != tenantShapes {
		b.Fatalf("%d response-cache misses, want only the untimed lap's %d", misses, tenantShapes)
	}
}
