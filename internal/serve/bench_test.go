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

// BenchmarkServePlanMiss is POST /v1/plan through the handler on a
// response-cache miss, without sockets: decode, admission, cache insert and
// eviction, one small plan on a warm Workers(1) engine, encode. The 18
// requests are the inline tenant shapes of the repository benchmark's
// serve_zipf workload (three depths × three widths × two platforms, P = 8,
// B̂ = 64, max B 8), cycled past a capacity-1 response cache so every one
// misses; the engine's own memos are unbounded, so after the first lap a
// miss plans on compiled schedules — the steady state of a long-running
// replica, and what the benchmark's serve.handler_miss_us probe reads.
func BenchmarkServePlanMiss(b *testing.B) {
	bodies := make([][]byte, 18)
	for k := range bodies {
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
			b.Fatal(err)
		}
		bodies[k] = body
	}
	srv := New(Config{Engine: engine.New(engine.Workers(1)), CacheCapacity: 1})
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
		serve(k) // first sight of each shape builds and compiles
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(i)
	}
	b.StopTimer()
	if hits := srv.Snapshot().PlanCache.Hits; hits != 0 {
		b.Fatalf("%d response-cache hits: the benchmark is meant to measure misses only", hits)
	}
}
