// chimera-serve is the long-running planning service: it exposes the §3.4
// planner, the cluster simulator, schedule analysis and timeline rendering
// over HTTP/JSON, amortizing the shared engine's memoized schedules and
// evaluations across every request instead of each process paying
// cold-cache sweep costs.
//
// Endpoints: POST /v1/plan, /v1/plan:batch, /v1/fleet/plan,
// /v1/fleet/simulate, /v1/simulate, /v1/analyze, /v1/render,
// /v1/cache/snapshot; GET /v1/schedules, /v1/stats, /healthz, /readyz. The
// POST endpoints pass admission control: beyond -max-inflight concurrent
// requests the server sheds with 429 instead of queueing. SIGINT/SIGTERM
// drain in-flight work before exit (/readyz answers 503 meanwhile).
//
// Observability: GET /metrics serves Prometheus text-format counters,
// gauges and latency histograms for the serving, engine and fleet layers;
// GET /debug/requests dumps the flight recorder's last -flight-recorder
// request spans with per-phase timings; -pprof mounts /debug/pprof/.
// Every response carries an X-Request-Id header (honored if the client
// sent one), and -log-format selects the per-request access-log encoding
// on stderr ("json", "text", or "none").
//
// Example:
//
//	chimera-serve -addr 127.0.0.1:8642 -cache-capacity 4096 &
//	curl -s http://127.0.0.1:8642/v1/plan -d \
//	  '{"model":{"preset":"bert48"},"p":32,"mini_batch":512,"platform":{"preset":"pizdaint"}}'
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"chimera/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8642", "listen address")
	workers := flag.Int("workers", 0, "engine worker-pool size (0 = GOMAXPROCS)")
	capacity := flag.Int("cache-capacity", 4096, "per-table engine cache bound with LRU eviction (0 = unbounded)")
	maxInflight := flag.Int("max-inflight", 0, "admission limit on concurrent heavy requests (0 = 4×GOMAXPROCS)")
	drain := flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown wait for in-flight requests")
	drainDelay := flag.Duration("drain-delay", 0, "hold the listener open (readiness reporting draining) this long after shutdown begins, so routers observe /readyz flip before connections are refused")
	snapshotPath := flag.String("snapshot", "", "cache-snapshot file written by POST /v1/cache/snapshot (empty disables the endpoint)")
	restore := flag.Bool("restore", false, "restore the response caches from the -snapshot file at startup (a missing or invalid file logs a warning and starts cold)")
	logFormat := flag.String("log-format", "none", `access-log encoding on stderr: "json", "text", or "none"`)
	flightRecorder := flag.Int("flight-recorder", 256, "recent request spans retained for GET /debug/requests (negative disables)")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	cfg := serve.Config{
		Workers:        *workers,
		CacheCapacity:  *capacity,
		MaxInflight:    *maxInflight,
		DrainTimeout:   *drain,
		DrainDelay:     *drainDelay,
		SnapshotPath:   *snapshotPath,
		FlightRecorder: *flightRecorder,
		EnablePprof:    *enablePprof,
	}
	switch *logFormat {
	case "json", "text":
		cfg.AccessLog = os.Stderr
		cfg.LogFormat = *logFormat
	case "none", "":
	default:
		fmt.Fprintf(os.Stderr, "chimera-serve: unknown -log-format %q (have json, text, none)\n", *logFormat)
		os.Exit(2)
	}
	s := serve.New(cfg)
	if *restore {
		if *snapshotPath == "" {
			fmt.Fprintln(os.Stderr, "chimera-serve: -restore requires -snapshot")
			os.Exit(2)
		}
		switch n, err := s.RestoreSnapshot(*snapshotPath); {
		case errors.Is(err, os.ErrNotExist):
			log.Printf("chimera-serve: no snapshot at %s, starting cold", *snapshotPath)
		case err != nil:
			// An unreadable snapshot is a warm-start optimization lost, not
			// an outage: log and start cold.
			log.Printf("chimera-serve: snapshot restore failed (%v), starting cold", err)
		default:
			log.Printf("chimera-serve: restored %d cache entries from %s", n, *snapshotPath)
		}
	}

	log.Printf("chimera-serve: version %s (%s), listening on %s (engine workers=%d, cache capacity=%d, max inflight=%d)",
		serve.BuildVersion(), runtime.Version(), *addr, s.Engine().WorkerCount(), *capacity, s.MaxInflight())
	if err := s.Run(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "chimera-serve:", err)
		os.Exit(1)
	}
	log.Printf("chimera-serve: drained and stopped")
}
