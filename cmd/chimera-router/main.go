// chimera-router fronts a fleet of chimera-serve replicas with a
// consistent-hash request router. Requests route by the same canonical
// cache keys the serve tier memoizes under (a resolved /v1/plan request
// always lands on the replica whose caches already hold it), replica
// readiness is polled via /readyz so draining replicas are routed around
// without remapping the ring, and failed forwards retry on the key's next
// distinct ring owner.
//
// Endpoints: every serve planning endpoint is proxied (/v1/plan,
// /v1/plan:batch with per-item scatter/gather, /v1/fleet/plan,
// /v1/fleet/simulate, /v1/simulate, /v1/analyze, /v1/render,
// /v1/schedules); GET /healthz reports the router's replica view and
// GET /metrics serves the router_* series (per-replica request, error and
// failover counters, readiness gauges, forward-latency histograms).
//
// Example:
//
//	chimera-serve -addr 127.0.0.1:8642 &
//	chimera-serve -addr 127.0.0.1:8643 &
//	chimera-router -addr 127.0.0.1:8640 \
//	  -replicas http://127.0.0.1:8642,http://127.0.0.1:8643
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"chimera/internal/router"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8640", "listen address")
	replicas := flag.String("replicas", "", "comma-separated chimera-serve base URLs (required)")
	vnodes := flag.Int("vnodes", router.DefaultVNodes, "virtual nodes per replica on the hash ring")
	maxAttempts := flag.Int("max-attempts", 0, "distinct replicas tried per request (0 = min(3, replicas))")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "replica /readyz poll period")
	healthTimeout := flag.Duration("health-timeout", time.Second, "per-probe /readyz timeout")
	flag.Parse()

	var reps []string
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			reps = append(reps, r)
		}
	}
	if len(reps) == 0 {
		fmt.Fprintln(os.Stderr, "chimera-router: -replicas is required (comma-separated base URLs)")
		os.Exit(2)
	}

	rt, err := router.New(router.Config{
		Replicas:       reps,
		VNodes:         *vnodes,
		MaxAttempts:    *maxAttempts,
		HealthInterval: *healthInterval,
		HealthTimeout:  *healthTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "chimera-router:", err)
		os.Exit(2)
	}

	log.Printf("chimera-router: listening on %s, %d replicas (%s), vnodes=%d",
		*addr, len(rt.Ring().Replicas()), strings.Join(rt.Ring().Replicas(), ", "), *vnodes)
	if err := rt.Run(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "chimera-router:", err)
		os.Exit(1)
	}
	log.Printf("chimera-router: stopped")
}
