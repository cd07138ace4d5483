package main

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// openResult is the open-loop pass: latency is timed from each request's
// due time, so a stall charges every request queued behind it.
type openResult struct {
	lateShare    float64
	p50ms, p95ms float64
}

// openLoopSenders is how many connections share the fixed-rate schedule; a
// request is late when its sender was still busy at its due time.
const openLoopSenders = 4

// openLoop sends n requests of the workload's schedule through the cluster's
// router at zipfOpenRate requests per second, whatever the replies do.
// Request i is due at start + i/rate; a sender that reaches it late sends at
// once and the lateness counts towards its latency — the coordinated-
// omission view the closed loop cannot give. It is a diagnostic: its numbers
// are per-layer only.
func openLoop(c *cluster, w *zipfWorkload, n int) (openResult, error) {
	url := c.routerURL + "/v1/plan"
	lat := make([]time.Duration, n)
	var next, late, bad atomic.Int64
	var wg sync.WaitGroup
	gap := time.Second / zipfOpenRate
	start := time.Now().Add(10 * time.Millisecond)
	for range openLoopSenders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newHTTPClient()
			defer client.close()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * gap)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				} else if wait < -gap {
					late.Add(1)
				}
				k := w.sched[i]
				status, reply, end, err := client.post(url, w.bodies[k], -1)
				if err != nil || status != http.StatusOK || digest(reply) != w.golden[k] {
					bad.Add(1)
				}
				lat[i] = end.Sub(due)
			}
		}()
	}
	wg.Wait()
	if bad.Load() > 0 {
		return openResult{}, fmt.Errorf("open loop: %d of %d replies wrong or failed", bad.Load(), n)
	}
	ms := durationsUS(lat)
	return openResult{
		lateShare: float64(late.Load()) / float64(n),
		p50ms:     percentile(ms, 0.50) / 1e3,
		p95ms:     percentile(ms, 0.95) / 1e3,
	}, nil
}
