package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"chimera/internal/sim"
)

// TestSimulateSpeedFactorValidation: the /v1/simulate codec must enforce
// the speed-factor contract — length equal to d, factors within bounds —
// while unknown fields stay rejected.
func TestSimulateSpeedFactorValidation(t *testing.T) {
	mk := func(factors string) string {
		return `{"model":{"preset":"bert48"},"schedule":{"scheme":"chimera","d":4,"n":4},
			"micro_batch":4,"w":4,"speed_factors":` + factors + `,"platform":{"preset":"pizdaint"}}`
	}
	for _, tc := range []struct {
		name, body, want string
	}{
		{"short", mk(`[1,1.5]`), "lengths must match"},
		{"long", mk(`[1,1,1,1,1.5]`), "lengths must match"},
		{"zero", mk(`[1,0,1,1]`), "out of range"},
		{"negative", mk(`[1,-1,1,1]`), "out of range"},
		{"too-small", mk(`[1,1e-9,1,1]`), "out of range"},
		{"too-big", mk(`[1,1e9,1,1]`), "out of range"},
		{"unknown-field", strings.Replace(mk(`[1,1,1,1]`), "speed_factors", "speed_factor", 1), "unknown field"},
	} {
		var req SimulateRequest
		err := DecodeStrict(strings.NewReader(tc.body), &req)
		if err == nil {
			_, err = req.Spec()
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: want error mentioning %q, got %v", tc.name, tc.want, err)
		}
	}

	var req SimulateRequest
	if err := DecodeStrict(strings.NewReader(mk(`[1,1.5,1,1]`)), &req); err != nil {
		t.Fatal(err)
	}
	spec, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if want := sim.EncodeSpeedFactors([]float64{1, 1.5, 1, 1}); spec.SpeedFactors != want {
		t.Fatalf("spec.SpeedFactors = %q, want %q", spec.SpeedFactors, want)
	}
}

// TestPlanSpeedFactorValidation: /v1/plan factors fix the pipeline depth,
// so the list must be an even legal depth dividing p.
func TestPlanSpeedFactorValidation(t *testing.T) {
	mk := func(factors string) string {
		return `{"model":{"preset":"bert48"},"p":16,"mini_batch":128,"max_b":16,
			"speed_factors":` + factors + `,"platform":{"preset":"pizdaint"}}`
	}
	for _, tc := range []struct {
		name, body, want string
	}{
		{"odd", mk(`[1,1,1]`), "even length"},
		{"single", mk(`[1]`), "even length"},
		{"not-dividing", mk(`[1,1,1,1,1,1]`), "must divide p"},
		{"zero", mk(`[1,0,1,1]`), "out of range"},
	} {
		var req PlanRequest
		err := DecodeStrict(strings.NewReader(tc.body), &req)
		if err == nil {
			_, err = req.Resolve()
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: want error mentioning %q, got %v", tc.name, tc.want, err)
		}
	}

	var req PlanRequest
	if err := DecodeStrict(strings.NewReader(mk(`[1,1,2,1]`)), &req); err != nil {
		t.Fatal(err)
	}
	preq, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if want := sim.EncodeSpeedFactors([]float64{1, 1, 2, 1}); preq.SpeedFactors != want {
		t.Fatalf("plan SpeedFactors = %q, want %q", preq.SpeedFactors, want)
	}
}

// TestPlanSpeedFactorsBoundTheSchedule: speed factors make the planner build
// the candidate's schedule, whose N the micro-batch search takes to
// mini_batch·d/p at b = 1, so /v1/plan bounds d·n as /v1/simulate does. A
// request past the bound is refused before it reaches the engine — no
// schedule miss — and one at the bound resolves.
func TestPlanSpeedFactorsBoundTheSchedule(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	mk := func(p, miniBatch int, factors string) string {
		return fmt.Sprintf(`{"model":{"preset":"bert48"},"p":%d,"mini_batch":%d,"max_b":1,"speed_factors":%s,"platform":{"preset":"pizdaint"}}`,
			p, miniBatch, factors)
	}
	eight := `[1,1,1,1,1,1,1,1.5]`
	status, body := post(t, ts, "/v1/plan", mk(8, MaxMiniBatch, eight))
	if status != http.StatusBadRequest || !strings.Contains(string(body), "d=8 n=1048576 exceeds the limits (d·n ≤ 1048576)") {
		t.Fatalf("an oversized speed-factor plan answered %d: %s", status, body)
	}
	if st := s.Engine().Stats(); st.ScheduleMisses != 0 {
		t.Fatalf("the refused request built %d schedules", st.ScheduleMisses)
	}
	for _, c := range []struct {
		p, miniBatch int
		ok           bool
	}{
		{8, MaxScheduleOps / 8, true},      // d·n at the bound
		{8, MaxScheduleOps/8 + 8, false},   // one n past it
		{16, MaxScheduleOps / 4, true},     // two pipelines of depth 8
		{16, MaxScheduleOps/4 + 16, false}, // past it
	} {
		var req PlanRequest
		if err := DecodeStrict(strings.NewReader(mk(c.p, c.miniBatch, eight)), &req); err != nil {
			t.Fatal(err)
		}
		if _, err := req.Resolve(); (err == nil) != c.ok {
			t.Errorf("p=%d mini_batch=%d: resolve error %v, want accepted %v", c.p, c.miniBatch, err, c.ok)
		}
	}
}

// TestSimulateHonorsSpeedFactors: a served straggler simulation must report
// lower throughput than the homogeneous run of the same configuration, and
// all-1 factors must match it exactly.
func TestSimulateHonorsSpeedFactors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mk := func(factors string) string {
		body := `{"model":{"preset":"bert48"},"schedule":{"scheme":"chimera","d":4,"n":4},
			"micro_batch":4,"w":4,"auto_recompute":true`
		if factors != "" {
			body += `,"speed_factors":` + factors
		}
		return body + `,"platform":{"preset":"pizdaint"}}`
	}
	run := func(factors string) SimulateResponse {
		status, body := post(t, ts, "/v1/simulate", mk(factors))
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		var out SimulateResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := run("")
	unit := run(`[1,1,1,1]`)
	if !reflect.DeepEqual(base, unit) {
		t.Fatalf("unit factors changed the served result: %+v vs %+v", base, unit)
	}
	slow := run(`[1,1,2,1]`)
	if !(slow.Throughput < base.Throughput) {
		t.Fatalf("straggler throughput %.2f not below homogeneous %.2f", slow.Throughput, base.Throughput)
	}
	if !(slow.IterTime > base.IterTime) {
		t.Fatalf("straggler iter %.6f not above homogeneous %.6f", slow.IterTime, base.IterTime)
	}
}

// TestPlanHonorsSpeedFactors: a served heterogeneous plan is restricted to
// the factor list's depth and must predict lower throughput than the same
// depth planned homogeneously.
func TestPlanHonorsSpeedFactors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	run := func(factors string) PlanResponse {
		body := `{"model":{"preset":"bert48"},"p":16,"mini_batch":128,"max_b":16`
		if factors != "" {
			body += `,"speed_factors":` + factors
		}
		body += `,"platform":{"preset":"pizdaint"}}`
		status, raw := post(t, ts, "/v1/plan", body)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, raw)
		}
		var out PlanResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	hom := run(`[1,1,1,1]`)
	het := run(`[1,1,2,1]`)
	if len(hom.Predictions) == 0 || len(het.Predictions) == 0 {
		t.Fatalf("empty predictions: hom=%d het=%d", len(hom.Predictions), len(het.Predictions))
	}
	for _, p := range append(hom.Predictions, het.Predictions...) {
		if p.D != 4 {
			t.Fatalf("factors of length 4 must restrict the search to D=4, got D=%d", p.D)
		}
	}
	if !(het.Predictions[0].Throughput < hom.Predictions[0].Throughput) {
		t.Fatalf("heterogeneous plan throughput %.2f not below homogeneous %.2f",
			het.Predictions[0].Throughput, hom.Predictions[0].Throughput)
	}
}
