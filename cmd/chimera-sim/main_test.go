package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"chimera/internal/serve"
)

// TestMain runs main when the test binary is started under the CLI's own
// name, which is how runCLI drives the real flag parsing and exit codes.
func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == "chimera-sim" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs chimera-sim with args and returns its stdout, stderr and
// exit code.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Args[0] = "chimera-sim"
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		exit, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatal(err)
		}
		code = exit.ExitCode()
	}
	return out.String(), errOut.String(), code
}

// request is the /v1/simulate body chimera-sim's default flags stand for
// (-bhat 512 over W·B = 64 gives N = 8), edited by one case.
func request(edit func(*serve.SimulateRequest)) serve.SimulateRequest {
	r := serve.SimulateRequest{
		Model:      serve.ModelRef{Preset: "bert48"},
		Schedule:   serve.ScheduleRef{Scheme: "chimera", D: 4, N: 8, F: 1, Concat: "direct", Scheduler: "fixed"},
		MicroBatch: 8, W: 8, AutoRecompute: true,
		Platform: serve.PlatformRef{Preset: "pizdaint"},
	}
	edit(&r)
	return r
}

// TestRefusesWithTheCodecsMessage: a flag set /v1/simulate would answer
// with a 400 exits 1 with exactly that 400's message and prints nothing;
// deriving N must not divide by a -w or -b of 0.
func TestRefusesWithTheCodecsMessage(t *testing.T) {
	for _, tc := range []struct {
		args []string
		edit func(*serve.SimulateRequest)
	}{
		{[]string{"-b", "0"}, func(r *serve.SimulateRequest) { r.MicroBatch = 0 }},
		{[]string{"-w", "0"}, func(r *serve.SimulateRequest) { r.W = 0 }},
		{[]string{"-b", "-8"}, func(r *serve.SimulateRequest) { r.MicroBatch = -8 }},
		{[]string{"-scheme", "gpipe", "-f", "2"}, func(r *serve.SimulateRequest) { r.Schedule.Scheme, r.Schedule.F = "gpipe", 2 }},
		{[]string{"-scheme", "gpipe", "-concat", "doubling"}, func(r *serve.SimulateRequest) { r.Schedule.Scheme, r.Schedule.Concat = "gpipe", "doubling" }},
		{[]string{"-concat", "bogus"}, func(r *serve.SimulateRequest) { r.Schedule.Concat = "bogus" }},
		{[]string{"-scheme", "bogus"}, func(r *serve.SimulateRequest) { r.Schedule.Scheme = "bogus" }},
		{[]string{"-scheduler", "bogus"}, func(r *serve.SimulateRequest) { r.Schedule.Scheduler = "bogus" }},
		{[]string{"-d", "1024", "-w", "1", "-b", "1", "-bhat", "1025"}, func(r *serve.SimulateRequest) {
			r.Schedule.D, r.Schedule.N, r.W, r.MicroBatch = 1024, 1025, 1, 1
		}},
		{[]string{"-model", "bogus"}, func(r *serve.SimulateRequest) { r.Model.Preset = "bogus" }},
		{[]string{"-platform", "bogus"}, func(r *serve.SimulateRequest) { r.Platform.Preset = "bogus" }},
		{[]string{"-speed", "1,2"}, func(r *serve.SimulateRequest) { r.SpeedFactors = []float64{1, 2} }},
	} {
		_, err := request(tc.edit).Spec()
		if err == nil {
			t.Fatalf("%v: the codec accepts the request this case expects it to refuse", tc.args)
		}
		stdout, stderr, code := runCLI(t, tc.args...)
		if want := "chimera-sim: " + err.Error() + "\n"; code != 1 || stderr != want || stdout != "" {
			t.Errorf("%v: exit %d, stderr %q, stdout %q; want exit 1, stderr %q", tc.args, code, stderr, stdout, want)
		}
	}
}

// TestJSONIsTheSimulateBody: chimera-sim -json prints what POST
// /v1/simulate answers for the same request, indented.
func TestJSONIsTheSimulateBody(t *testing.T) {
	srv := serve.New(serve.Config{}).Handler()
	for _, tc := range []struct {
		args []string
		edit func(*serve.SimulateRequest)
	}{
		{[]string{"-json", "-d", "4", "-w", "8", "-b", "8"}, func(*serve.SimulateRequest) {}},
		{[]string{"-json", "-model", "gpt2-32", "-d", "8", "-w", "4", "-b", "4", "-bhat", "256", "-speed", "1,1,1,1,1.5,1,1,1", "-scheduler", "heft"},
			func(r *serve.SimulateRequest) {
				r.Model.Preset, r.W, r.MicroBatch = "gpt2-32", 4, 4
				r.Schedule.D, r.Schedule.N, r.Schedule.Scheduler = 8, 16, "heft"
				r.SpeedFactors = []float64{1, 1, 1, 1, 1.5, 1, 1, 1}
			}},
		{[]string{"-json", "-scheme", "gpipe", "-recompute"}, func(r *serve.SimulateRequest) {
			r.Schedule.Scheme, r.Schedule.F, r.Schedule.Concat = "gpipe", 0, ""
			r.Recompute, r.AutoRecompute = true, false
		}},
	} {
		body, err := json.Marshal(request(tc.edit))
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec,
			httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%v: POST /v1/simulate answered %d: %s", tc.args, rec.Code, rec.Body)
		}
		var want bytes.Buffer
		if err := json.Indent(&want, rec.Body.Bytes(), "", "  "); err != nil {
			t.Fatal(err)
		}
		want.WriteByte('\n') // the CLI prints a line, the service writes no newline
		stdout, stderr, code := runCLI(t, tc.args...)
		if code != 0 || stdout != want.String() {
			t.Errorf("%v: exit %d (stderr %q), stdout\n%s\nwant the /v1/simulate body\n%s", tc.args, code, stderr, stdout, want.String())
		}
	}
}
