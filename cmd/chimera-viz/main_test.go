package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"chimera/internal/serve"
)

// TestMain runs main when the test binary is started under the CLI's own
// name, which is how TestRefusesWithTheCodecsMessage drives the real flag
// parsing and exit codes.
func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == "chimera-viz" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRefusesWithTheCodecsMessage: a flag set /v1/render would answer with
// a 400 exits 1 with exactly that 400's message and prints nothing, before
// any schedule is built: a D·N far above the op cap must not be allocated.
func TestRefusesWithTheCodecsMessage(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		edit func(*serve.ScheduleRef)
	}{
		{[]string{"-d", "1024", "-n", "1025"}, func(r *serve.ScheduleRef) { r.D, r.N = 1024, 1025 }},
		{[]string{"-d", "100000", "-n", "100000"}, func(r *serve.ScheduleRef) { r.D, r.N = 100000, 100000 }},
		{[]string{"-scheme", "gpipe", "-n", "4097"}, func(r *serve.ScheduleRef) { r.Scheme, r.N, r.F, r.Concat = "gpipe", 4097, 0, "" }},
		{[]string{"-scheme", "gpipe", "-f", "2"}, func(r *serve.ScheduleRef) { r.Scheme, r.F = "gpipe", 2 }},
		{[]string{"-scheme", "gpipe", "-concat", "doubling"}, func(r *serve.ScheduleRef) { r.Scheme, r.Concat = "gpipe", "doubling" }},
		{[]string{"-concat", "bogus"}, func(r *serve.ScheduleRef) { r.Concat = "bogus" }},
		{[]string{"-scheme", "bogus"}, func(r *serve.ScheduleRef) { r.Scheme = "bogus" }},
		{[]string{"-d", "0"}, func(r *serve.ScheduleRef) { r.D = 0 }},
		{[]string{"-f", "-1"}, func(r *serve.ScheduleRef) { r.F = -1 }},
	} {
		ref := serve.ScheduleRef{Scheme: "chimera", D: 4, N: 4, F: 1, Concat: "direct"}
		tc.edit(&ref)
		_, err := ref.Key()
		if err == nil {
			t.Fatalf("%v: the codec accepts the reference this case expects it to refuse", tc.args)
		}
		cmd := exec.Command(exe, tc.args...)
		cmd.Args[0] = "chimera-viz"
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		code := 0
		if err := cmd.Run(); err != nil {
			exit, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatal(err)
			}
			code = exit.ExitCode()
		}
		if want := "chimera-viz: " + err.Error() + "\n"; code != 1 || stderr.String() != want || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stderr %q, stdout %q; want exit 1, stderr %q", tc.args, code, stderr.String(), stdout.String(), want)
		}
	}
}
