package stats

import "testing"

func TestSpeedupAndGiB(t *testing.T) {
	if s := Speedup(2, 3); s != "1.50x" {
		t.Fatalf("speedup %q", s)
	}
	if s := Speedup(0, 3); s != "n/a" {
		t.Fatalf("speedup %q", s)
	}
	if g := GiB(1 << 30); g != "1.00 GiB" {
		t.Fatalf("gib %q", g)
	}
}
