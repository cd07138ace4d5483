package shapes

import "testing"

func TestTestOnly(t *testing.T) {
	r := &Ring{n: limit}
	if r.Len() != limit || helper() != 1 {
		t.Fatal("test-only declarations disagree")
	}
}
