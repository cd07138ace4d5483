package controller

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"chimera/internal/fleet"
)

// fuzzFloats are the float64 values a fuzzed share draws from besides the
// two the fuzzer picks: both edges of encoding/json's 'e' cut-offs, zeros
// of both signs and subnormals.
var fuzzFloats = []float64{
	0, math.Copysign(0, -1), 1, -2.5, 1234.5678, 1.0 / 3,
	1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1e-10, 1e-100,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 1e100,
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.Nextafter(2.2250738585072014e-308, 0),
	math.MaxFloat64,
}

// fuzzShares decodes an allocation, six bytes a share: job (from jobs,
// split at '|'), trace (-2..13, so traces repeat and fall out of order),
// nodes and w, d and b, and the two floats (indices into fuzzFloats, then x
// and y), at most 64 shares. An empty data is the nil allocation; a shorter
// one, the empty one.
func fuzzShares(data []byte, jobs string, x, y float64) []fleet.FinalShare {
	if len(data) == 0 {
		return nil
	}
	names := strings.Split(jobs, "|")
	floats := append(fuzzFloats[:len(fuzzFloats):len(fuzzFloats)], x, y)
	shares := []fleet.FinalShare{}
	for ; len(data) >= 6 && len(shares) < 64; data = data[6:] {
		shares = append(shares, fleet.FinalShare{
			Job:        names[int(data[0])%len(names)],
			Trace:      int(data[1]%16) - 2,
			Nodes:      int(data[2] & 0x3f),
			W:          int(data[2]>>6) + 1,
			D:          2 * int(data[3]&0x7),
			B:          int(data[3] >> 3),
			Throughput: floats[int(data[4])%len(floats)],
			Weighted:   floats[int(data[5])%len(floats)],
		})
	}
	return shares
}

// FuzzAllocationEncoding holds the spliced encoding to json.Marshal: from a
// fuzzed base allocation, the next one's encoding must be json.Marshal of
// it byte for byte, each share's recorded span must be that share's own
// encoding, and a NaN or infinity must fail exactly where json.Marshal
// fails. Reuse must never carry a base share's bytes onto a share that
// encodes differently (another job, -0 for 0, a duplicate trace).
func FuzzAllocationEncoding(f *testing.F) {
	// Float indices: 0 is 0, 1 is -0, 6-20 the special values, 21 x, 22 y.
	const jobs = "bert-production|gpt2-research|<script>&amp;|\xff\xfe|a b c|q\"\\\n\t\x00\x7f\b\f|\u00e9\u4e2d\u2028x\u2029|\x1f\xe2\x80"
	// Ascending traces, the live order: one share changed, one added, one gone.
	f.Add([]byte{0, 2, 8, 9, 2, 3, 1, 3, 4, 9, 4, 5, 2, 5, 1, 1, 6, 2},
		[]byte{0, 2, 8, 9, 2, 3, 1, 3, 4, 9, 4, 6, 3, 6, 1, 1, 21, 22}, jobs, 0.25, 7.0)
	// Unsorted and duplicated traces on both sides.
	f.Add([]byte{0, 9, 8, 9, 2, 3, 1, 3, 4, 9, 4, 5, 2, 3, 4, 9, 4, 5},
		[]byte{2, 3, 4, 9, 4, 5, 0, 9, 8, 9, 2, 3, 1, 3, 4, 9, 4, 5, 1, 3, 4, 9, 4, 6}, jobs, 1e-6, 1e21)
	// Same trace and numbers under another job; 0 against -0.
	f.Add([]byte{3, 4, 1, 1, 0, 0, 4, 5, 1, 1, 1, 1},
		[]byte{4, 4, 1, 1, 0, 0, 4, 5, 1, 1, 1, 0, 5, 6, 1, 1, 0, 1}, jobs, -1e-7, 5e-324)
	// Every special float, and the fuzzer's own two.
	f.Add([]byte{6, 1, 2, 3, 6, 7, 6, 2, 2, 3, 8, 9, 6, 3, 2, 3, 10, 11, 6, 4, 2, 3, 12, 13, 6, 5, 2, 3, 14, 15,
		6, 6, 2, 3, 16, 17, 6, 7, 2, 3, 18, 19, 6, 8, 2, 3, 20, 21, 6, 9, 2, 3, 22, 0},
		[]byte{0, 1, 2, 3, 6, 7, 6, 2, 2, 3, 8, 9, 1, 3, 2, 3, 1, 0, 6, 4, 2, 3, 12, 13, 6, 9, 2, 3, 22, 0}, jobs, 1e-7, -1e22)
	// NaN and infinities, in the next allocation and in the base.
	f.Add([]byte{0, 1, 2, 3, 2, 2}, []byte{0, 1, 2, 3, 2, 2, 1, 2, 2, 3, 2, 22}, jobs, 1.5, math.NaN())
	f.Add([]byte{0, 1, 2, 3, 21, 2}, []byte{0, 1, 2, 3, 2, 2}, jobs, math.Inf(1), 1.5)
	f.Add([]byte{0, 1, 2, 3, 2, 2}, []byte{0, 1, 2, 3, 21, 2}, "", math.Inf(-1), 1.5)
	// Nil and empty allocations on either side.
	f.Add([]byte{}, []byte{0, 1, 2, 3, 2, 2}, jobs, 1.0, 2.0)
	f.Add([]byte{0, 1, 2, 3, 2, 2}, []byte{}, jobs, 1.0, 2.0)
	f.Add([]byte{0, 1, 2, 3, 2, 2}, []byte{9}, jobs, 1.0, 2.0)
	f.Fuzz(func(t *testing.T, baseData, nextData []byte, jobs string, x, y float64) {
		var base *encodedAllocation
		if shares := fuzzShares(baseData, jobs, x, y); shares != nil {
			want, wantErr := json.Marshal(shares)
			enc, err := (*encodedAllocation)(nil).encode(0, shares)
			checkEncoding(t, "base", shares, enc, err, want, wantErr)
			base = enc
		}
		next := fuzzShares(nextData, jobs, x, y)
		want, wantErr := json.Marshal(next)
		enc, err := base.encode(1, next)
		checkEncoding(t, "next", next, enc, err, want, wantErr)
	})
}

// checkEncoding requires enc to be json.Marshal's encoding of shares (or
// both to fail), with each share's span its own encoding.
func checkEncoding(t *testing.T, side string, shares []fleet.FinalShare, enc *encodedAllocation, err error, want []byte, wantErr error) {
	t.Helper()
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: encode error %v, json.Marshal error %v", side, err, wantErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(enc.raw, want) {
		t.Fatalf("%s: encoded\n%s\nwant\n%s", side, enc.raw, want)
	}
	for i, s := range shares {
		one, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := enc.raw[enc.start(i):enc.ends[i]]; !bytes.Equal(got, one) {
			t.Fatalf("%s: share %d spans %s, want %s", side, i, got, one)
		}
	}
}

// TestEncodeReusesUnchangedShares pins the reuse no reply byte shows: an
// unchanged share costs encode no allocation, so 64 shares against an
// identical base allocate as often as 1 (the allocation, its ends and its
// bytes), and each changed share adds the same constant (json.Marshal's).
// json.Marshal draws its buffer from a sync.Pool, which drops Puts on
// purpose under the race detector, so there the counts are logged, not
// asserted.
func TestEncodeReusesUnchangedShares(t *testing.T) {
	shares := func(n int) []fleet.FinalShare {
		s := make([]fleet.FinalShare, n)
		for i := range s {
			s[i] = fleet.FinalShare{Job: "gpt2-research", Trace: i, Nodes: 8, W: 2, D: 4, B: 16, Throughput: 1.5, Weighted: 3}
		}
		return s
	}
	// allocs encodes n shares, the first changed of them with another
	// throughput of the same width, against base's n.
	allocs := func(n, changed int) float64 {
		base, err := (*encodedAllocation)(nil).encode(0, shares(n))
		if err != nil {
			t.Fatal(err)
		}
		next := shares(n)
		for i := range next[:changed] {
			next[i].Throughput = 2.5
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := base.encode(1, next); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, all := allocs(1, 0), allocs(64, 0)
	perChange := allocs(64, 1) - all
	eight := allocs(64, 8)
	if raceEnabled {
		t.Logf("under -race (not gated): 1 share %v allocs, 64 shares %v, +%v for one change, %v for eight", one, all, perChange, eight)
		return
	}
	if all != one {
		t.Fatalf("64 unchanged shares allocate %v times, 1 allocates %v: an unchanged share is re-encoded", all, one)
	}
	if perChange <= 0 || eight != all+8*perChange {
		t.Fatalf("one changed share adds %v allocations and eight take %v against %v unchanged, want a positive constant per change", perChange, eight, all)
	}
	t.Logf("%v allocs unchanged, +%v per changed share", all, perChange)
}
