package controller

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"chimera/internal/fleet"
)

// encodedAllocation is one version's allocation with its encoding: raw is
// json.Marshal(shares), and share i's object is raw[start(i):ends[i]]. It is
// immutable once built, so a reply, a stream frame or a what-if fork reads
// it without the state lock while the next batch builds its successor.
type encodedAllocation struct {
	version uint64 // the batch count it encodes
	shares  []fleet.FinalShare
	ends    []int
	raw     []byte
}

// start is the offset of share i's object in raw: just past the '[' or the
// ',' before it.
func (a *encodedAllocation) start(i int) int {
	if i == 0 {
		return 1
	}
	return a.ends[i-1] + 1
}

// encode builds version's encoding of next against base (nil encodes every
// share): a share identical to base's share of the same trace reuses base's
// bytes, any other is written by appendShare. Shares arrive in ascending
// trace order (residents in arrival order), so one merge walk finds each
// match; a share out of that order is only a miss, never a wrong body. A
// NaN or infinite float is an error, as it is for json.Marshal.
func (base *encodedAllocation) encode(version uint64, next []fleet.FinalShare) (*encodedAllocation, error) {
	a := &encodedAllocation{version: version, shares: next}
	if next == nil {
		a.raw = []byte("null")
		return a, nil
	}
	var old []fleet.FinalShare
	size := 2 + 160*len(next)
	if base != nil && len(base.shares) > 0 {
		old = base.shares
		size = 2 + (len(base.raw)/len(old)+8)*len(next)
	}
	a.ends = make([]int, len(next))
	raw := append(make([]byte, 0, size), '[')
	j := 0
	for i, s := range next {
		if i > 0 {
			raw = append(raw, ',')
		}
		for j < len(old) && old[j].Trace < s.Trace {
			j++
		}
		if j < len(old) && sameShare(old[j], s) {
			raw = append(raw, base.raw[base.start(j):base.ends[j]]...)
			j++
		} else {
			var err error
			if raw, err = appendShare(raw, s); err != nil {
				return nil, err
			}
		}
		a.ends[i] = len(raw)
	}
	a.raw = append(raw, ']')
	return a, nil
}

// sameShare reports whether a and b encode to the same bytes: floats are
// compared by their bits, since 0 and -0 are == but encode apart.
func sameShare(a, b fleet.FinalShare) bool {
	return a.Job == b.Job && a.Trace == b.Trace && a.Nodes == b.Nodes &&
		a.W == b.W && a.D == b.D && a.B == b.B &&
		math.Float64bits(a.Throughput) == math.Float64bits(b.Throughput) &&
		math.Float64bits(a.Weighted) == math.Float64bits(b.Weighted)
}

// appendShare appends s's JSON object exactly as json.Marshal writes a
// fleet.FinalShare.
func appendShare(b []byte, s fleet.FinalShare) ([]byte, error) {
	b = appendQuoted(append(b, `{"job":`...), s.Job)
	b = strconv.AppendInt(append(b, `,"trace":`...), int64(s.Trace), 10)
	b = strconv.AppendInt(append(b, `,"nodes":`...), int64(s.Nodes), 10)
	b = strconv.AppendInt(append(b, `,"w":`...), int64(s.W), 10)
	b = strconv.AppendInt(append(b, `,"d":`...), int64(s.D), 10)
	b = strconv.AppendInt(append(b, `,"b":`...), int64(s.B), 10)
	b, err := appendFloat(append(b, `,"throughput":`...), s.Throughput)
	if err != nil {
		return nil, fmt.Errorf("controller: throughput of trace %d: %w", s.Trace, err)
	}
	if b, err = appendFloat(append(b, `,"weighted":`...), s.Weighted); err != nil {
		return nil, fmt.Errorf("controller: weighted throughput of trace %d: %w", s.Trace, err)
	}
	return append(b, '}'), nil
}

// appendFloat appends f as encoding/json writes a float64: 'f' format, or
// 'e' below 1e-6 or from 1e21 in magnitude, with a one-digit negative
// exponent unpadded (e-7, not e-07).
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("unsupported value %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendQuoted appends s as encoding/json quotes a string: HTML-escaped
// (<, >, & as \u003c, \u003e, \u0026), control bytes escaped, each invalid
// UTF-8 byte as \ufffd, and U+2028 and U+2029 escaped.
func appendQuoted(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
