package sim

import (
	"fmt"
	"strconv"
	"strings"
)

// Speed-factor bounds, shared by every entry point through
// CheckSpeedFactors and the string codec: beyond them the factor would drive
// the simulator's int64 time quantization (toQ) into overflow and wrap
// into garbage timings instead of failing loudly.
const (
	MinSpeedFactor = 1e-6
	MaxSpeedFactor = 1e6
)

// validSpeedFactor reports whether f is positive, finite, and within the
// quantization-safe bounds (NaN fails every comparison).
func validSpeedFactor(f float64) bool {
	return f >= MinSpeedFactor && f <= MaxSpeedFactor
}

// CheckSpeedFactors is the one speed-factor range check: the simulator's
// Config, the planner's wire codec, a fleet cluster and a fleet node_join
// event all run it, so they reject a factor with the same words. The error
// names the first offender as field[i], or as field alone when it is the
// only factor.
func CheckSpeedFactors(field string, factors ...float64) error {
	for i, f := range factors {
		if validSpeedFactor(f) {
			continue
		}
		if len(factors) > 1 {
			field = fmt.Sprintf("%s[%d]", field, i)
		}
		return fmt.Errorf("%s = %g out of range: a speed factor must be positive, finite and within [%g, %g]",
			field, f, float64(MinSpeedFactor), float64(MaxSpeedFactor))
	}
	return nil
}

// EncodeSpeedFactors canonically encodes per-worker speed factors as a
// comma-separated string, so cache keys that must stay comparable value
// types (engine.Spec, perfmodel.PlanRequest) can carry them. The encoding
// round-trips exactly: strconv.FormatFloat with precision -1 emits the
// shortest decimal that parses back to the same float64. An empty slice
// encodes to "" (homogeneous).
func EncodeSpeedFactors(factors []float64) string {
	if len(factors) == 0 {
		return ""
	}
	parts := make([]string, len(factors))
	for i, f := range factors {
		parts[i] = strconv.FormatFloat(f, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// DecodeSpeedFactors parses EncodeSpeedFactors' format back into a slice,
// validating that every factor is positive, finite and within
// [MinSpeedFactor, MaxSpeedFactor]. "" decodes to nil.
func DecodeSpeedFactors(enc string) ([]float64, error) {
	if enc == "" {
		return nil, nil
	}
	parts := strings.Split(enc, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("sim: bad speed factor %q: %w", p, err)
		}
		if !validSpeedFactor(f) {
			return nil, fmt.Errorf("sim: speed factor %q must be positive, finite and within [%g, %g]",
				p, float64(MinSpeedFactor), float64(MaxSpeedFactor))
		}
		out[i] = f
	}
	return out, nil
}
