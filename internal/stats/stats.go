// Package stats provides the small formatting helpers shared by the
// experiment harnesses.
package stats

import "fmt"

// Speedup formats a ratio like the paper ("1.38x").
func Speedup(fast, slow float64) string {
	if fast <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", slow/fast)
}

// GiB formats bytes as GiB with two decimals.
func GiB(b int64) string { return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30)) }
