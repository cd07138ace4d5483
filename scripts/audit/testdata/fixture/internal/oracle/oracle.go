// Package oracle stands for the reference implementation only tests may
// import; its declarations are not audited.
package oracle

// Replay is the oracle's answer.
func Replay() int { return 1 }
