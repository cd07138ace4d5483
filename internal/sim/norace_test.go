//go:build !race

package sim

const raceEnabled = false
