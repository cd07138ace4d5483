//go:build race

package sim

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
