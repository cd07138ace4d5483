//go:build race

package schedule

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
