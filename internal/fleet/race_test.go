//go:build race

package fleet

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
