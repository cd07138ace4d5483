//go:build race

package controller

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
