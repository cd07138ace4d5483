//go:build !race

package controller

const raceEnabled = false
