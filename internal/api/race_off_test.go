//go:build !race

package api

// raceDetector reports whether the race detector is on: it is not.
const raceDetector = false
