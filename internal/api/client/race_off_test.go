//go:build !race

package client

// raceDetector reports whether the race detector is on: it is not.
const raceDetector = false
