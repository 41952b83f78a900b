//go:build !race

package miner

// raceDetector reports whether the race detector is on: it is not.
const raceDetector = false
