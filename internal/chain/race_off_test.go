//go:build !race

package chain_test

// poolSlack is what a warm sync.Pool may still cost an allocation
// ceiling: nothing, outside the race detector.
const poolSlack = 0

// raceDetector reports whether the race detector is on.
const raceDetector = false
