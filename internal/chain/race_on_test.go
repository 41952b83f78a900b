//go:build race

package chain_test

// poolSlack is what a warm sync.Pool may still cost an allocation ceiling
// under the race detector, which drops a quarter of the objects put back.
const poolSlack = 1

// raceDetector reports whether the race detector is on.
const raceDetector = true
