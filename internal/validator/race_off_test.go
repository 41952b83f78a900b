//go:build !race

package validator

// racePerTx is what the race detector adds to a per-transaction
// allocation ceiling: nothing, outside it.
const racePerTx = 0

// raceDetector reports whether the race detector is on: it is not.
const raceDetector = false
