//go:build race

package validator

// racePerTx is what the race detector adds to a per-transaction
// allocation ceiling: it drops a quarter of the objects put back in a
// sync.Pool, and a dropped root is rebuilt with its slices.
const racePerTx = 2

// raceDetector reports whether the race detector is on: it is, so an
// allocation ceiling takes its value for -race.
const raceDetector = true
