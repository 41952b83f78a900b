//go:build race

package client

// raceDetector reports whether the race detector is on. It drops a
// quarter of the objects put back in a sync.Pool, so an allocation
// ceiling needs a separate, higher value under it.
const raceDetector = true
