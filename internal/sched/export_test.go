package sched

// RaceFallbacks reads the fallback counter for the external tests.
func RaceFallbacks() uint64 { return raceFallbacks.Load() }
