// Package persist is a lockscope fixture standing in for the real WAL:
// its Log's appends reach an fsync.
package persist

// Log is the write-ahead log.
type Log struct{}

// AppendGroup appends blocks under one fsync.
func (l *Log) AppendGroup(blocks []int) error { return nil }
