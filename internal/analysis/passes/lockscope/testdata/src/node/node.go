// Package node is a lockscope fixture: a mutex named exactly "mu" is
// the short-scope bookkeeping lock and must not be held across blocking
// work, while releasing before the blocking call is fine and a
// select with a default never blocks.
package node

import (
	"sync"
	"time"

	"persist"
)

// T carries the checked short-scope lock.
type T struct {
	mu sync.Mutex
}

// Sleepy blocks on the clock while holding the bookkeeping lock.
func (t *T) Sleepy() {
	t.mu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep while holding t.mu`
	t.mu.Unlock()
}

// Send parks on an unbuffered channel under the lock.
func (t *T) Send(ch chan int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ch <- 1 // want `channel send while holding t.mu`
}

// CommitUnderMu is a group-commit loop that keeps the bookkeeping lock
// across the WAL's fsync.
func (t *T) CommitUnderMu(l *persist.Log, queue []int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return l.AppendGroup(queue) // want `persistence I/O \(persist.Log.AppendGroup\) while holding t.mu`
}

// Good releases before blocking: no finding.
func (t *T) Good() {
	t.mu.Lock()
	n := 1
	_ = n
	t.mu.Unlock()
	time.Sleep(time.Millisecond)
}

// TryNotify uses a non-blocking send: select with default never parks,
// so holding mu across it is fine.
func (t *T) TryNotify(ch chan int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case ch <- 1:
	default:
	}
}
