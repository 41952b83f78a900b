package stm

import (
	"sort"
	"sync"

	"contractstm/internal/gas"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
)

// Manager is the abstract-lock table for one block being mined. It tracks
// holders, waiters, per-lock use counters, and the wait-for graph used for
// deadlock detection. A miner creates a fresh Manager per block, which
// implements the paper's "when a miner starts a block, it sets these
// counters to zero".
//
// Manager is safe for concurrent use by multiple threads (real or
// simulated); all state is guarded by a single mutex. Blocking waits never
// hold the mutex: a waiter enqueues itself, releases the mutex, and parks on
// its runtime.Thread until granted.
//
// Deadlock detection stays complete with two kinds of waiter. A request
// that must block is refused when its wait-for edge would close a cycle, so
// no cycle ever forms among transactions that hold locks. A refused victim
// aborts and then waits, holding nothing, until the lock it was refused
// could be granted to it (awaitGrantable): nothing can wait for a
// transaction that holds nothing, so it has no incoming wait-for edge, lies
// on no cycle and is left out of waitingOn. That wait is what bounds a
// victim's retries by other transactions' releases: retrying at once would
// re-take the shared lock past a queued upgrader (grants are
// compatibility-driven) and be refused again, without end on threads whose
// backoff Work costs no time.
type Manager struct {
	mu    sync.Mutex
	sched gas.Schedule
	locks map[LockID]*lockState
	// waitingOn maps a root transaction to its (single) pending lock
	// request; it is the wait-for graph's edge source.
	waitingOn map[*Tx]*waiter
	// stats
	acquisitions uint64
	waits        uint64
	deadlocks    uint64
}

// lockState is one abstract lock's runtime state.
type lockState struct {
	// holders maps each holding root transaction to its (combined) mode.
	holders map[*Tx]Mode
	// waiters are pending requests in arrival order. Grants are
	// compatibility-driven rather than strictly FIFO: a compatible waiter
	// behind an incompatible one is granted anyway, so the only blocking
	// relation is waiter→holder, which keeps deadlock detection complete.
	waiters []*waiter
	// counter is the paper's use counter: incremented once per lock per
	// committing (or reverting) holder.
	counter uint64
}

// waiter is one blocked lock request.
type waiter struct {
	tx      *Tx
	thread  runtime.Thread
	lock    LockID
	mode    Mode // the full target mode (combined, for upgrades)
	granted bool
	// probe marks an aborted victim's wait (awaitGrantable): it is woken
	// when the lock becomes grantable but is not made a holder.
	probe bool
}

// NewManager returns an empty lock table using the given cost schedule.
func NewManager(sched gas.Schedule) *Manager {
	return &Manager{
		sched:     sched,
		locks:     make(map[LockID]*lockState),
		waitingOn: make(map[*Tx]*waiter),
	}
}

// Stats reports cumulative counters for diagnostics and benchmarks.
type Stats struct {
	// Acquisitions counts granted lock requests (including upgrades).
	Acquisitions uint64
	// Waits counts requests that had to block before being granted.
	Waits uint64
	// Deadlocks counts requests refused with ErrDeadlock.
	Deadlocks uint64
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Acquisitions: m.acquisitions, Waits: m.waits, Deadlocks: m.deadlocks}
}

// acquire obtains lock l in mode mode on behalf of root, blocking while
// incompatible holders exist. It returns ErrDeadlock when blocking would
// close a wait-for cycle; the caller must then abort the transaction.
// On success the caller's root.held has been updated.
func (m *Manager) acquire(root *Tx, th runtime.Thread, l LockID, mode Mode) error {
	m.mu.Lock()
	ls := m.locks[l]
	if ls == nil {
		ls = &lockState{holders: make(map[*Tx]Mode)}
		m.locks[l] = ls
	}

	target := mode
	if cur, held := ls.holders[root]; held {
		target = Combine(cur, mode)
		if target == cur {
			// Already held strongly enough.
			m.mu.Unlock()
			return nil
		}
	}

	if m.grantable(ls, root, target) {
		ls.holders[root] = target
		root.held[l] = target
		m.acquisitions++
		m.mu.Unlock()
		return nil
	}

	// Must wait. Refuse immediately if waiting would deadlock: the
	// requester whose edge closes the cycle is always the victim, so
	// detection at enqueue time is complete.
	if m.wouldDeadlock(root, ls, target) {
		m.deadlocks++
		root.refusedLock, root.refusedMode = l, target
		m.mu.Unlock()
		return ErrDeadlock
	}
	w := &waiter{tx: root, thread: th, lock: l, mode: target}
	ls.waiters = append(ls.waiters, w)
	m.waitingOn[root] = w
	m.waits++
	m.mu.Unlock()

	m.park(w)
	root.held[l] = w.mode
	return nil
}

// awaitGrantable parks root's thread until lock l could be granted in mode
// to root, an aborted deadlock victim that holds nothing (see the Manager
// comment). It takes no lock: the retry that follows competes for l like
// any other request.
func (m *Manager) awaitGrantable(root *Tx, l LockID, mode Mode) {
	m.mu.Lock()
	ls := m.locks[l]
	if m.grantable(ls, root, mode) {
		m.mu.Unlock()
		return
	}
	w := &waiter{tx: root, thread: root.thread, lock: l, mode: mode, probe: true}
	ls.waiters = append(ls.waiters, w)
	m.mu.Unlock()
	m.park(w)
}

// park blocks w's thread until a release grants w.
func (m *Manager) park(w *waiter) {
	for {
		w.thread.Park()
		m.mu.Lock()
		granted := w.granted
		m.mu.Unlock()
		if granted {
			return
		}
		// Spurious wake (stale token from another coordination layer):
		// park again.
	}
}

// grantable reports whether root may hold ls in the given mode right now:
// every other holder must be compatible. Called with m.mu held.
func (m *Manager) grantable(ls *lockState, root *Tx, mode Mode) bool {
	//chainvet:allow(detmap) ∀-predicate: the answer is a conjunction over holders, identical under any iteration order, and nothing per-element escapes.
	for h, hm := range ls.holders {
		if h == root {
			continue
		}
		if !Compatible(hm, mode) {
			return false
		}
	}
	return true
}

// wouldDeadlock reports whether blocking root on ls (requesting mode) closes
// a cycle: some incompatible holder (transitively) waits on a lock held by
// root. Called with m.mu held.
func (m *Manager) wouldDeadlock(root *Tx, ls *lockState, mode Mode) bool {
	visited := make(map[*Tx]bool)
	var reachesRoot func(tx *Tx) bool
	reachesRoot = func(tx *Tx) bool {
		if tx == root {
			return true
		}
		if visited[tx] {
			return false
		}
		visited[tx] = true
		w := m.waitingOn[tx]
		if w == nil {
			return false
		}
		next := m.locks[w.lock]
		//chainvet:allow(detmap) ∃-search: cycle existence is a disjunction over holders; which holder closes the cycle first does not change the verdict, and only the boolean escapes.
		for h, hm := range next.holders {
			if h == tx || Compatible(hm, w.mode) {
				continue
			}
			if reachesRoot(h) {
				return true
			}
		}
		return false
	}
	//chainvet:allow(detmap) ∃-search: same disjunction at the outer level — deadlock either exists or it does not, regardless of holder order.
	for h, hm := range ls.holders {
		if h == root || Compatible(hm, mode) {
			continue
		}
		if reachesRoot(h) {
			return true
		}
	}
	return false
}

// releaseAll drops every lock held by root. With bump=true (commit and
// revert paths) each lock's use counter is incremented and a profile entry
// recorded, per §4; with bump=false (speculative abort) the locks simply
// vanish from the schedule. Waiters that become grantable are granted and
// their threads unparked by the calling thread.
func (m *Manager) releaseAll(root *Tx, th runtime.Thread, bump bool) []ProfileEntry {
	m.mu.Lock()
	var entries []ProfileEntry
	var toWake []runtime.Thread
	//chainvet:allow(detmap) Each lock's use counter is independent, so the published counters do not depend on release order; the entries slice is sorted by lock before it returns, and wake order only races threads that re-serialize on m.mu anyway.
	for l, mode := range root.held {
		ls := m.locks[l]
		if ls == nil {
			continue
		}
		if bump {
			ls.counter++
			entries = append(entries, ProfileEntry{Lock: l, Mode: mode, Counter: ls.counter})
		}
		delete(ls.holders, root)
		toWake = append(toWake, m.grantWaiters(ls)...)
	}
	delete(m.waitingOn, root)
	m.mu.Unlock()

	for _, t := range toWake {
		th.Unpark(t)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Lock.Less(entries[j].Lock) })
	return entries
}

// grantWaiters grants every waiter now compatible with the holders,
// returning the threads to unpark. Called with m.mu held.
func (m *Manager) grantWaiters(ls *lockState) []runtime.Thread {
	var wake []runtime.Thread
	remaining := ls.waiters[:0]
	for _, w := range ls.waiters {
		if m.grantable(ls, w.tx, w.mode) {
			w.granted = true
			wake = append(wake, w.thread)
			if !w.probe {
				ls.holders[w.tx] = w.mode
				delete(m.waitingOn, w.tx)
				m.acquisitions++
			}
			continue
		}
		remaining = append(remaining, w)
	}
	ls.waiters = remaining
	return wake
}

// Counter returns lock l's current use counter (for tests and diagnostics).
func (m *Manager) Counter(l LockID) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ls := m.locks[l]; ls != nil {
		return ls.counter
	}
	return 0
}

// ProfileEntry is one (lock, mode, use-counter) triple registered by a
// committing transaction; the block carries one Profile per transaction.
type ProfileEntry struct {
	Lock    LockID `json:"lock"`
	Mode    Mode   `json:"mode"`
	Counter uint64 `json:"counter"`
}

// Profile is the scheduling metadata one transaction contributes to the
// block (§4): the abstract locks it held at completion with their counter
// values. Entries are sorted by lock for canonical encoding.
type Profile struct {
	Tx      types.TxID     `json:"tx"`
	Entries []ProfileEntry `json:"entries"`
}

// TraceEntry is one (lock, mode) pair recorded by the validator's replay.
type TraceEntry struct {
	Lock LockID `json:"lock"`
	Mode Mode   `json:"mode"`
}

// Trace is the validator-side analogue of Profile: the locks a transaction
// would have acquired, recorded thread-locally during deterministic replay.
// Entries are deduplicated (modes combined) and sorted by lock.
type Trace struct {
	Tx      types.TxID   `json:"tx"`
	Entries []TraceEntry `json:"entries"`
}

// MatchesProfile reports whether the trace matches a miner profile: the
// same lock set with the same combined modes. Counter values are not
// compared here — they order transactions and are checked by the schedule
// verifier (internal/sched).
func (tr Trace) MatchesProfile(p Profile) bool {
	if len(tr.Entries) != len(p.Entries) {
		return false
	}
	for i, e := range tr.Entries {
		if e.Lock != p.Entries[i].Lock || e.Mode != p.Entries[i].Mode {
			return false
		}
	}
	return true
}
