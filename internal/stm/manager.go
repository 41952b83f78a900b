package stm

import (
	"slices"
	"sync"

	"contractstm/internal/gas"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
)

// Manager is the abstract-lock table for one block being mined. It tracks
// holders, waiters, per-lock use counters, and the wait-for graph used for
// deadlock detection. Every lock also keeps its history: the roots that
// committed or reverted while holding it, in use-counter order. Engines
// that run without locks settle each root into the table at its commit
// (Record), so their histories come from the same counters. The table has
// therefore already fixed the happens-before graph H when the block's last
// transaction settles; Histories hands it over, and nothing has to regroup
// the published profiles to find it again.
//
// Managers are pooled. NewManager takes one from the pool and Release
// resets it and puts it back; the reset is the paper's "when a miner starts
// a block, it sets these counters to zero". Lock states live in fixed-size
// chunks that are kept from block to block, a lock's holders and a root's
// held locks are short slices (at most one holder per worker; a root holds
// two locks on average), and a root's pending request — its wait-for edge
// — is a field on the root (Tx.blockedOn); there is no waitingOn map. A
// warm table grants a lock without allocating.
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
// on no cycle and its blockedOn stays nil. That wait is what bounds a
// victim's retries by other transactions' releases: retrying at once would
// re-take the shared lock past a queued upgrader (grants are
// compatibility-driven) and be refused again, without end on threads whose
// backoff Work costs no time. Pooling, slices and keeping the wait-for edge
// on the root instead of in a map change where the graph is stored, not
// what it is: the completeness argument is unchanged.
type Manager struct {
	mu    sync.Mutex
	sched gas.Schedule
	// index finds a lock's state; chunks own the states. A chunk never
	// moves once allocated, so the pointers held by index, waiters and
	// roots stay valid while later chunks are added, and every chunk stays
	// reachable so that the next block reuses it.
	index  map[LockID]*lockState
	chunks [][]lockState
	// used counts the lock states handed out this block: the first used
	// states of chunks, in the order the block first took each lock.
	used int
	// visited is wouldDeadlock's scratch set, kept to avoid allocating.
	visited []*Tx
	// stats
	acquisitions uint64
	waits        uint64
	deadlocks    uint64
}

// lockChunk is the number of lock states allocated together.
const lockChunk = 256

// newChunk allocates lockChunk lock states. Each starts with room for two
// holders and two history entries carved from one array per chunk, so a
// fresh table — the first block's, or one the pool dropped — allocates per
// chunk rather than per lock; a lock that outgrows its room moves to its
// own array, which the next block reuses.
func newChunk() []lockState {
	c := make([]lockState, lockChunk)
	holders := make([]holder, 2*lockChunk)
	history := make([]HistoryEntry, 2*lockChunk)
	for i := range c {
		c[i].holders = holders[2*i : 2*i : 2*i+2]
		c[i].history = history[2*i : 2*i : 2*i+2]
	}
	return c
}

// lockState is one abstract lock's runtime state.
type lockState struct {
	id LockID
	// holders lists each holding root once, with its combined mode.
	holders []holder
	// waiters are pending requests in arrival order. Grants are
	// compatibility-driven rather than strictly FIFO: a compatible waiter
	// behind an incompatible one is granted anyway, so the only blocking
	// relation is waiter→holder, which keeps deadlock detection complete.
	waiters []*waiter
	// history lists the holders that committed or reverted, in release
	// order: history[i] was released with use counter i+1, so its length
	// is the paper's use counter.
	history []HistoryEntry
}

// holder is one root holding a lock.
type holder struct {
	tx   *Tx
	mode Mode
}

// HistoryEntry is one committed (or reverted) use of an abstract lock: the
// transaction and the mode it held the lock in. A lock's history lists its
// entries in use-counter order.
type HistoryEntry struct {
	Tx   types.TxID
	Mode Mode
}

// waiter is one blocked lock request.
type waiter struct {
	tx      *Tx
	thread  runtime.Thread
	ls      *lockState
	mode    Mode // the full target mode (combined, for upgrades)
	granted bool
	// probe marks an aborted victim's wait (awaitGrantable): it is woken
	// when the lock becomes grantable but is not made a holder.
	probe bool
}

var managerPool = sync.Pool{
	New: func() any { return &Manager{index: make(map[LockID]*lockState, lockChunk)} },
}

// NewManager returns an empty lock table using the given cost schedule,
// taken from the pool. Release gives it back; a manager that is never
// released is simply collected.
func NewManager(sched gas.Schedule) *Manager {
	m := managerPool.Get().(*Manager)
	m.sched = sched
	return m
}

// Release resets the table and returns it to the pool. Call it once no
// transaction of the block is active and its histories have been read;
// the manager must not be used afterwards.
func (m *Manager) Release() {
	m.reset()
	managerPool.Put(m)
}

// reset zeroes every counter, holder, waiter and history, keeping the
// chunks, the slices' storage and the index's buckets for the next block.
func (m *Manager) reset() {
	for i := range m.used {
		ls := m.lock(i)
		clear(ls.holders)
		clear(ls.waiters)
		*ls = lockState{holders: ls.holders[:0], waiters: ls.waiters[:0], history: ls.history[:0]}
	}
	m.used = 0
	clear(m.index)
	m.acquisitions, m.waits, m.deadlocks = 0, 0, 0
}

// lock returns the i-th lock state handed out this block.
func (m *Manager) lock(i int) *lockState {
	return &m.chunks[i/lockChunk][i%lockChunk]
}

// newLock hands out the next lock state for l. Called with m.mu held.
func (m *Manager) newLock(l LockID) *lockState {
	if m.used == len(m.chunks)*lockChunk {
		m.chunks = append(m.chunks, newChunk())
	}
	ls := m.lock(m.used)
	m.used++
	ls.id = l
	m.index[l] = ls
	return ls
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
	ls := m.index[l]
	if ls == nil {
		ls = m.newLock(l)
	}

	target := mode
	if cur, held := ls.holding(root); held {
		target = Combine(cur, mode)
		if target == cur {
			// Already held strongly enough.
			m.mu.Unlock()
			return nil
		}
	}

	if ls.grantable(root, target) {
		ls.grant(root, target)
		m.acquisitions++
		m.mu.Unlock()
		root.setHeld(ls, target)
		return nil
	}

	// Must wait. Refuse immediately if waiting would deadlock: the
	// requester whose edge closes the cycle is always the victim, so
	// detection at enqueue time is complete.
	if m.wouldDeadlock(root, ls, target) {
		m.deadlocks++
		root.refused, root.refusedMode = ls, target
		m.mu.Unlock()
		return ErrDeadlock
	}
	w := &waiter{tx: root, thread: th, ls: ls, mode: target}
	ls.waiters = append(ls.waiters, w)
	root.blockedOn = w
	m.waits++
	m.mu.Unlock()

	m.park(w)
	root.setHeld(ls, target)
	return nil
}

// awaitGrantable parks root's thread until ls could be granted in mode to
// root, an aborted deadlock victim that holds nothing (see the Manager
// comment). It takes no lock: the retry that follows competes for ls like
// any other request.
func (m *Manager) awaitGrantable(root *Tx, ls *lockState, mode Mode) {
	m.mu.Lock()
	if ls.grantable(root, mode) {
		m.mu.Unlock()
		return
	}
	w := &waiter{tx: root, thread: root.thread, ls: ls, mode: mode, probe: true}
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

// holding reports root's mode on ls, if it holds ls. Called with m.mu held.
func (ls *lockState) holding(root *Tx) (Mode, bool) {
	for _, h := range ls.holders {
		if h.tx == root {
			return h.mode, true
		}
	}
	return 0, false
}

// grantable reports whether root may hold ls in the given mode right now:
// every other holder must be compatible. Called with m.mu held.
func (ls *lockState) grantable(root *Tx, mode Mode) bool {
	for _, h := range ls.holders {
		if h.tx != root && !Compatible(h.mode, mode) {
			return false
		}
	}
	return true
}

// grant makes root a holder of ls in mode, or raises the mode root already
// holds it in. Called with m.mu held.
func (ls *lockState) grant(root *Tx, mode Mode) {
	for i := range ls.holders {
		if ls.holders[i].tx == root {
			ls.holders[i].mode = mode
			return
		}
	}
	ls.holders = append(ls.holders, holder{tx: root, mode: mode})
}

// drop removes root from ls's holders. Called with m.mu held.
func (ls *lockState) drop(root *Tx) {
	for i, h := range ls.holders {
		if h.tx == root {
			last := len(ls.holders) - 1
			ls.holders[i] = ls.holders[last]
			ls.holders[last] = holder{}
			ls.holders = ls.holders[:last]
			return
		}
	}
}

// wouldDeadlock reports whether blocking root on ls (requesting mode) closes
// a cycle: some incompatible holder (transitively) waits on a lock held by
// root. Called with m.mu held.
func (m *Manager) wouldDeadlock(root *Tx, ls *lockState, mode Mode) bool {
	cycle := m.blockerReaches(ls, root, mode, root)
	clear(m.visited)
	m.visited = m.visited[:0]
	return cycle
}

// blockerReaches reports whether some holder of ls that blocks a request
// by tx in mode is root or transitively waits on a holder that is. Which
// holder is tried first cannot change the answer: it is a reachability
// search over the wait-for graph.
func (m *Manager) blockerReaches(ls *lockState, tx *Tx, mode Mode, root *Tx) bool {
	for _, h := range ls.holders {
		if h.tx == tx || Compatible(h.mode, mode) {
			continue
		}
		if h.tx == root {
			return true
		}
		if slices.Contains(m.visited, h.tx) {
			continue
		}
		m.visited = append(m.visited, h.tx)
		if w := h.tx.blockedOn; w != nil && m.blockerReaches(w.ls, h.tx, w.mode, root) {
			return true
		}
	}
	return false
}

// releaseAll drops every lock held by root. With bump=true (commit and
// revert paths) each lock's use counter is incremented — root is appended
// to the lock's history — and a profile entry recorded, per §4; with
// bump=false (speculative abort) the locks simply vanish from the schedule.
// Waiters that become grantable are granted and their threads unparked by
// the calling thread.
func (m *Manager) releaseAll(root *Tx, th runtime.Thread, bump bool) []ProfileEntry {
	var entries []ProfileEntry
	if bump {
		entries = make([]ProfileEntry, 0, len(root.held))
	}
	var toWake []runtime.Thread
	m.mu.Lock()
	for _, h := range root.held {
		ls := h.ls
		if bump {
			ls.history = append(ls.history, HistoryEntry{Tx: root.id, Mode: h.mode})
			entries = append(entries, ProfileEntry{Lock: ls.id, Mode: h.mode, Counter: uint64(len(ls.history))})
		}
		ls.drop(root)
		toWake = m.grantWaiters(ls, toWake)
	}
	clear(root.held)
	root.held = root.held[:0]
	root.blockedOn = nil
	m.mu.Unlock()

	for _, t := range toWake {
		th.Unpark(t)
	}
	slices.SortFunc(entries, func(a, b ProfileEntry) int { return a.Lock.Compare(b.Lock) })
	return entries
}

// grantWaiters grants every waiter now compatible with the holders,
// appending the threads to unpark to wake. Called with m.mu held.
func (m *Manager) grantWaiters(ls *lockState, wake []runtime.Thread) []runtime.Thread {
	remaining := ls.waiters[:0]
	for _, w := range ls.waiters {
		if ls.grantable(w.tx, w.mode) {
			w.granted = true
			wake = append(wake, w.thread)
			if !w.probe {
				ls.grant(w.tx, w.mode)
				w.tx.blockedOn = nil
				m.acquisitions++
			}
			continue
		}
		remaining = append(remaining, w)
	}
	clear(ls.waiters[len(remaining):])
	ls.waiters = remaining
	return wake
}

// Counter returns lock l's current use counter (for tests and diagnostics).
func (m *Manager) Counter(l LockID) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ls := m.index[l]; ls != nil {
		return uint64(len(ls.history))
	}
	return 0
}

// Record settles root id, which ran without locks (the serial and OCC
// engines), as if it had been granted every lock in entries at once and
// released them all at its commit: each lock's use counter is bumped and
// id appended to its history, exactly as releaseAll does for a committing
// speculative root. entries must name each lock once, sorted by lock
// (Tx.Locks); their counters are filled in place and the slice becomes the
// returned profile's.
func (m *Manager) Record(id types.TxID, entries []ProfileEntry) Profile {
	m.mu.Lock()
	for i := range entries {
		e := &entries[i]
		ls := m.index[e.Lock]
		if ls == nil {
			ls = m.newLock(e.Lock)
		}
		ls.history = append(ls.history, HistoryEntry{Tx: id, Mode: e.Mode})
		e.Counter = uint64(len(ls.history))
	}
	m.mu.Unlock()
	return Profile{Tx: id, Entries: entries}
}

// Histories calls yield with every lock's history, in the order the block
// first took the locks. Call it once every thread of the block has
// returned: it reads the table without m.mu, so that yield runs unlocked.
// yield must not keep the slice, which the next block reuses.
func (m *Manager) Histories(yield func(history []HistoryEntry)) {
	for i := range m.used {
		yield(m.lock(i).history)
	}
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
