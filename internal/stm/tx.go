package stm

import (
	"fmt"
	"slices"
	"sync"

	"contractstm/internal/gas"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
)

// txPool recycles roots. A root keeps its undo log, its held locks and its
// trace between uses, emptied but with their storage, so a warm root
// begins, runs and settles without allocating. Roots re-enter the pool via
// Tx.Recycle.
var txPool = sync.Pool{New: func() any { return new(Tx) }}

// Undoer is a boosted storage object that can apply its own inverse
// records. The storage layer's Map, Array and Cell implement it.
type Undoer interface {
	// Undo applies one inverse record the object logged.
	Undo(u *Undo)
}

// Undo is one inverse-log record: a value, so logging an inverse costs
// no allocation. Obj applies it; what Op, Key, Index, Old and Delta mean
// is Obj's business (the key or index written, and the old value or the
// delta to take back).
type Undo struct {
	Obj   Undoer
	Op    uint8
	Key   string
	Index int
	Old   any
	Delta int64
}

// Executor is the interface through which boosted storage objects perform
// operations. A *Tx implements it in all three kinds (speculative, serial,
// replay), so storage and contract code is written exactly once.
type Executor interface {
	// Access charges cost to the gas meter, advances the executing thread's
	// clock, and — depending on kind — acquires the abstract lock
	// (speculative) or records it in the trace (replay). It returns
	// ErrDeadlock if blocking would deadlock, or a gas.ErrOutOfGas-wrapping
	// error if the meter is exhausted.
	Access(l LockID, mode Mode, cost gas.Gas) error
	// LogUndo registers an inverse record; aborting or reverting the
	// transaction applies the records most-recent-first.
	LogUndo(u Undo)
	// Overlay returns the transaction-local write buffer when running
	// speculatively under PolicyLazy, or nil when operations should be
	// applied in place.
	Overlay() *Overlay
	// ChargeStep charges n units of pure computation (no lock).
	ChargeStep(n uint64) error
	// Thread returns the executing thread.
	Thread() runtime.Thread
	// Schedule returns the cost schedule in force.
	Schedule() gas.Schedule
}

// Tx is a (possibly nested) transaction. Roots are created by Begin*;
// children by BeginNested. A Tx must only be used from its own thread.
type Tx struct {
	id     types.TxID
	kind   Kind
	policy Policy
	mgr    *Manager // non-nil only for KindSpeculative
	thread runtime.Thread
	sched  gas.Schedule
	status Status
	// meter is root-only: the family's gas, charged through root.
	meter gas.Meter

	parent *Tx
	root   *Tx

	// held is root-only: every abstract lock the transaction family holds,
	// with combined modes. Owner-thread-local (the manager's lock table is
	// the cross-thread view).
	held []heldLock
	// blockedOn is root-only: the pending lock request the root is blocked
	// on, nil when it is not blocked — its wait-for edge. Guarded by the
	// manager's mutex.
	blockedOn *waiter
	// undo is this frame's inverse log.
	undo []Undo
	// overlay is this frame's lazy write buffer (PolicyLazy only).
	overlay *Overlay
	// trace is root-only (KindReplay, KindOCC): combined modes per lock
	// the family accessed. Recycle clears it, so a warm root keeps its
	// buckets.
	trace map[LockID]Mode
	// profile is root-only: set at commit/revert of a speculative root.
	profile Profile
	// refused and refusedMode are root-only: the request the manager last
	// refused with ErrDeadlock (refusedMode is zero if none was).
	refused     *lockState
	refusedMode Mode
}

// heldLock is one abstract lock a root holds, with its combined mode.
type heldLock struct {
	ls   *lockState
	mode Mode
}

// heldMode reports the mode the family holds l in, if it holds l.
func (t *Tx) heldMode(l LockID) (Mode, bool) {
	for _, h := range t.held {
		if h.ls.id == l {
			return h.mode, true
		}
	}
	return 0, false
}

// setHeld records that the root holds ls in mode.
func (t *Tx) setHeld(ls *lockState, mode Mode) {
	for i := range t.held {
		if t.held[i].ls == ls {
			t.held[i].mode = mode
			return
		}
	}
	if t.held == nil {
		// Roots hold two locks on average and at most four in every
		// workload, so one allocation per root covers almost all.
		t.held = make([]heldLock, 0, 4)
	}
	t.held = append(t.held, heldLock{ls: ls, mode: mode})
}

var _ Executor = (*Tx)(nil)

// BeginSpeculative starts a root speculative transaction against the given
// lock manager (one manager per block), with gasLimit gas.
func BeginSpeculative(mgr *Manager, id types.TxID, th runtime.Thread, gasLimit gas.Gas, policy Policy) *Tx {
	t := newRoot(KindSpeculative, id, th, gasLimit, mgr.sched)
	t.mgr = mgr
	t.policy = policy
	if policy == PolicyLazy {
		t.overlay = NewOverlay()
	}
	th.Work(mgr.sched.SpecTxSetup)
	return t
}

// BeginSerial starts a root transaction for a bare serial run in a given
// order (engine.RunOrdered): no locks, no trace, but inverse logging so a
// throw can revert.
func BeginSerial(id types.TxID, th runtime.Thread, gasLimit gas.Gas, sched gas.Schedule) *Tx {
	return newRoot(KindSerial, id, th, gasLimit, sched)
}

// BeginReplay starts a root transaction for the validator's deterministic
// replay, and for the serial engine: no locks; every access is recorded in
// a thread-local trace.
func BeginReplay(id types.TxID, th runtime.Thread, gasLimit gas.Gas, sched gas.Schedule) *Tx {
	return newRoot(KindReplay, id, th, gasLimit, sched)
}

// BeginOCC starts a root transaction for the optimistic batch regime: no
// locks, writes buffered in an isolated overlay, accesses recorded in a
// thread-local read/write set. Commit does NOT apply the overlay — the OCC
// engine validates the attempt against concurrently committed transactions
// first and then applies PendingWrites itself (or discards the attempt).
func BeginOCC(id types.TxID, th runtime.Thread, gasLimit gas.Gas, sched gas.Schedule) *Tx {
	t := newRoot(KindOCC, id, th, gasLimit, sched)
	t.overlay = acquireIsolatedOverlay()
	th.Work(sched.SpecTxSetup)
	return t
}

// newRoot takes a root from the pool and begins it. Recycle left the
// root's slices and trace empty; they keep their storage.
func newRoot(kind Kind, id types.TxID, th runtime.Thread, gasLimit gas.Gas, sched gas.Schedule) *Tx {
	t := txPool.Get().(*Tx)
	t.id, t.kind, t.policy, t.thread, t.sched, t.status = id, kind, PolicyEager, th, sched, StatusActive
	t.meter = *gas.NewMeter(gasLimit)
	t.root = t
	return t
}

// ID returns the transaction id.
func (t *Tx) ID() types.TxID { return t.id }

// Kind returns the execution regime.
func (t *Tx) Kind() Kind { return t.kind }

// Status returns the lifecycle state.
func (t *Tx) Status() Status { return t.status }

// Thread implements Executor.
func (t *Tx) Thread() runtime.Thread { return t.thread }

// Schedule implements Executor.
func (t *Tx) Schedule() gas.Schedule { return t.sched }

// Meter returns the transaction family's gas meter. It belongs to the
// root and goes back to the pool with it.
func (t *Tx) Meter() *gas.Meter { return &t.root.meter }

// BeginNested starts a child speculative action for a nested contract call.
// The child inherits the family's locks (they are keyed by root), keeps its
// own inverse log and overlay, and can commit or abort independently of its
// parent (§3).
func (t *Tx) BeginNested() (*Tx, error) {
	if t.status != StatusActive {
		return nil, fmt.Errorf("begin nested under %s transaction: %w", t.status, ErrTxDone)
	}
	child := &Tx{
		id:     t.id,
		kind:   t.kind,
		policy: t.policy,
		mgr:    t.mgr,
		thread: t.thread,
		sched:  t.sched,
		status: StatusActive,
		parent: t,
		root:   t.root,
	}
	if (t.policy == PolicyLazy && t.kind == KindSpeculative) || t.kind == KindOCC {
		// The child frame chains to the parent's overlay so nested reads
		// see the ancestors' buffered writes; child writes stay local
		// until commit-time Merge.
		child.overlay = NewChildOverlay(t.overlay)
	}
	return child, nil
}

// Access implements Executor. See the interface documentation.
func (t *Tx) Access(l LockID, mode Mode, cost gas.Gas) error {
	if t.status != StatusActive {
		return fmt.Errorf("access %s on %s transaction: %w", l, t.status, ErrTxDone)
	}
	if err := t.root.meter.Charge(cost); err != nil {
		return err
	}
	t.thread.Work(cost)
	switch t.kind {
	case KindSpeculative:
		t.thread.Work(t.sched.LockOverhead)
		root := t.root
		if cur, held := root.heldMode(l); held && Combine(cur, mode) == cur {
			return nil // fast path: already held strongly enough
		}
		return t.mgr.acquire(root, t.thread, l, mode)
	case KindReplay, KindOCC:
		if t.kind == KindOCC {
			// Read/write-set bookkeeping plus overlay buffering: pricier
			// than the validator's bare trace, far cheaper than a lock.
			t.thread.Work(t.sched.OCCOverhead)
		} else {
			t.thread.Work(t.sched.TraceOverhead)
		}
		t.root.traceLock(l, mode)
		return nil
	case KindSerial:
		return nil
	default:
		return fmt.Errorf("stm: unknown transaction kind %v", t.kind)
	}
}

// traceLock records an access to l in mode in the root's trace.
func (t *Tx) traceLock(l LockID, mode Mode) {
	if t.trace == nil {
		t.trace = make(map[LockID]Mode)
	}
	if cur, seen := t.trace[l]; seen {
		mode = Combine(cur, mode)
	}
	t.trace[l] = mode
}

// LogUndo implements Executor.
func (t *Tx) LogUndo(u Undo) {
	t.undo = append(t.undo, u)
}

// Overlay implements Executor.
func (t *Tx) Overlay() *Overlay {
	if t.kind == KindOCC {
		return t.overlay
	}
	if t.kind == KindSpeculative && t.policy == PolicyLazy {
		return t.overlay
	}
	return nil
}

// ChargeStep implements Executor: n units of pure computation.
func (t *Tx) ChargeStep(n uint64) error {
	if err := t.root.meter.Charge(gas.Gas(n) * t.sched.Step); err != nil {
		return err
	}
	t.thread.Work(gas.Gas(n) * t.sched.Step)
	return nil
}

// rollback applies this frame's inverse log most-recent-first, charging
// undo work, and drops the frame's overlay.
func (t *Tx) rollback() {
	if n := len(t.undo); n > 0 {
		t.thread.Work(t.sched.UndoPerOp * gas.Gas(n))
		for i := n - 1; i >= 0; i-- {
			u := &t.undo[i]
			u.Obj.Undo(u)
		}
	}
	t.dropUndo()
	if t.overlay != nil {
		t.overlay.Clear()
	}
}

// Commit completes the transaction successfully.
//
// Nested: the child's inverse log is appended to the parent's and its
// overlay merged into the parent's; inherited and newly-acquired locks stay
// with the root (they were keyed there all along).
//
// Root speculative: the lazy overlay (if any) is applied to the underlying
// storage while all locks are still held, then every held lock's use
// counter is bumped and the profile recorded, then locks are released and
// grantable waiters woken.
func (t *Tx) Commit() error {
	if t.status != StatusActive {
		return fmt.Errorf("commit %s transaction: %w", t.status, ErrTxDone)
	}
	if t.parent != nil {
		t.parent.undo = append(t.parent.undo, t.undo...)
		t.dropUndo()
		if t.overlay != nil {
			parentOv := t.parent.overlay
			if parentOv == nil {
				return fmt.Errorf("stm: lazy child committing into non-lazy parent")
			}
			parentOv.Merge(t.overlay)
		}
		t.status = StatusCommitted
		return nil
	}
	if t.overlay != nil && t.kind != KindOCC {
		// OCC roots keep their writes pending: the engine validates the
		// attempt first and applies (or discards) PendingWrites itself.
		t.overlay.Apply()
	}
	if t.kind == KindSpeculative {
		entries := t.mgr.releaseAll(t, t.thread, true)
		t.profile = Profile{Tx: t.id, Entries: entries}
	}
	t.status = StatusCommitted
	return nil
}

// Abort undoes the transaction's effects. For a nested action, the parent
// stays active and — deviating from the paper, see the package comment —
// the child's locks remain with the root. For a speculative root, all locks
// are released without bumping use counters: the attempt leaves no mark on
// the discovered schedule and the transaction may be retried.
func (t *Tx) Abort() error {
	if t.status != StatusActive {
		return fmt.Errorf("abort %s transaction: %w", t.status, ErrTxDone)
	}
	t.rollback()
	if t.parent == nil && t.kind == KindSpeculative {
		t.mgr.releaseAll(t, t.thread, false)
	}
	t.status = StatusAborted
	return nil
}

// AwaitRefusedLock blocks an aborted deadlock victim until the lock it was
// refused could be granted to it, so that its retry does not meet the same
// holders and lose again. The engine calls it between attempts; it returns
// at once for a transaction that was not refused a lock.
func (t *Tx) AwaitRefusedLock() {
	if t.status == StatusAborted && t.refusedMode != 0 {
		t.mgr.awaitGrantable(t, t.refused, t.refusedMode)
	}
}

// Revert completes a transaction whose contract body threw: state effects
// are undone, but the transaction remains part of the schedule — its locks'
// use counters are bumped and a profile is produced — because its execution
// observed shared state and consumed gas, and the validator will replay it.
// Only valid on roots.
func (t *Tx) Revert() error {
	if t.parent != nil {
		return fmt.Errorf("stm: Revert on nested transaction (aborting children is the caller's job)")
	}
	if t.status != StatusActive {
		return fmt.Errorf("revert %s transaction: %w", t.status, ErrTxDone)
	}
	t.rollback()
	if t.kind == KindSpeculative {
		entries := t.mgr.releaseAll(t, t.thread, true)
		t.profile = Profile{Tx: t.id, Entries: entries}
	}
	t.status = StatusReverted
	return nil
}

// Profile returns the scheduling metadata registered at Commit/Revert of a
// speculative root. Zero value otherwise.
func (t *Tx) Profile() Profile { return t.profile }

// PendingWrites returns an OCC root's buffered writes after Commit: the
// engine applies them once the attempt survives validation. Nil for every
// other kind, and empty after a Revert (the rollback discarded them).
func (t *Tx) PendingWrites() *Overlay {
	if t.kind != KindOCC || t.parent != nil {
		return nil
	}
	return t.overlay
}

// Traced returns how many locks a replay or OCC root traced: the length
// of what Locks returns.
func (t *Tx) Traced() int { return len(t.root.trace) }

// Locks returns the locks a replay or OCC root traced, one entry per
// lock with its combined mode, sorted by lock and with zero counters: its
// read/write set, and the profile Manager.Record completes. Entries are
// appended into buf[:0], reusing its backing array when it is large
// enough; engines that re-execute a transaction pass the discarded
// attempt's entries here instead of allocating anew.
func (t *Tx) Locks(buf []ProfileEntry) []ProfileEntry {
	entries := buf[:0]
	if entries == nil || cap(entries) < len(t.trace) {
		entries = make([]ProfileEntry, 0, len(t.trace))
	}
	for l, m := range t.trace {
		entries = append(entries, ProfileEntry{Lock: l, Mode: m})
	}
	slices.SortFunc(entries, func(a, b ProfileEntry) int { return a.Lock.Compare(b.Lock) })
	return entries
}

// TraceMatches reports whether a replay root's trace matches the miner's
// profile p: the same lock set with the same combined modes. It reads the
// trace in place — one lookup per profile entry, nothing built or sorted —
// so it is exact only for a profile that names each lock once,
// which the validator's Precheck requires (entries strictly ascending by
// lock). Counter values are not compared here: they order transactions,
// and the race check (internal/sched) reads them.
func (t *Tx) TraceMatches(p Profile) bool {
	trace := t.root.trace
	if len(trace) != len(p.Entries) {
		return false
	}
	for _, e := range p.Entries {
		if m, ok := trace[e.Lock]; !ok || m != e.Mode {
			return false
		}
	}
	return true
}

// dropUndo empties the frame's inverse log, keeping its storage. The
// records are zeroed so they pin neither objects nor old values.
func (t *Tx) dropUndo() {
	clear(t.undo)
	t.undo = t.undo[:0]
}

// Recycle returns a settled root to the pool for a later Begin*. Call it
// only after the transaction has committed, aborted or reverted AND
// everything the caller needs of it has been read: its Profile, its trace
// (Locks, TraceMatches), its Meter and an OCC root's PendingWrites. After
// Recycle nothing may touch the root. The pending-writes overlay is not
// released here: the OCC engine still holds it and releases it itself once
// the writes are applied or discarded. Recycle is a no-op on an active
// root and on a child.
func (t *Tx) Recycle() {
	if t.parent != nil || t.status == StatusActive {
		return
	}
	t.dropUndo()
	clear(t.held)
	clear(t.trace)
	*t = Tx{undo: t.undo, held: t.held[:0], trace: t.trace}
	txPool.Put(t)
}
