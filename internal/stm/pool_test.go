package stm

import (
	"strconv"
	"testing"

	"contractstm/internal/gas"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
)

// TestOverlayReleaseClearsState pins the pooling contract: an overlay that
// comes back from the pool must behave exactly like a fresh one — no stale
// entries, deltas, or isolation leaking from its previous life.
func TestOverlayReleaseClearsState(t *testing.T) {
	o := acquireIsolatedOverlay()
	k := OverlayKey{Obj: 1, Key: "x"}
	o.Put(k, uint64(7), false, func(any, bool) {})
	o.Add(OverlayKey{Obj: 2, Key: "y"}, 3, func(int64) {})
	o.Release()

	// Drain the pool until our overlay (or a fresh one) comes out; either
	// way it must be empty.
	got := acquireIsolatedOverlay()
	if got.Len() != 0 {
		t.Fatalf("pooled overlay came back with %d entries", got.Len())
	}
	if _, _, ok := got.Get(k); ok {
		t.Fatal("stale absolute entry visible after Release")
	}
	if _, ok := got.Delta(OverlayKey{Obj: 2, Key: "y"}); ok {
		t.Fatal("stale delta visible after Release")
	}
	if !got.Isolated() {
		t.Fatal("acquired overlay must be isolated")
	}
	got.Release()
}

// TestChildOverlayReleaseNoOp pins the ownership rule that makes pooling
// safe: a committing child's entries transfer to the parent by Merge, so
// releasing (or clearing) the child afterwards must not disturb them.
func TestChildOverlayReleaseNoOp(t *testing.T) {
	parent := NewIsolatedOverlay()
	child := NewChildOverlay(parent)
	k := OverlayKey{Obj: 9, Key: "slot"}
	child.Put(k, "v", false, func(any, bool) {})
	parent.Merge(child)

	child.Release() // must be a no-op: child frames are never pooled
	child.Clear()   // and clearing the child must not recycle merged entries

	if v, _, ok := parent.Get(k); !ok || v != "v" {
		t.Fatalf("merged entry lost after child Release/Clear: %v %v", v, ok)
	}
}

// TestOverlayEntryFreelistReuse pins that Clear recycles entry structs and
// that recycled entries carry no stale fields into their next use.
func TestOverlayEntryFreelistReuse(t *testing.T) {
	o := NewOverlay()
	k := OverlayKey{Obj: 3, Key: "k"}
	o.Put(k, uint64(1), true, func(any, bool) {})
	o.Clear()
	if len(o.free) != 1 {
		t.Fatalf("freelist has %d entries after Clear, want 1", len(o.free))
	}
	o.Add(k, 5, func(int64) {})
	if len(o.free) != 0 {
		t.Fatal("Add did not draw from the freelist")
	}
	d, ok := o.Delta(k)
	if !ok || d != 5 {
		t.Fatalf("recycled entry carried stale state: delta=%d ok=%v", d, ok)
	}
	if v, del, ok := o.Get(k); ok {
		t.Fatalf("recycled delta entry still reads as absolute: %v %v", v, del)
	}
}

// TestTxRecycleLifecycle pins Recycle's ownership rule: it is a no-op on
// an active root and on a child, and a root that is recycled goes back to
// the pool whole, so nothing may read it afterwards; the engines read
// PendingWrites, Locks and the Profile first. A root that was reverted
// with writes logged, recycled and begun again starts clean: an empty
// undo log, a zero meter with the new limit, an empty trace, no overlay
// and no profile.
func TestTxRecycleLifecycle(t *testing.T) {
	singleThread(t, func(th runtime.Thread) {
		mgr := NewManager(gas.DefaultSchedule())
		defer mgr.Release()
		lock := LockID{Scope: "s", Key: "k"}

		tx := BeginOCC(1, th, 1_000_000, gas.DefaultSchedule())
		tx.Recycle() // active: must not recycle the live root
		if err := tx.Access(lock, ModeExclusive, 1); err != nil {
			t.Fatalf("access: %v", err)
		}
		child, err := tx.BeginNested()
		if err != nil {
			t.Fatalf("begin nested: %v", err)
		}
		if err := child.Commit(); err != nil {
			t.Fatalf("commit child: %v", err)
		}
		child.Recycle() // a child: must not recycle anything
		if tx.Status() != StatusActive || len(tx.trace) != 1 {
			t.Fatal("Recycle touched an active root or a child's root")
		}
		applied := false
		tx.Overlay().Put(OverlayKey{Obj: 1, Key: "k"}, uint64(1), false, func(any, bool) { applied = true })
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
		wr := tx.PendingWrites()
		if locks := tx.Locks(nil); len(locks) != 1 || wr == nil || wr.Len() != 1 {
			t.Fatalf("settled OCC root: %d locks, pending writes %v", len(locks), wr)
		}
		tx.Recycle()
		// The engine owns the overlay it read before Recycle: it survives
		// the root and applies or releases later.
		if wr.Len() != 1 {
			t.Fatalf("pending writes after Recycle: %d entries, want 1", wr.Len())
		}
		if wr.Apply(); !applied {
			t.Fatal("pending writes read before Recycle did not apply")
		}
		wr.Release()

		// A speculative root that holds a lock, charges gas, logs a write
		// and reverts — or commits, keeping its log — then is recycled,
		// begins its next use clean, in whatever kind.
		dirty := func(settle func(*Tx) error) *Tx {
			used := BeginSpeculative(mgr, 2, th, 1_000_000, PolicyEager)
			if err := used.Access(lock, ModeExclusive, 10); err != nil {
				t.Fatalf("access: %v", err)
			}
			value := 1
			used.LogUndo(undoFunc(func() { value = 0 }))
			if err := settle(used); err != nil {
				t.Fatalf("settle: %v", err)
			}
			if reverted := used.Status() == StatusReverted; reverted != (value == 0) || len(used.Profile().Entries) != 1 {
				t.Fatalf("%v root left value %d and %d profile entries", used.Status(), value, len(used.Profile().Entries))
			}
			used.Recycle()
			return used
		}
		for _, settle := range []func(*Tx) error{(*Tx).Revert, (*Tx).Commit} {
			for _, begin := range []func() *Tx{
				func() *Tx { return BeginReplay(3, th, 500, gas.DefaultSchedule()) },
				func() *Tx { return BeginSerial(4, th, 500, gas.DefaultSchedule()) },
				func() *Tx { return BeginSpeculative(mgr, 5, th, 500, PolicyEager) },
			} {
				reused := false
				for attempt := 0; attempt < 100 && !reused; attempt++ {
					used := dirty(settle)
					again := begin()
					// The pool may drop a root (as it does under -race); only a
					// root it handed back proves anything.
					if reused = again == used; reused {
						if len(again.undo) != 0 || len(again.held) != 0 || len(again.trace) != 0 {
							t.Fatalf("%v root begins with %d undo records, %d held locks, %d traced locks",
								again.Kind(), len(again.undo), len(again.held), len(again.trace))
						}
						if m := again.Meter(); m.Used() != 0 || m.Limit() != 500 {
							t.Fatalf("%v root begins with meter %d/%d, want 0/500", again.Kind(), m.Used(), m.Limit())
						}
						if again.overlay != nil || len(again.Profile().Entries) != 0 || again.refusedMode != 0 || again.root != again {
							t.Fatalf("%v root begins with state of its last use", again.Kind())
						}
					}
					if err := again.Commit(); err != nil {
						t.Fatalf("commit: %v", err)
					}
					again.Recycle()
				}
				if !reused {
					t.Fatal("the pool never handed a recycled root back")
				}
			}
		}
	})
}

// TestManagerReleaseResets pins the lock table's pooling contract: a
// manager that was released and taken again starts its next block the way
// the paper's miner does — every use counter zero, no holder, no waiter, no
// history, zero Stats, and nothing of the last block reachable — whatever
// that block left behind: locks spread over several chunks, and a holder
// that never settled.
func TestManagerReleaseResets(t *testing.T) {
	const locks = 2*lockChunk + 7 // three chunks
	lockID := func(i int) LockID { return LockID{Scope: "r", Key: strconv.Itoa(i)} }
	for attempt := 0; attempt < 100; attempt++ {
		mgr := NewManager(gas.DefaultSchedule())
		singleThread(t, func(th runtime.Thread) {
			for i := 0; i < locks; i++ {
				tx := BeginSpeculative(mgr, types.TxID(i), th, 1_000_000, PolicyEager)
				if err := tx.Access(lockID(i), ModeExclusive, 1); err != nil {
					t.Errorf("access: %v", err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
			open := BeginSpeculative(mgr, locks, th, 1_000_000, PolicyEager)
			if err := open.Access(lockID(0), ModeShared, 1); err != nil {
				t.Errorf("access: %v", err)
			}
		})
		if t.Failed() {
			return
		}
		// Every chunk's locks are still in the table before the reset.
		histories := 0
		mgr.Histories(func(h []HistoryEntry) {
			if len(h) != 1 {
				t.Fatalf("history %d has %d entries, want 1", histories, len(h))
			}
			histories++
		})
		if histories != locks || mgr.Counter(lockID(locks-1)) != 1 {
			t.Fatalf("table lists %d histories and counter %d for the last lock, want %d and 1",
				histories, mgr.Counter(lockID(locks-1)), locks)
		}
		mgr.Release()

		again := NewManager(gas.DefaultSchedule())
		if again != mgr {
			continue // the pool dropped it (as it may, under -race); dirty another
		}
		if again.used != 0 || len(again.index) != 0 || again.Stats() != (Stats{}) {
			t.Fatalf("reused table: %d locks, %d indexed, stats %+v", again.used, len(again.index), again.Stats())
		}
		if len(again.chunks) != 3 {
			t.Fatalf("reused table kept %d chunks, want 3", len(again.chunks))
		}
		for c, chunk := range again.chunks {
			for i := range chunk {
				ls := &chunk[i]
				if ls.id != (LockID{}) || len(ls.holders) != 0 || len(ls.waiters) != 0 || len(ls.history) != 0 {
					t.Fatalf("chunk %d slot %d not reset: %+v", c, i, *ls)
				}
				for _, h := range ls.holders[:cap(ls.holders)] {
					if h.tx != nil {
						t.Fatalf("chunk %d slot %d still reaches a transaction of the last block", c, i)
					}
				}
			}
		}
		again.Histories(func([]HistoryEntry) { t.Fatal("reused table lists a history") })
		singleThread(t, func(th runtime.Thread) {
			tx := BeginSpeculative(again, 0, th, 1_000_000, PolicyEager)
			if err := tx.Access(lockID(0), ModeExclusive, 1); err != nil {
				t.Errorf("access: %v", err)
				return
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
			if got := tx.Profile().Entries[0].Counter; got != 1 {
				t.Errorf("first use of a lock in the reused table has counter %d, want 1", got)
			}
		})
		again.Release()
		return
	}
	t.Fatal("the pool never handed a released manager back")
}
