package stm

import (
	"errors"
	"slices"
	"testing"

	"contractstm/internal/gas"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
)

func TestModeCompatibility(t *testing.T) {
	cases := []struct {
		a, b Mode
		want bool
	}{
		{ModeShared, ModeShared, true},
		{ModeIncrement, ModeIncrement, true},
		{ModeExclusive, ModeExclusive, false},
		{ModeShared, ModeExclusive, false},
		{ModeExclusive, ModeShared, false},
		{ModeShared, ModeIncrement, false},
		{ModeIncrement, ModeShared, false},
		{ModeIncrement, ModeExclusive, false},
	}
	for _, tc := range cases {
		if got := Compatible(tc.a, tc.b); got != tc.want {
			t.Errorf("Compatible(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCombine(t *testing.T) {
	if Combine(ModeShared, ModeShared) != ModeShared {
		t.Error("shared+shared should stay shared")
	}
	if Combine(ModeIncrement, ModeIncrement) != ModeIncrement {
		t.Error("increment+increment should stay increment")
	}
	if Combine(ModeShared, ModeIncrement) != ModeExclusive {
		t.Error("shared+increment must escalate to exclusive")
	}
	if Combine(ModeShared, ModeExclusive) != ModeExclusive {
		t.Error("shared+exclusive must be exclusive")
	}
}

func TestLockIDOrderingAndString(t *testing.T) {
	a := LockID{Scope: "a", Key: "1"}
	b := LockID{Scope: "a", Key: "2"}
	c := LockID{Scope: "b", Key: "0"}
	if a.Compare(b) >= 0 || b.Compare(c) >= 0 || c.Compare(a) <= 0 || a.Compare(a) != 0 {
		t.Fatal("LockID.Compare ordering broken")
	}
	if a.String() != "a[1]" {
		t.Fatalf("String() = %q", a.String())
	}
}

func TestEnumStrings(t *testing.T) {
	for _, s := range []string{
		ModeShared.String(), ModeIncrement.String(), ModeExclusive.String(),
		KindSpeculative.String(), KindSerial.String(), KindReplay.String(),
		PolicyEager.String(), PolicyLazy.String(),
		StatusActive.String(), StatusCommitted.String(), StatusAborted.String(), StatusReverted.String(),
	} {
		if s == "" {
			t.Fatal("empty enum string")
		}
	}
	if Mode(99).String() == "" || Kind(99).String() == "" || Policy(99).String() == "" || Status(99).String() == "" {
		t.Fatal("unknown enum values must still render")
	}
}

// singleThread runs body on a one-worker sim pool and returns the makespan.
func singleThread(t *testing.T, body func(th runtime.Thread)) uint64 {
	t.Helper()
	ms, err := runtime.NewSimRunner().Run(1, body)
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}
	return ms
}

// funcUndoer applies an inverse record by calling itself.
type funcUndoer func()

func (f funcUndoer) Undo(*Undo) { f() }

// undoFunc wraps f as an inverse record.
func undoFunc(f func()) Undo { return Undo{Obj: funcUndoer(f)} }

func TestSpeculativeCommitProducesProfile(t *testing.T) {
	mgr := NewManager(gas.DefaultSchedule())
	lockA := LockID{Scope: "m", Key: "a"}
	lockB := LockID{Scope: "m", Key: "b"}
	singleThread(t, func(th runtime.Thread) {
		tx := BeginSpeculative(mgr, 0, th, 1_000_000, PolicyEager)
		if err := tx.Access(lockA, ModeExclusive, 10); err != nil {
			t.Errorf("access A: %v", err)
		}
		if err := tx.Access(lockB, ModeShared, 10); err != nil {
			t.Errorf("access B: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
		p := tx.Profile()
		if p.Tx != 0 || len(p.Entries) != 2 {
			t.Fatalf("profile = %+v, want 2 entries", p)
		}
		// Sorted by lock: a before b.
		if p.Entries[0].Lock != lockA || p.Entries[0].Mode != ModeExclusive || p.Entries[0].Counter != 1 {
			t.Errorf("entry 0 = %+v", p.Entries[0])
		}
		if p.Entries[1].Lock != lockB || p.Entries[1].Mode != ModeShared || p.Entries[1].Counter != 1 {
			t.Errorf("entry 1 = %+v", p.Entries[1])
		}
	})
}

func TestUseCountersIncrementAcrossCommits(t *testing.T) {
	mgr := NewManager(gas.DefaultSchedule())
	lock := LockID{Scope: "m", Key: "k"}
	singleThread(t, func(th runtime.Thread) {
		for i := 0; i < 3; i++ {
			tx := BeginSpeculative(mgr, types.TxID(i), th, 1_000_000, PolicyEager)
			if err := tx.Access(lock, ModeExclusive, 10); err != nil {
				t.Errorf("access: %v", err)
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("commit: %v", err)
			}
			if got := tx.Profile().Entries[0].Counter; got != uint64(i+1) {
				t.Errorf("tx %d counter = %d, want %d", i, got, i+1)
			}
		}
	})
	if mgr.Counter(lock) != 3 {
		t.Fatalf("final counter = %d, want 3", mgr.Counter(lock))
	}
}

func TestAbortDoesNotBumpCounter(t *testing.T) {
	mgr := NewManager(gas.DefaultSchedule())
	lock := LockID{Scope: "m", Key: "k"}
	singleThread(t, func(th runtime.Thread) {
		tx := BeginSpeculative(mgr, 0, th, 1_000_000, PolicyEager)
		if err := tx.Access(lock, ModeExclusive, 10); err != nil {
			t.Errorf("access: %v", err)
		}
		if err := tx.Abort(); err != nil {
			t.Errorf("abort: %v", err)
		}
	})
	if mgr.Counter(lock) != 0 {
		t.Fatalf("aborted tx bumped counter to %d", mgr.Counter(lock))
	}
}

// TestRecordSettlesLikeCommit: a root that ran without locks and is
// settled with Record bumps the same counters and appends to the same
// histories as a speculative root committing with those locks held.
func TestRecordSettlesLikeCommit(t *testing.T) {
	mgr := NewManager(gas.DefaultSchedule())
	defer mgr.Release()
	lockA := LockID{Scope: "m", Key: "a"}
	lockB := LockID{Scope: "m", Key: "b"}
	singleThread(t, func(th runtime.Thread) {
		tx := BeginSpeculative(mgr, 0, th, 1_000_000, PolicyEager)
		if err := tx.Access(lockA, ModeExclusive, 10); err != nil {
			t.Errorf("access: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
		rp := BeginReplay(1, th, 1_000_000, gas.DefaultSchedule())
		_ = rp.Access(lockB, ModeShared, 1)
		_ = rp.Access(lockA, ModeIncrement, 1)
		if err := rp.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
		p := mgr.Record(rp.ID(), rp.Locks(nil))
		rp.Recycle()
		want := []ProfileEntry{{Lock: lockA, Mode: ModeIncrement, Counter: 2}, {Lock: lockB, Mode: ModeShared, Counter: 1}}
		if p.Tx != 1 || !slices.Equal(p.Entries, want) {
			t.Errorf("profile = %+v, want tx1 %+v", p, want)
		}
	})
	var got [][]HistoryEntry
	mgr.Histories(func(h []HistoryEntry) { got = append(got, slices.Clone(h)) })
	want := [][]HistoryEntry{
		{{Tx: 0, Mode: ModeExclusive}, {Tx: 1, Mode: ModeIncrement}},
		{{Tx: 1, Mode: ModeShared}},
	}
	if !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("histories = %v, want %v", got, want)
	}
}

func TestUndoLogReplayedInReverseOrder(t *testing.T) {
	mgr := NewManager(gas.DefaultSchedule())
	var log []int
	singleThread(t, func(th runtime.Thread) {
		tx := BeginSpeculative(mgr, 0, th, 1_000_000, PolicyEager)
		tx.LogUndo(undoFunc(func() { log = append(log, 1) }))
		tx.LogUndo(undoFunc(func() { log = append(log, 2) }))
		tx.LogUndo(undoFunc(func() { log = append(log, 3) }))
		if err := tx.Abort(); err != nil {
			t.Errorf("abort: %v", err)
		}
	})
	if len(log) != 3 || log[0] != 3 || log[1] != 2 || log[2] != 1 {
		t.Fatalf("undo order = %v, want [3 2 1]", log)
	}
}

func TestRevertUndoesButKeepsSchedulePresence(t *testing.T) {
	mgr := NewManager(gas.DefaultSchedule())
	lock := LockID{Scope: "m", Key: "k"}
	value := 10
	singleThread(t, func(th runtime.Thread) {
		tx := BeginSpeculative(mgr, 0, th, 1_000_000, PolicyEager)
		if err := tx.Access(lock, ModeExclusive, 10); err != nil {
			t.Errorf("access: %v", err)
		}
		old := value
		tx.LogUndo(undoFunc(func() { value = old }))
		value = 99
		if err := tx.Revert(); err != nil {
			t.Errorf("revert: %v", err)
		}
		if len(tx.Profile().Entries) != 1 {
			t.Errorf("reverted tx must still publish a profile, got %+v", tx.Profile())
		}
		if tx.Status() != StatusReverted {
			t.Errorf("status = %v", tx.Status())
		}
	})
	if value != 10 {
		t.Fatalf("revert did not undo: value = %d", value)
	}
	if mgr.Counter(lock) != 1 {
		t.Fatalf("reverted tx must bump counters (schedule presence); counter = %d", mgr.Counter(lock))
	}
}

func TestOutOfGasSurfacesFromAccess(t *testing.T) {
	mgr := NewManager(gas.DefaultSchedule())
	singleThread(t, func(th runtime.Thread) {
		tx := BeginSpeculative(mgr, 0, th, 5, PolicyEager)
		err := tx.Access(LockID{Scope: "m", Key: "k"}, ModeShared, 10)
		if !errors.Is(err, gas.ErrOutOfGas) {
			t.Errorf("err = %v, want ErrOutOfGas", err)
		}
	})
}

func TestDoneTxRejectsFurtherUse(t *testing.T) {
	mgr := NewManager(gas.DefaultSchedule())
	singleThread(t, func(th runtime.Thread) {
		tx := BeginSpeculative(mgr, 0, th, 1_000_000, PolicyEager)
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
		if err := tx.Access(LockID{Scope: "m"}, ModeShared, 1); !errors.Is(err, ErrTxDone) {
			t.Errorf("Access after commit = %v, want ErrTxDone", err)
		}
		if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
			t.Errorf("double commit = %v, want ErrTxDone", err)
		}
		if err := tx.Abort(); !errors.Is(err, ErrTxDone) {
			t.Errorf("abort after commit = %v, want ErrTxDone", err)
		}
		if _, err := tx.BeginNested(); !errors.Is(err, ErrTxDone) {
			t.Errorf("BeginNested after commit = %v, want ErrTxDone", err)
		}
	})
}

func TestSerialKindNeedsNoManager(t *testing.T) {
	var value int
	singleThread(t, func(th runtime.Thread) {
		tx := BeginSerial(0, th, 1_000_000, gas.DefaultSchedule())
		if err := tx.Access(LockID{Scope: "m", Key: "k"}, ModeExclusive, 10); err != nil {
			t.Errorf("access: %v", err)
		}
		tx.LogUndo(undoFunc(func() { value = 0 }))
		value = 7
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
	})
	if value != 7 {
		t.Fatalf("value = %d, want 7", value)
	}
}

func TestSerialRevertUndoes(t *testing.T) {
	value := 1
	singleThread(t, func(th runtime.Thread) {
		tx := BeginSerial(0, th, 1_000_000, gas.DefaultSchedule())
		tx.LogUndo(undoFunc(func() { value = 1 }))
		value = 2
		if err := tx.Revert(); err != nil {
			t.Errorf("revert: %v", err)
		}
	})
	if value != 1 {
		t.Fatalf("serial revert did not undo: value = %d", value)
	}
}

func TestReplayTraceRecordsAndCombines(t *testing.T) {
	lock := LockID{Scope: "m", Key: "k"}
	other := LockID{Scope: "m", Key: "z"}
	singleThread(t, func(th runtime.Thread) {
		tx := BeginReplay(3, th, 1_000_000, gas.DefaultSchedule())
		_ = tx.Access(lock, ModeShared, 1)
		_ = tx.Access(lock, ModeExclusive, 1) // combine -> exclusive
		_ = tx.Access(other, ModeIncrement, 1)
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
		locks := tx.Locks(nil)
		if len(locks) != 2 {
			t.Fatalf("locks = %+v", locks)
		}
		if locks[0] != (ProfileEntry{Lock: lock, Mode: ModeExclusive}) {
			t.Errorf("entry 0 = %+v, want %v exclusive", locks[0], lock)
		}
		if locks[1] != (ProfileEntry{Lock: other, Mode: ModeIncrement}) {
			t.Errorf("entry 1 = %+v", locks[1])
		}
	})
}

func TestTraceMatchesProfile(t *testing.T) {
	lock := LockID{Scope: "m", Key: "k"}
	other := LockID{Scope: "m", Key: "z"}
	// replayed runs one replay transaction with the given accesses and
	// reports whether its trace matches p.
	replayed := func(p Profile, accesses ...ProfileEntry) bool {
		var match bool
		singleThread(t, func(th runtime.Thread) {
			tx := BeginReplay(1, th, 1_000_000, gas.DefaultSchedule())
			for _, a := range accesses {
				_ = tx.Access(a.Lock, a.Mode, 1)
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("commit: %v", err)
			}
			match = tx.TraceMatches(p)
			tx.Recycle()
		})
		return match
	}
	p := Profile{Tx: 1, Entries: []ProfileEntry{{Lock: lock, Mode: ModeExclusive, Counter: 5}}}
	if !replayed(p, ProfileEntry{Lock: lock, Mode: ModeShared}, ProfileEntry{Lock: lock, Mode: ModeExclusive}) {
		t.Fatal("matching trace rejected")
	}
	if replayed(p, ProfileEntry{Lock: lock, Mode: ModeShared}) {
		t.Fatal("mode mismatch accepted")
	}
	if replayed(p, ProfileEntry{Lock: other, Mode: ModeExclusive}) {
		t.Fatal("lock mismatch accepted")
	}
	if replayed(p) {
		t.Fatal("missing entries accepted")
	}
	if replayed(p, ProfileEntry{Lock: lock, Mode: ModeExclusive}, ProfileEntry{Lock: other, Mode: ModeShared}) {
		t.Fatal("extra lock accepted")
	}
	two := Profile{Tx: 1, Entries: []ProfileEntry{
		{Lock: lock, Mode: ModeExclusive, Counter: 1}, {Lock: other, Mode: ModeIncrement, Counter: 2},
	}}
	if !replayed(two, ProfileEntry{Lock: other, Mode: ModeIncrement}, ProfileEntry{Lock: lock, Mode: ModeExclusive}) {
		t.Fatal("matching two-lock trace rejected (access order must not matter)")
	}
}

func TestFastPathAlreadyHeld(t *testing.T) {
	mgr := NewManager(gas.DefaultSchedule())
	lock := LockID{Scope: "m", Key: "k"}
	singleThread(t, func(th runtime.Thread) {
		tx := BeginSpeculative(mgr, 0, th, 1_000_000, PolicyEager)
		if err := tx.Access(lock, ModeExclusive, 10); err != nil {
			t.Errorf("first access: %v", err)
		}
		// Re-access in any weaker/equal mode must not deadlock or re-queue.
		if err := tx.Access(lock, ModeShared, 10); err != nil {
			t.Errorf("re-access shared: %v", err)
		}
		if err := tx.Access(lock, ModeExclusive, 10); err != nil {
			t.Errorf("re-access exclusive: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
		if n := len(tx.Profile().Entries); n != 1 {
			t.Errorf("profile entries = %d, want 1 (no duplicates)", n)
		}
	})
	stats := mgr.Stats()
	if stats.Acquisitions != 1 {
		t.Fatalf("acquisitions = %d, want 1 (fast path must not re-acquire)", stats.Acquisitions)
	}
}

func TestSharedUpgradeToExclusiveWhenSoleHolder(t *testing.T) {
	mgr := NewManager(gas.DefaultSchedule())
	lock := LockID{Scope: "m", Key: "k"}
	singleThread(t, func(th runtime.Thread) {
		tx := BeginSpeculative(mgr, 0, th, 1_000_000, PolicyEager)
		if err := tx.Access(lock, ModeShared, 10); err != nil {
			t.Errorf("shared: %v", err)
		}
		if err := tx.Access(lock, ModeExclusive, 10); err != nil {
			t.Errorf("upgrade: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
		if got := tx.Profile().Entries[0].Mode; got != ModeExclusive {
			t.Errorf("profile mode = %v, want exclusive after upgrade", got)
		}
	})
}
