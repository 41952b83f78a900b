package stm

import (
	"testing"

	"contractstm/internal/gas"
	"contractstm/internal/runtime"
)

func TestNestedCommitMergesUndoIntoParent(t *testing.T) {
	mgr := NewManager(gas.DefaultSchedule())
	value := 0
	singleThread(t, func(th runtime.Thread) {
		parent := BeginSpeculative(mgr, 0, th, 1_000_000, PolicyEager)
		parent.LogUndo(undoFunc(func() { value -= 1 }))
		value += 1

		child, err := parent.BeginNested()
		if err != nil {
			t.Fatalf("BeginNested: %v", err)
		}
		child.LogUndo(undoFunc(func() { value -= 10 }))
		value += 10
		if err := child.Commit(); err != nil {
			t.Fatalf("child commit: %v", err)
		}

		// Parent abort must now undo the child's committed effects too:
		// "a child action's effects become permanent only when the parent
		// commits" (§3).
		if err := parent.Abort(); err != nil {
			t.Fatalf("parent abort: %v", err)
		}
	})
	if value != 0 {
		t.Fatalf("value = %d, want 0 after parent abort", value)
	}
}

func TestNestedAbortDoesNotAbortParent(t *testing.T) {
	mgr := NewManager(gas.DefaultSchedule())
	value := 0
	singleThread(t, func(th runtime.Thread) {
		parent := BeginSpeculative(mgr, 0, th, 1_000_000, PolicyEager)
		parent.LogUndo(undoFunc(func() { value -= 1 }))
		value += 1

		child, err := parent.BeginNested()
		if err != nil {
			t.Fatalf("BeginNested: %v", err)
		}
		child.LogUndo(undoFunc(func() { value -= 10 }))
		value += 10
		if err := child.Abort(); err != nil {
			t.Fatalf("child abort: %v", err)
		}
		if value != 1 {
			t.Errorf("after child abort value = %d, want 1 (parent effect intact)", value)
		}
		if parent.Status() != StatusActive {
			t.Errorf("parent status = %v, want active", parent.Status())
		}
		if err := parent.Commit(); err != nil {
			t.Fatalf("parent commit: %v", err)
		}
	})
	if value != 1 {
		t.Fatalf("value = %d, want 1", value)
	}
}

func TestNestedLocksKeptByRootOnChildAbort(t *testing.T) {
	// Documented deviation: a child's locks stay with the root after the
	// child aborts, so the root's profile includes them.
	mgr := NewManager(gas.DefaultSchedule())
	childLock := LockID{Scope: "m", Key: "child"}
	singleThread(t, func(th runtime.Thread) {
		parent := BeginSpeculative(mgr, 0, th, 1_000_000, PolicyEager)
		child, err := parent.BeginNested()
		if err != nil {
			t.Fatalf("BeginNested: %v", err)
		}
		if err := child.Access(childLock, ModeExclusive, 5); err != nil {
			t.Fatalf("child access: %v", err)
		}
		if err := child.Abort(); err != nil {
			t.Fatalf("child abort: %v", err)
		}
		if err := parent.Commit(); err != nil {
			t.Fatalf("parent commit: %v", err)
		}
		p := parent.Profile()
		if len(p.Entries) != 1 || p.Entries[0].Lock != childLock {
			t.Fatalf("profile = %+v, want aborted child's lock retained", p)
		}
	})
}

func TestNestedChildInheritsParentLocks(t *testing.T) {
	mgr := NewManager(gas.DefaultSchedule())
	lock := LockID{Scope: "m", Key: "k"}
	singleThread(t, func(th runtime.Thread) {
		parent := BeginSpeculative(mgr, 0, th, 1_000_000, PolicyEager)
		if err := parent.Access(lock, ModeExclusive, 5); err != nil {
			t.Fatalf("parent access: %v", err)
		}
		child, err := parent.BeginNested()
		if err != nil {
			t.Fatalf("BeginNested: %v", err)
		}
		// The child re-accessing the parent's lock must take the fast path
		// (no new acquisition).
		before := mgr.Stats().Acquisitions
		if err := child.Access(lock, ModeShared, 5); err != nil {
			t.Fatalf("child access: %v", err)
		}
		if after := mgr.Stats().Acquisitions; after != before {
			t.Fatalf("child re-acquired an inherited lock (%d -> %d)", before, after)
		}
		if err := child.Commit(); err != nil {
			t.Fatalf("child commit: %v", err)
		}
		if err := parent.Commit(); err != nil {
			t.Fatalf("parent commit: %v", err)
		}
	})
}

func TestDeepNesting(t *testing.T) {
	mgr := NewManager(gas.DefaultSchedule())
	value := 0
	singleThread(t, func(th runtime.Thread) {
		root := BeginSpeculative(mgr, 0, th, 1_000_000, PolicyEager)
		cur := root
		for depth := 0; depth < 5; depth++ {
			child, err := cur.BeginNested()
			if err != nil {
				t.Fatalf("nest depth %d: %v", depth, err)
			}
			d := depth
			child.LogUndo(undoFunc(func() { value -= 1 << d }))
			value += 1 << d
			cur = child
		}
		// Chain is root -> c1(+1) -> c2(+2) -> c3(+4) -> c4(+8) -> c5(+16).
		// Commit the innermost three (c5, c4, c3): their undo logs merge
		// into c2. Abort c2: undoes 16, 8, 4 and its own 2. Commit c1 and
		// the root: only c1's +1 survives.
		for i := 0; i < 3; i++ {
			if err := cur.Commit(); err != nil {
				t.Errorf("commit: %v", err)
			}
			cur = cur.parent
		}
		if err := cur.Abort(); err != nil {
			t.Errorf("abort c2: %v", err)
		}
		cur = cur.parent
		if err := cur.Commit(); err != nil {
			t.Errorf("commit c1: %v", err)
		}
		if cur.parent != root {
			t.Error("nesting bookkeeping broken")
		}
		if err := root.Commit(); err != nil {
			t.Errorf("root commit: %v", err)
		}
	})
	if value != 1 {
		t.Fatalf("value = %d, want 1", value)
	}
}

func TestOverlayBasics(t *testing.T) {
	o := NewOverlay()
	applied := map[string]any{}
	apply := func(k string) func(any, bool) {
		return func(v any, del bool) {
			if del {
				delete(applied, k)
				return
			}
			applied[k] = v
		}
	}
	key1 := OverlayKey{Obj: 1, Key: "a"}
	o.Put(key1, 10, false, apply("a"))
	if v, del, ok := o.Get(key1); !ok || del || v != 10 {
		t.Fatalf("Get = (%v, %v, %v)", v, del, ok)
	}
	o.Put(key1, 20, false, apply("a")) // overwrite
	if o.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after overwrite", o.Len())
	}
	o.Put(OverlayKey{Obj: 1, Key: "b"}, 5, false, apply("b"))
	o.Apply()
	if applied["a"] != 20 || applied["b"] != 5 {
		t.Fatalf("applied = %v", applied)
	}
	if o.Len() != 0 {
		t.Fatal("Apply must clear the overlay")
	}
}

func TestOverlayDelete(t *testing.T) {
	o := NewOverlay()
	applied := map[string]any{"a": 1}
	key := OverlayKey{Obj: 1, Key: "a"}
	o.Put(key, nil, true, func(v any, del bool) {
		if del {
			delete(applied, "a")
		}
	})
	if _, del, ok := o.Get(key); !ok || !del {
		t.Fatal("buffered delete not visible")
	}
	o.Apply()
	if _, exists := applied["a"]; exists {
		t.Fatal("delete not applied")
	}
}

func TestOverlayMergeChildWins(t *testing.T) {
	parent := NewOverlay()
	child := NewOverlay()
	key := OverlayKey{Obj: 1, Key: "a"}
	var got any
	parent.Put(key, "parent", false, func(v any, del bool) { got = v })
	child.Put(key, "child", false, func(v any, del bool) { got = v })
	parent.Merge(child)
	parent.Apply()
	if got != "child" {
		t.Fatalf("got %v, want child value to win", got)
	}
}

func TestLazyPolicyAbortDropsOverlay(t *testing.T) {
	mgr := NewManager(gas.DefaultSchedule())
	value := 0
	singleThread(t, func(th runtime.Thread) {
		tx := BeginSpeculative(mgr, 0, th, 1_000_000, PolicyLazy)
		ov := tx.Overlay()
		if ov == nil {
			t.Fatal("lazy tx must expose an overlay")
		}
		ov.Put(OverlayKey{Obj: 1, Key: "x"}, 42, false, func(v any, del bool) { value = v.(int) })
		if err := tx.Abort(); err != nil {
			t.Fatalf("abort: %v", err)
		}
	})
	if value != 0 {
		t.Fatalf("aborted lazy tx applied its overlay: value = %d", value)
	}
}

func TestLazyPolicyCommitAppliesOverlay(t *testing.T) {
	mgr := NewManager(gas.DefaultSchedule())
	value := 0
	singleThread(t, func(th runtime.Thread) {
		tx := BeginSpeculative(mgr, 0, th, 1_000_000, PolicyLazy)
		tx.Overlay().Put(OverlayKey{Obj: 1, Key: "x"}, 42, false, func(v any, del bool) { value = v.(int) })
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
	})
	if value != 42 {
		t.Fatalf("value = %d, want 42", value)
	}
}

func TestLazyNestedCommitMergesOverlay(t *testing.T) {
	mgr := NewManager(gas.DefaultSchedule())
	value := 0
	singleThread(t, func(th runtime.Thread) {
		parent := BeginSpeculative(mgr, 0, th, 1_000_000, PolicyLazy)
		child, err := parent.BeginNested()
		if err != nil {
			t.Fatalf("BeginNested: %v", err)
		}
		child.Overlay().Put(OverlayKey{Obj: 1, Key: "x"}, 7, false, func(v any, del bool) { value = v.(int) })
		if err := child.Commit(); err != nil {
			t.Fatalf("child commit: %v", err)
		}
		if value != 0 {
			t.Error("child commit must not reach storage before parent commit")
		}
		if err := parent.Commit(); err != nil {
			t.Fatalf("parent commit: %v", err)
		}
	})
	if value != 7 {
		t.Fatalf("value = %d, want 7", value)
	}
}

func TestLazyNestedAbortDiscardsChildOverlay(t *testing.T) {
	mgr := NewManager(gas.DefaultSchedule())
	value := 0
	singleThread(t, func(th runtime.Thread) {
		parent := BeginSpeculative(mgr, 0, th, 1_000_000, PolicyLazy)
		parent.Overlay().Put(OverlayKey{Obj: 1, Key: "keep"}, 1, false, func(v any, del bool) { value += v.(int) })
		child, err := parent.BeginNested()
		if err != nil {
			t.Fatalf("BeginNested: %v", err)
		}
		child.Overlay().Put(OverlayKey{Obj: 1, Key: "drop"}, 100, false, func(v any, del bool) { value += v.(int) })
		if err := child.Abort(); err != nil {
			t.Fatalf("child abort: %v", err)
		}
		if err := parent.Commit(); err != nil {
			t.Fatalf("parent commit: %v", err)
		}
	})
	if value != 1 {
		t.Fatalf("value = %d, want 1 (child overlay discarded)", value)
	}
}

func TestNonLazyTxHasNilOverlay(t *testing.T) {
	mgr := NewManager(gas.DefaultSchedule())
	singleThread(t, func(th runtime.Thread) {
		if tx := BeginSpeculative(mgr, 0, th, 1000, PolicyEager); tx.Overlay() != nil {
			t.Error("eager tx exposes an overlay")
		}
		if tx := BeginSerial(0, th, 1000, gas.DefaultSchedule()); tx.Overlay() != nil {
			t.Error("serial tx exposes an overlay")
		}
		if tx := BeginReplay(0, th, 1000, gas.DefaultSchedule()); tx.Overlay() != nil {
			t.Error("replay tx exposes an overlay")
		}
	})
}

func TestChargeStep(t *testing.T) {
	singleThread(t, func(th runtime.Thread) {
		tx := BeginSerial(0, th, 100, gas.DefaultSchedule())
		if err := tx.ChargeStep(40); err != nil {
			t.Fatalf("ChargeStep: %v", err)
		}
		if used := tx.Meter().Used(); used != 40 {
			t.Fatalf("used = %d, want 40", used)
		}
		if err := tx.ChargeStep(100); err == nil {
			t.Fatal("over-limit ChargeStep succeeded")
		}
	})
}
