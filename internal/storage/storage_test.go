package storage

import (
	"errors"
	"testing"

	"contractstm/internal/gas"
	"contractstm/internal/runtime"
	"contractstm/internal/stm"
	"contractstm/internal/types"
)

// withTx runs body with a fresh speculative transaction on a single
// simulated thread and a generous meter. The returned tx is left to body to
// commit or abort.
func withTx(t *testing.T, policy stm.Policy, body func(tx *stm.Tx)) {
	t.Helper()
	mgr := stm.NewManager(gas.DefaultSchedule())
	_, err := runtime.NewSimRunner().Run(1, func(th runtime.Thread) {
		tx := stm.BeginSpeculative(mgr, 0, th, 10_000_000, policy)
		body(tx)
	})
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}
}

func mustMap(t testing.TB, s *Store, name string) *Map {
	t.Helper()
	m, err := NewMap(s, name)
	if err != nil {
		t.Fatalf("NewMap(%s): %v", name, err)
	}
	return m
}

func mustArray(t *testing.T, s *Store, name string) *Array {
	t.Helper()
	a, err := NewArray(s, name)
	if err != nil {
		t.Fatalf("NewArray(%s): %v", name, err)
	}
	return a
}

func mustCell(t *testing.T, s *Store, name string, init any) *Cell {
	t.Helper()
	c, err := NewCell(s, name, init)
	if err != nil {
		t.Fatalf("NewCell(%s): %v", name, err)
	}
	return c
}

func TestMapPutGetDelete(t *testing.T) {
	s := NewStore()
	m := mustMap(t, s, "test/m")
	withTx(t, stm.PolicyEager, func(tx *stm.Tx) {
		if err := m.Put(tx, "k", uint64(7)); err != nil {
			t.Errorf("Put: %v", err)
		}
		v, ok, err := m.Get(tx, "k")
		if err != nil || !ok || v.(uint64) != 7 {
			t.Errorf("Get = (%v,%v,%v)", v, ok, err)
		}
		has, err := m.Contains(tx, "missing")
		if err != nil || has {
			t.Errorf("Contains(missing) = (%v,%v)", has, err)
		}
		if err := m.Delete(tx, "k"); err != nil {
			t.Errorf("Delete: %v", err)
		}
		if _, ok, _ := m.Get(tx, "k"); ok {
			t.Error("key visible after delete")
		}
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
	})
	if m.Len() != 0 {
		t.Fatalf("Len = %d, want 0", m.Len())
	}
}

func TestMapAbortRestoresState(t *testing.T) {
	s := NewStore()
	m := mustMap(t, s, "test/m")
	// Seed initial state.
	withTx(t, stm.PolicyEager, func(tx *stm.Tx) {
		if err := m.Put(tx, "existing", uint64(1)); err != nil {
			t.Errorf("seed put: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Errorf("seed commit: %v", err)
		}
	})
	rootBefore, err := s.StateRoot()
	if err != nil {
		t.Fatalf("StateRoot: %v", err)
	}
	withTx(t, stm.PolicyEager, func(tx *stm.Tx) {
		_ = m.Put(tx, "existing", uint64(99)) // overwrite
		_ = m.Put(tx, "new", uint64(5))       // insert
		_ = m.Delete(tx, "existing")          // then delete
		if err := tx.Abort(); err != nil {
			t.Errorf("abort: %v", err)
		}
	})
	rootAfter, err := s.StateRoot()
	if err != nil {
		t.Fatalf("StateRoot: %v", err)
	}
	if rootBefore != rootAfter {
		t.Fatal("abort did not restore the exact prior state")
	}
}

func TestMapAddUintAndInverse(t *testing.T) {
	s := NewStore()
	m := mustMap(t, s, "test/m")
	withTx(t, stm.PolicyEager, func(tx *stm.Tx) {
		if err := m.AddUint(tx, "c", 5); err != nil {
			t.Errorf("AddUint: %v", err)
		}
		if err := m.AddUint(tx, "c", 3); err != nil {
			t.Errorf("AddUint: %v", err)
		}
		n, err := m.GetUint(tx, "c")
		if err != nil || n != 8 {
			t.Errorf("GetUint = (%d,%v), want 8", n, err)
		}
		if err := tx.Abort(); err != nil {
			t.Errorf("abort: %v", err)
		}
	})
	// After abort the counter must be back to 0 (inverse adds applied).
	withTx(t, stm.PolicyEager, func(tx *stm.Tx) {
		n, err := m.GetUint(tx, "c")
		if err != nil || n != 0 {
			t.Errorf("after abort GetUint = (%d,%v), want 0", n, err)
		}
		_ = tx.Commit()
	})
}

func TestMapAddUintTypeError(t *testing.T) {
	s := NewStore()
	m := mustMap(t, s, "test/m")
	withTx(t, stm.PolicyEager, func(tx *stm.Tx) {
		_ = m.Put(tx, "s", "not a counter")
		if err := m.AddUint(tx, "s", 1); !errors.Is(err, ErrNotCounter) {
			t.Errorf("AddUint on string = %v, want ErrNotCounter", err)
		}
		if _, err := m.GetUint(tx, "s"); !errors.Is(err, ErrNotCounter) {
			t.Errorf("GetUint on string = %v, want ErrNotCounter", err)
		}
		_ = tx.Abort()
	})
}

func TestMapLazyReadYourWrites(t *testing.T) {
	s := NewStore()
	m := mustMap(t, s, "test/m")
	withTx(t, stm.PolicyLazy, func(tx *stm.Tx) {
		if err := m.Put(tx, "k", uint64(42)); err != nil {
			t.Errorf("Put: %v", err)
		}
		// Raw table untouched until commit.
		if m.Len() != 0 {
			t.Error("lazy put reached raw storage before commit")
		}
		v, ok, err := m.Get(tx, "k")
		if err != nil || !ok || v.(uint64) != 42 {
			t.Errorf("read-your-writes Get = (%v,%v,%v)", v, ok, err)
		}
		if err := m.Delete(tx, "k"); err != nil {
			t.Errorf("Delete: %v", err)
		}
		if _, ok, _ := m.Get(tx, "k"); ok {
			t.Error("buffered delete not visible to Get")
		}
		_ = m.Put(tx, "k2", uint64(1))
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
	})
	if m.Len() != 1 {
		t.Fatalf("after lazy commit Len = %d, want 1", m.Len())
	}
}

func TestMapLazyAbortIsFree(t *testing.T) {
	s := NewStore()
	m := mustMap(t, s, "test/m")
	withTx(t, stm.PolicyLazy, func(tx *stm.Tx) {
		_ = m.Put(tx, "k", uint64(1))
		if err := tx.Abort(); err != nil {
			t.Errorf("abort: %v", err)
		}
	})
	if m.Len() != 0 {
		t.Fatal("aborted lazy write reached storage")
	}
}

func TestArrayPushGetSetLen(t *testing.T) {
	s := NewStore()
	a := mustArray(t, s, "test/a")
	withTx(t, stm.PolicyEager, func(tx *stm.Tx) {
		i0, err := a.Push(tx, uint64(10))
		if err != nil || i0 != 0 {
			t.Errorf("Push = (%d,%v)", i0, err)
		}
		i1, err := a.Push(tx, uint64(20))
		if err != nil || i1 != 1 {
			t.Errorf("Push = (%d,%v)", i1, err)
		}
		n, err := a.Len(tx)
		if err != nil || n != 2 {
			t.Errorf("Len = (%d,%v)", n, err)
		}
		if err := a.Set(tx, 0, uint64(11)); err != nil {
			t.Errorf("Set: %v", err)
		}
		v, err := a.GetUint(tx, 0)
		if err != nil || v != 11 {
			t.Errorf("GetUint(0) = (%d,%v)", v, err)
		}
		_ = tx.Commit()
	})
}

func TestArrayOutOfRange(t *testing.T) {
	s := NewStore()
	a := mustArray(t, s, "test/a")
	withTx(t, stm.PolicyEager, func(tx *stm.Tx) {
		if _, err := a.Get(tx, 0); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("Get(0) on empty = %v, want ErrOutOfRange", err)
		}
		if err := a.Set(tx, 3, uint64(1)); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("Set(3) = %v, want ErrOutOfRange", err)
		}
		if err := a.AddUint(tx, 0, 1); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("AddUint(0) = %v, want ErrOutOfRange", err)
		}
		_ = tx.Abort()
	})
}

func TestArrayAbortUndoesPushesAndSets(t *testing.T) {
	s := NewStore()
	a := mustArray(t, s, "test/a")
	withTx(t, stm.PolicyEager, func(tx *stm.Tx) {
		_, _ = a.Push(tx, uint64(1))
		_ = tx.Commit()
	})
	rootBefore, _ := s.StateRoot()
	withTx(t, stm.PolicyEager, func(tx *stm.Tx) {
		_ = a.Set(tx, 0, uint64(9))
		_, _ = a.Push(tx, uint64(2))
		_, _ = a.Push(tx, uint64(3))
		_ = a.AddUint(tx, 0, 100)
		if err := tx.Abort(); err != nil {
			t.Errorf("abort: %v", err)
		}
	})
	rootAfter, _ := s.StateRoot()
	if rootBefore != rootAfter {
		t.Fatal("abort did not undo array mutations")
	}
}

func TestArrayAddUint(t *testing.T) {
	s := NewStore()
	a := mustArray(t, s, "test/a")
	withTx(t, stm.PolicyEager, func(tx *stm.Tx) {
		_, _ = a.Push(tx, uint64(5))
		if err := a.AddUint(tx, 0, 7); err != nil {
			t.Errorf("AddUint: %v", err)
		}
		v, err := a.GetUint(tx, 0)
		if err != nil || v != 12 {
			t.Errorf("GetUint = (%d,%v), want 12", v, err)
		}
		_ = tx.Commit()
	})
}

func TestArrayLazySetBuffered(t *testing.T) {
	s := NewStore()
	a := mustArray(t, s, "test/a")
	withTx(t, stm.PolicyEager, func(tx *stm.Tx) {
		_, _ = a.Push(tx, uint64(1))
		_ = tx.Commit()
	})
	withTx(t, stm.PolicyLazy, func(tx *stm.Tx) {
		if err := a.Set(tx, 0, uint64(2)); err != nil {
			t.Errorf("Set: %v", err)
		}
		v, err := a.GetUint(tx, 0)
		if err != nil || v != 2 {
			t.Errorf("read-your-writes GetUint = (%d,%v), want 2", v, err)
		}
		_ = tx.Abort()
	})
	withTx(t, stm.PolicyEager, func(tx *stm.Tx) {
		v, err := a.GetUint(tx, 0)
		if err != nil || v != 1 {
			t.Errorf("after lazy abort GetUint = (%d,%v), want 1", v, err)
		}
		_ = tx.Commit()
	})
}

func TestCellReadWriteAdd(t *testing.T) {
	s := NewStore()
	c := mustCell(t, s, "test/c", uint64(100))
	withTx(t, stm.PolicyEager, func(tx *stm.Tx) {
		v, err := c.ReadUint(tx)
		if err != nil || v != 100 {
			t.Errorf("ReadUint = (%d,%v)", v, err)
		}
		if err := c.Write(tx, uint64(200)); err != nil {
			t.Errorf("Write: %v", err)
		}
		if err := c.AddUint(tx, 50); err != nil {
			t.Errorf("AddUint: %v", err)
		}
		v, _ = c.ReadUint(tx)
		if v != 250 {
			t.Errorf("value = %d, want 250", v)
		}
		_ = tx.Abort()
	})
	withTx(t, stm.PolicyEager, func(tx *stm.Tx) {
		v, err := c.ReadUint(tx)
		if err != nil || v != 100 {
			t.Errorf("after abort ReadUint = (%d,%v), want 100", v, err)
		}
		_ = tx.Commit()
	})
}

func TestCellAddUintTypeError(t *testing.T) {
	s := NewStore()
	c := mustCell(t, s, "test/c", "text")
	withTx(t, stm.PolicyEager, func(tx *stm.Tx) {
		if err := c.AddUint(tx, 1); !errors.Is(err, ErrNotCounter) {
			t.Errorf("AddUint = %v, want ErrNotCounter", err)
		}
		_ = tx.Abort()
	})
}

func TestCellLazy(t *testing.T) {
	s := NewStore()
	c := mustCell(t, s, "test/c", uint64(1))
	withTx(t, stm.PolicyLazy, func(tx *stm.Tx) {
		_ = c.Write(tx, uint64(9))
		v, err := c.ReadUint(tx)
		if err != nil || v != 9 {
			t.Errorf("read-your-writes = (%d,%v)", v, err)
		}
		_ = tx.Commit()
	})
	withTx(t, stm.PolicyEager, func(tx *stm.Tx) {
		v, _ := c.ReadUint(tx)
		if v != 9 {
			t.Errorf("after lazy commit = %d, want 9", v)
		}
		_ = tx.Commit()
	})
}

func TestDuplicateObjectNames(t *testing.T) {
	s := NewStore()
	mustMap(t, s, "dup")
	if _, err := NewArray(s, "dup"); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("duplicate name error = %v", err)
	}
}

func TestStateRootChangesWithState(t *testing.T) {
	s := NewStore()
	m := mustMap(t, s, "m")
	c := mustCell(t, s, "c", uint64(0))
	root0, err := s.StateRoot()
	if err != nil {
		t.Fatalf("StateRoot: %v", err)
	}
	withTx(t, stm.PolicyEager, func(tx *stm.Tx) {
		_ = m.Put(tx, "k", uint64(1))
		_ = tx.Commit()
	})
	root1, _ := s.StateRoot()
	if root0 == root1 {
		t.Fatal("map write did not change state root")
	}
	withTx(t, stm.PolicyEager, func(tx *stm.Tx) {
		_ = c.Write(tx, uint64(5))
		_ = tx.Commit()
	})
	root2, _ := s.StateRoot()
	if root1 == root2 {
		t.Fatal("cell write did not change state root")
	}
}

func TestStateRootDeterministic(t *testing.T) {
	build := func() types.Hash {
		s := NewStore()
		m := mustMap(t, s, "m")
		a := mustArray(t, s, "a")
		withTx(t, stm.PolicyEager, func(tx *stm.Tx) {
			for i := 0; i < 20; i++ {
				_ = m.Put(tx, KeyUint(uint64(i)), uint64(i*i))
				_, _ = a.Push(tx, uint64(i))
			}
			_ = tx.Commit()
		})
		root, err := s.StateRoot()
		if err != nil {
			t.Fatalf("StateRoot: %v", err)
		}
		return root
	}
	if build() != build() {
		t.Fatal("identical construction produced different roots")
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := NewStore()
	m := mustMap(t, s, "m")
	a := mustArray(t, s, "a")
	c := mustCell(t, s, "c", uint64(7))
	withTx(t, stm.PolicyEager, func(tx *stm.Tx) {
		_ = m.Put(tx, "k", uint64(1))
		_, _ = a.Push(tx, uint64(2))
		_ = tx.Commit()
	})
	snap := s.Snapshot()
	rootBefore, _ := s.StateRoot()

	withTx(t, stm.PolicyEager, func(tx *stm.Tx) {
		_ = m.Put(tx, "k", uint64(100))
		_ = m.Put(tx, "k2", uint64(3))
		_, _ = a.Push(tx, uint64(4))
		_ = c.Write(tx, uint64(0))
		_ = tx.Commit()
	})
	if r, _ := s.StateRoot(); r == rootBefore {
		t.Fatal("mutations did not change root (test is vacuous)")
	}
	s.Restore(snap)
	if r, _ := s.StateRoot(); r != rootBefore {
		t.Fatal("restore did not reproduce the snapshot root")
	}
}

func TestEncodeValueKinds(t *testing.T) {
	vals := []any{nil, true, false, uint64(7), int(3), "str",
		types.AddressFromUint64(1), types.HashString("h"), types.Amount(9)}
	seen := map[string]bool{}
	for _, v := range vals {
		enc, err := encodeValue(v)
		if err != nil {
			t.Fatalf("encodeValue(%v): %v", v, err)
		}
		if seen[string(enc)] {
			t.Fatalf("encoding collision for %v", v)
		}
		seen[string(enc)] = true
	}
	if _, err := encodeValue(int(-1)); err == nil {
		t.Fatal("negative int encoded without error")
	}
	if _, err := encodeValue(3.14); err == nil {
		t.Fatal("float encoded without error")
	}
}

type testStruct struct{ a, b uint64 }

func (t testStruct) EncodeValue() []byte {
	out := append([]byte{}, KeyUint(t.a)...)
	return append(out, KeyUint(t.b)...)
}

func TestEncodeValueEncoderInterface(t *testing.T) {
	e1, err := encodeValue(testStruct{a: 1, b: 2})
	if err != nil {
		t.Fatalf("encodeValue(struct): %v", err)
	}
	e2, _ := encodeValue(testStruct{a: 1, b: 3})
	if string(e1) == string(e2) {
		t.Fatal("struct encodings collide")
	}
}

func TestKeyUintOrderMatchesNumeric(t *testing.T) {
	if !(KeyUint(1) < KeyUint(2) && KeyUint(255) < KeyUint(256)) {
		t.Fatal("KeyUint is not order-preserving")
	}
}
