package storage

import (
	"testing"

	"contractstm/internal/gas"
	"contractstm/internal/runtime"
	"contractstm/internal/stm"
	"contractstm/internal/types"
)

func TestNoIncrementModeDowngradesAdds(t *testing.T) {
	s := NewStore()
	m := mustMap(t, s, "abl/m")
	a := mustArray(t, s, "abl/a")
	c := mustCell(t, s, "abl/c", uint64(0))
	s.SetNoIncrement(true)

	mgr := stm.NewManager(gas.DefaultSchedule())
	_, err := runtime.NewSimRunner().Run(1, func(th runtime.Thread) {
		tx := stm.BeginSpeculative(mgr, 0, th, 1_000_000, stm.PolicyEager)
		if err := m.AddUint(tx, "k", 1); err != nil {
			t.Errorf("map add: %v", err)
		}
		if _, err := a.Push(tx, uint64(0)); err != nil {
			t.Errorf("push: %v", err)
		}
		if err := a.AddUint(tx, 0, 1); err != nil {
			t.Errorf("array add: %v", err)
		}
		if err := c.AddUint(tx, 1); err != nil {
			t.Errorf("cell add: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
		for _, e := range tx.Profile().Entries {
			if e.Mode == stm.ModeIncrement {
				t.Errorf("lock %s still in increment mode under no-increment ablation", e.Lock)
			}
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestCoarseLocksCollapseToObjectLock(t *testing.T) {
	s := NewStore()
	m := mustMap(t, s, "abl/m")
	s.SetCoarseLocks(true)

	mgr := stm.NewManager(gas.DefaultSchedule())
	_, err := runtime.NewSimRunner().Run(1, func(th runtime.Thread) {
		tx := stm.BeginSpeculative(mgr, 0, th, 1_000_000, stm.PolicyEager)
		if err := m.Put(tx, "k1", uint64(1)); err != nil {
			t.Errorf("put k1: %v", err)
		}
		if err := m.Put(tx, "k2", uint64(2)); err != nil {
			t.Errorf("put k2: %v", err)
		}
		if err := m.AddUint(tx, "k3", 3); err != nil {
			t.Errorf("add k3: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
		p := tx.Profile()
		if len(p.Entries) != 1 {
			t.Fatalf("coarse mode produced %d locks, want 1 object lock: %+v", len(p.Entries), p.Entries)
		}
		if p.Entries[0].Lock.Key != "" || p.Entries[0].Mode != stm.ModeExclusive {
			t.Fatalf("object lock = %+v, want key-less exclusive", p.Entries[0])
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestCoarseLocksCreateFalseConflicts(t *testing.T) {
	// Two workers writing DISTINCT keys of one map: fine-grained locks let
	// them overlap; coarse locks serialize them. Measured via simulated
	// makespan.
	measure := func(coarse bool) uint64 {
		s := NewStore()
		m := mustMap(t, s, "abl/m")
		s.SetCoarseLocks(coarse)
		mgr := stm.NewManager(gas.DefaultSchedule())
		ms, err := runtime.NewSimRunner().Run(2, func(th runtime.Thread) {
			key := "k" + KeyUint(uint64(th.ID()))
			tx := stm.BeginSpeculative(mgr, types.TxID(th.ID()), th, 1_000_000, stm.PolicyEager)
			if err := m.Put(tx, key, uint64(7)); err != nil {
				t.Errorf("put: %v", err)
			}
			th.Work(500)
			if err := tx.Commit(); err != nil {
				t.Errorf("commit: %v", err)
			}
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return ms
	}
	fine := measure(false)
	coarse := measure(true)
	if coarse <= fine {
		t.Fatalf("coarse locks (%d) should be slower than fine-grained (%d) on disjoint keys", coarse, fine)
	}
	if coarse < 2*fine*8/10 {
		t.Fatalf("coarse locks should roughly serialize: %d vs fine %d", coarse, fine)
	}
}

func TestCoarseLocksStillSerializable(t *testing.T) {
	// Same state root under coarse and fine locking for a commuting
	// workload (correctness is unaffected; only concurrency is lost).
	build := func(coarse bool) types.Hash {
		s := NewStore()
		m := mustMap(t, s, "abl/m")
		s.SetCoarseLocks(coarse)
		mgr := stm.NewManager(gas.DefaultSchedule())
		_, err := runtime.NewSimRunner().Run(3, func(th runtime.Thread) {
			for i := 0; i < 5; i++ {
				tx := stm.BeginSpeculative(mgr, types.TxID(th.ID()*10+i), th, 1_000_000, stm.PolicyEager)
				if err := m.AddUint(tx, "k"+KeyUint(uint64(th.ID())), uint64(i)); err != nil {
					t.Errorf("add: %v", err)
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
				}
			}
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		root, err := s.StateRoot()
		if err != nil {
			t.Fatalf("root: %v", err)
		}
		return root
	}
	if build(true) != build(false) {
		t.Fatal("coarse and fine locking disagree on final state")
	}
}
