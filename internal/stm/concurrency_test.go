package stm

import (
	"errors"
	"sync"
	"testing"

	"contractstm/internal/gas"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
)

func TestExclusiveLockSerializesCriticalSections(t *testing.T) {
	lock := LockID{Scope: "m", Key: "k"}
	newBody := func(mgr *Manager, inCS *int, violations *int, mu *sync.Mutex) func(runtime.Thread) {
		return func(th runtime.Thread) {
			for i := 0; i < 20; i++ {
				tx := BeginSpeculative(mgr, types.TxID(th.ID()*100+i), th, 1_000_000, PolicyEager)
				if err := tx.Access(lock, ModeExclusive, 5); err != nil {
					if errors.Is(err, ErrDeadlock) {
						_ = tx.Abort()
						continue
					}
					t.Errorf("access: %v", err)
					return
				}
				mu.Lock()
				*inCS++
				if *inCS > 1 {
					*violations++
				}
				mu.Unlock()
				th.Work(3)
				mu.Lock()
				*inCS--
				mu.Unlock()
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
				}
			}
		}
	}
	t.Run("sim", func(t *testing.T) {
		mgr := NewManager(gas.DefaultSchedule())
		var inCS, violations int
		var mu sync.Mutex
		if _, err := runtime.NewSimRunner().Run(3, newBody(mgr, &inCS, &violations, &mu)); err != nil {
			t.Fatalf("run: %v", err)
		}
		if violations != 0 {
			t.Fatalf("%d mutual-exclusion violations", violations)
		}
	})
	t.Run("os", func(t *testing.T) {
		mgr := NewManager(gas.DefaultSchedule())
		var inCS, violations int
		var mu sync.Mutex
		if _, err := runtime.NewOSRunner(nil).Run(3, newBody(mgr, &inCS, &violations, &mu)); err != nil {
			t.Fatalf("run: %v", err)
		}
		if violations != 0 {
			t.Fatalf("%d mutual-exclusion violations", violations)
		}
	})
}

func TestSharedHoldersOverlap(t *testing.T) {
	// Two readers of the same lock must both hold it concurrently in the
	// simulator: the second must not wait for the first (makespan check).
	mgr := NewManager(gas.DefaultSchedule())
	lock := LockID{Scope: "m", Key: "k"}
	ms, err := runtime.NewSimRunner().Run(2, func(th runtime.Thread) {
		tx := BeginSpeculative(mgr, types.TxID(th.ID()), th, 1_000_000, PolicyEager)
		if err := tx.Access(lock, ModeShared, 10); err != nil {
			t.Errorf("access: %v", err)
		}
		th.Work(100)
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Each worker: setup(30) + access(10+14) + 100 work ≈ 154; overlapping
	// readers keep the makespan near one worker's cost, far below 2x.
	sched := gas.DefaultSchedule()
	oneWorker := uint64(sched.SpecTxSetup) + 10 + uint64(sched.LockOverhead) + 100
	if ms > oneWorker+20 {
		t.Fatalf("makespan %d suggests readers serialized (one worker ≈ %d)", ms, oneWorker)
	}
}

func TestIncrementHoldersOverlap(t *testing.T) {
	mgr := NewManager(gas.DefaultSchedule())
	lock := LockID{Scope: "ballot", Key: "proposal0"}
	counter := 0
	var mu sync.Mutex
	ms, err := runtime.NewSimRunner().Run(3, func(th runtime.Thread) {
		tx := BeginSpeculative(mgr, types.TxID(th.ID()), th, 1_000_000, PolicyEager)
		if err := tx.Access(lock, ModeIncrement, 10); err != nil {
			t.Errorf("access: %v", err)
		}
		mu.Lock()
		counter++
		mu.Unlock()
		th.Work(100)
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if counter != 3 {
		t.Fatalf("counter = %d", counter)
	}
	sched := gas.DefaultSchedule()
	oneWorker := uint64(sched.SpecTxSetup) + 10 + uint64(sched.LockOverhead) + 100
	if ms > oneWorker+20 {
		t.Fatalf("makespan %d suggests increments serialized (one worker ≈ %d)", ms, oneWorker)
	}
}

func TestExclusiveBlocksUntilRelease(t *testing.T) {
	// Worker 1's exclusive access must wait for worker 0's commit; the
	// simulator makespan must therefore be ~2x one critical section.
	mgr := NewManager(gas.DefaultSchedule())
	lock := LockID{Scope: "m", Key: "k"}
	ms, err := runtime.NewSimRunner().Run(2, func(th runtime.Thread) {
		tx := BeginSpeculative(mgr, types.TxID(th.ID()), th, 1_000_000, PolicyEager)
		if err := tx.Access(lock, ModeExclusive, 10); err != nil {
			t.Errorf("access: %v", err)
		}
		th.Work(100)
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if ms < 200 {
		t.Fatalf("makespan %d too small: exclusive sections overlapped", ms)
	}
}

func TestDeadlockDetectedAndVictimAborts(t *testing.T) {
	// Classic ABBA: worker 0 takes A then B; worker 1 takes B then A.
	// Exactly one of them must receive ErrDeadlock; after its abort the
	// other completes. Deterministic in the simulator.
	mgr := NewManager(gas.DefaultSchedule())
	lockA := LockID{Scope: "m", Key: "A"}
	lockB := LockID{Scope: "m", Key: "B"}
	var mu sync.Mutex
	deadlocks, commits := 0, 0
	_, err := runtime.NewSimRunner().Run(2, func(th runtime.Thread) {
		first, second := lockA, lockB
		if th.ID() == 1 {
			first, second = lockB, lockA
		}
		for attempt := 0; attempt < 5; attempt++ {
			tx := BeginSpeculative(mgr, types.TxID(th.ID()), th, 1_000_000, PolicyEager)
			if err := tx.Access(first, ModeExclusive, 5); err != nil {
				t.Errorf("first access: %v", err)
				return
			}
			th.Work(50) // ensure overlap so both hold their first lock
			err := tx.Access(second, ModeExclusive, 5)
			if errors.Is(err, ErrDeadlock) {
				mu.Lock()
				deadlocks++
				mu.Unlock()
				if aerr := tx.Abort(); aerr != nil {
					t.Errorf("abort: %v", aerr)
				}
				th.Work(10) // backoff
				continue
			}
			if err != nil {
				t.Errorf("second access: %v", err)
				return
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("commit: %v", err)
			}
			mu.Lock()
			commits++
			mu.Unlock()
			return
		}
		t.Error("worker never committed within 5 attempts")
	})
	if err != nil {
		t.Fatalf("run (undetected deadlock would surface as ErrAllParked): %v", err)
	}
	if commits != 2 {
		t.Fatalf("commits = %d, want 2", commits)
	}
	if deadlocks == 0 {
		t.Fatal("expected at least one ErrDeadlock")
	}
}

func TestUpgradeDeadlockBetweenTwoReaders(t *testing.T) {
	// Both workers take the lock shared, then both try to upgrade to
	// exclusive: each waits on the other → deadlock must be detected.
	mgr := NewManager(gas.DefaultSchedule())
	lock := LockID{Scope: "m", Key: "k"}
	var mu sync.Mutex
	deadlocks, commits := 0, 0
	_, err := runtime.NewSimRunner().Run(2, func(th runtime.Thread) {
		for attempt := 0; attempt < 5; attempt++ {
			tx := BeginSpeculative(mgr, types.TxID(th.ID()), th, 1_000_000, PolicyEager)
			if err := tx.Access(lock, ModeShared, 5); err != nil {
				t.Errorf("shared access: %v", err)
				return
			}
			th.Work(50)
			err := tx.Access(lock, ModeExclusive, 5)
			if errors.Is(err, ErrDeadlock) {
				mu.Lock()
				deadlocks++
				mu.Unlock()
				if aerr := tx.Abort(); aerr != nil {
					t.Errorf("abort: %v", aerr)
				}
				th.Work(10)
				continue
			}
			if err != nil {
				t.Errorf("upgrade: %v", err)
				return
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("commit: %v", err)
			}
			mu.Lock()
			commits++
			mu.Unlock()
			return
		}
		t.Error("worker never committed")
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if commits != 2 || deadlocks == 0 {
		t.Fatalf("commits=%d deadlocks=%d", commits, deadlocks)
	}
}

func TestCommitWakesWaiter(t *testing.T) {
	// Both workers contend for one exclusive lock with no deadlock
	// possibility; both must eventually commit (waiter is woken).
	newBody := func(mgr *Manager) func(runtime.Thread) {
		return func(th runtime.Thread) {
			tx := BeginSpeculative(mgr, types.TxID(th.ID()), th, 1_000_000, PolicyEager)
			if err := tx.Access(LockID{Scope: "w", Key: "k"}, ModeExclusive, 5); err != nil {
				t.Errorf("access: %v", err)
				return
			}
			th.Work(20)
			if err := tx.Commit(); err != nil {
				t.Errorf("commit: %v", err)
			}
		}
	}
	t.Run("sim", func(t *testing.T) {
		if _, err := runtime.NewSimRunner().Run(2, newBody(NewManager(gas.DefaultSchedule()))); err != nil {
			t.Fatalf("sim run: %v", err)
		}
	})
	t.Run("os", func(t *testing.T) {
		if _, err := runtime.NewOSRunner(nil).Run(2, newBody(NewManager(gas.DefaultSchedule()))); err != nil {
			t.Fatalf("os run: %v", err)
		}
	})
}

func TestStatsCounters(t *testing.T) {
	mgr := NewManager(gas.DefaultSchedule())
	lock := LockID{Scope: "m", Key: "k"}
	_, err := runtime.NewSimRunner().Run(2, func(th runtime.Thread) {
		tx := BeginSpeculative(mgr, types.TxID(th.ID()), th, 1_000_000, PolicyEager)
		if err := tx.Access(lock, ModeExclusive, 5); err != nil {
			t.Errorf("access: %v", err)
			return
		}
		th.Work(20)
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := mgr.Stats()
	if s.Acquisitions != 2 {
		t.Errorf("acquisitions = %d, want 2", s.Acquisitions)
	}
	if s.Waits != 1 {
		t.Errorf("waits = %d, want 1 (second worker must have blocked)", s.Waits)
	}
	if s.Deadlocks != 0 {
		t.Errorf("deadlocks = %d, want 0", s.Deadlocks)
	}
}
