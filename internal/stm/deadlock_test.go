package stm

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"contractstm/internal/gas"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
)

// TestThreeCycleDeadlockDetected exercises transitive wait-for detection:
// worker i takes lock i then lock (i+1)%3. A 3-cycle can only be caught by
// following the wait-for graph through an intermediate blocked transaction
// — a pairwise check would miss it.
func TestThreeCycleDeadlockDetected(t *testing.T) {
	mgr := NewManager(gas.DefaultSchedule())
	locks := []LockID{
		{Scope: "c", Key: "0"},
		{Scope: "c", Key: "1"},
		{Scope: "c", Key: "2"},
	}
	var mu sync.Mutex
	deadlocks, commits := 0, 0
	_, err := runtime.NewSimRunner().Run(3, func(th runtime.Thread) {
		first := locks[th.ID()]
		second := locks[(th.ID()+1)%3]
		for attempt := 0; attempt < 8; attempt++ {
			tx := BeginSpeculative(mgr, types.TxID(th.ID()), th, 1_000_000, PolicyEager)
			if err := tx.Access(first, ModeExclusive, 5); err != nil {
				t.Errorf("first access: %v", err)
				return
			}
			th.Work(50) // overlap all three holders
			err := tx.Access(second, ModeExclusive, 5)
			if errors.Is(err, ErrDeadlock) {
				mu.Lock()
				deadlocks++
				mu.Unlock()
				if aerr := tx.Abort(); aerr != nil {
					t.Errorf("abort: %v", aerr)
				}
				th.Work(gas.Gas(10 * (th.ID() + 1))) // staggered backoff
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
		t.Error("worker starved")
	})
	if err != nil {
		t.Fatalf("run (an undetected 3-cycle deadlocks the simulation): %v", err)
	}
	if commits != 3 {
		t.Fatalf("commits = %d, want 3", commits)
	}
	if deadlocks == 0 {
		t.Fatal("expected at least one detected deadlock in the 3-cycle")
	}
}

// TestProfileCountersUniquePerLock checks the §4 invariant the validator
// depends on: across any concurrent execution, committed holders of one
// lock receive distinct, gapless use-counter values.
func TestProfileCountersUniquePerLock(t *testing.T) {
	prop := func(seed uint8) bool {
		mgr := NewManager(gas.DefaultSchedule())
		lock := LockID{Scope: "p", Key: "k"}
		perWorker := 3
		workers := 3
		var mu sync.Mutex
		var counters []uint64
		_, err := runtime.NewSimRunner().Run(workers, func(th runtime.Thread) {
			for i := 0; i < perWorker; i++ {
				tx := BeginSpeculative(mgr, types.TxID(th.ID()*10+i), th, 1_000_000, PolicyEager)
				if err := tx.Access(lock, ModeExclusive, 5); err != nil {
					// Single lock: deadlock impossible.
					return
				}
				th.Work(gas.Gas(1 + (int(seed)+th.ID()+i)%7))
				if err := tx.Commit(); err != nil {
					return
				}
				mu.Lock()
				counters = append(counters, tx.Profile().Entries[0].Counter)
				mu.Unlock()
			}
		})
		if err != nil {
			return false
		}
		if len(counters) != perWorker*workers {
			return false
		}
		seen := make(map[uint64]bool, len(counters))
		var max uint64
		for _, c := range counters {
			if c == 0 || seen[c] {
				return false
			}
			seen[c] = true
			if c > max {
				max = c
			}
		}
		return max == uint64(len(counters)) // gapless
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestWaiterDoesNotStarveUnderChurn floods one exclusive lock from three
// workers and checks everyone finishes (grant-on-release wakes waiters).
func TestWaiterDoesNotStarveUnderChurn(t *testing.T) {
	mgr := NewManager(gas.DefaultSchedule())
	lock := LockID{Scope: "s", Key: "hot"}
	const perWorker = 25
	var mu sync.Mutex
	done := 0
	_, err := runtime.NewSimRunner().Run(3, func(th runtime.Thread) {
		for i := 0; i < perWorker; i++ {
			tx := BeginSpeculative(mgr, types.TxID(th.ID()*100+i), th, 1_000_000, PolicyEager)
			if err := tx.Access(lock, ModeExclusive, 2); err != nil {
				t.Errorf("access: %v", err)
				return
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
			mu.Lock()
			done++
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if done != 75 {
		t.Fatalf("done = %d, want 75", done)
	}
	if mgr.Counter(lock) != 75 {
		t.Fatalf("final counter = %d, want 75", mgr.Counter(lock))
	}
}

// TestMixedModeQueueing interleaves readers, incrementers and writers on
// one lock and verifies every transaction completes with a coherent
// profile mode.
func TestMixedModeQueueing(t *testing.T) {
	mgr := NewManager(gas.DefaultSchedule())
	lock := LockID{Scope: "mix", Key: "k"}
	modes := []Mode{ModeShared, ModeIncrement, ModeExclusive}
	var mu sync.Mutex
	completed := 0
	_, err := runtime.NewSimRunner().Run(3, func(th runtime.Thread) {
		for i := 0; i < 12; i++ {
			mode := modes[(th.ID()+i)%3]
			tx := BeginSpeculative(mgr, types.TxID(th.ID()*100+i), th, 1_000_000, PolicyEager)
			if err := tx.Access(lock, mode, 3); err != nil {
				t.Errorf("access %v: %v", mode, err)
				return
			}
			th.Work(5)
			if err := tx.Commit(); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
			if got := tx.Profile().Entries[0].Mode; got != mode {
				t.Errorf("profile mode = %v, want %v", got, mode)
			}
			mu.Lock()
			completed++
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if completed != 36 {
		t.Fatalf("completed = %d, want 36", completed)
	}
}

// TestUpgradeLivelockOnOSThreads is the auction's highestBidder pattern on
// the runner nodesrv ships: every worker reads one lock and then asks to
// upgrade it. One upgrader parks; the others are refused as deadlock
// victims. A victim that retried at once would re-take the shared lock
// past the parked upgrader and be refused again — on OSRunner(nil), where
// backoff Work costs no time, for as long as its retry budget lasts.
// Waiting for the refused lock to become grantable ties every retry to
// another transaction's commit, so nobody retries more than workers-1
// times.
func TestUpgradeLivelockOnOSThreads(t *testing.T) {
	const workers, iterations = 4, 200
	lock := LockID{Scope: "auction", Key: "highestBidder"}
	for it := 0; it < iterations; it++ {
		mgr := NewManager(gas.DefaultSchedule())
		var allRead sync.WaitGroup
		allRead.Add(workers)
		_, err := runtime.NewOSRunner(nil).Run(workers, func(th runtime.Thread) {
			for attempt := 0; ; attempt++ {
				tx := BeginSpeculative(mgr, types.TxID(th.ID()), th, 1_000_000, PolicyEager)
				if err := tx.Access(lock, ModeShared, 1); err != nil {
					t.Errorf("iteration %d: shared access: %v", it, err)
					return
				}
				if attempt == 0 {
					// Every reader holds the lock before any asks to upgrade.
					allRead.Done()
					allRead.Wait()
				}
				err := tx.Access(lock, ModeExclusive, 1)
				if err == nil {
					if err := tx.Commit(); err != nil {
						t.Errorf("iteration %d: commit: %v", it, err)
					}
					return
				}
				if !errors.Is(err, ErrDeadlock) {
					t.Errorf("iteration %d: upgrade: %v", it, err)
					return
				}
				if err := tx.Abort(); err != nil {
					t.Errorf("iteration %d: abort: %v", it, err)
					return
				}
				if attempt+1 >= workers {
					t.Errorf("iteration %d: worker %d refused %d times", it, th.ID(), attempt+1)
					return
				}
				tx.AwaitRefusedLock()
			}
		})
		if err != nil {
			t.Fatalf("iteration %d: run: %v", it, err)
		}
		if got := mgr.Counter(lock); got != workers && !t.Failed() {
			t.Fatalf("iteration %d: %d commits, want %d", it, got, workers)
		}
	}
}
