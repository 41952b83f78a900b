package runtime

import (
	"sync"
	"sync/atomic"
	"testing"

	"contractstm/internal/gas"
)

func TestSimRunnerParallelMakespan(t *testing.T) {
	r := NewSimRunner()
	ms, err := r.Run(3, func(th Thread) {
		th.Work(100)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ms != 100 {
		t.Fatalf("3 workers x 100 gas: makespan = %d, want 100", ms)
	}
}

func TestSimRunnerSerialMakespan(t *testing.T) {
	r := NewSimRunner()
	ms, err := r.Run(1, func(th Thread) {
		for i := 0; i < 5; i++ {
			th.Work(100)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ms != 500 {
		t.Fatalf("makespan = %d, want 500", ms)
	}
}

func TestSimRunnerWorkerIDs(t *testing.T) {
	r := NewSimRunner()
	var mu sync.Mutex
	seen := map[int]bool{}
	_, err := r.Run(4, func(th Thread) {
		mu.Lock()
		seen[th.ID()] = true
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < 4; i++ {
		if !seen[i] {
			t.Fatalf("worker %d never ran; saw %v", i, seen)
		}
	}
}

func TestSimRunnerZeroWorkers(t *testing.T) {
	if _, err := NewSimRunner().Run(0, func(Thread) {}); err == nil {
		t.Fatal("Run(0) succeeded, want error")
	}
}

func TestSimParkUnparkAcrossWorkers(t *testing.T) {
	r := NewSimRunner()
	var threads [2]Thread
	var mu sync.Mutex
	var consumerTime uint64
	_, err := r.Run(2, func(th Thread) {
		mu.Lock()
		threads[th.ID()] = th
		mu.Unlock()
		if th.ID() == 0 {
			th.Park()
			consumerTime = th.Now()
			return
		}
		th.Work(77)
		mu.Lock()
		target := threads[0]
		mu.Unlock()
		th.Unpark(target)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if consumerTime != 77 {
		t.Fatalf("consumer woke at %d, want 77", consumerTime)
	}
}

func TestOSRunnerRunsAllWorkers(t *testing.T) {
	var count atomic.Int32
	ms, err := NewOSRunner(nil).Run(4, func(th Thread) {
		count.Add(1)
		th.Work(10) // no-op burn
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count.Load() != 4 {
		t.Fatalf("ran %d workers, want 4", count.Load())
	}
	if ms == 0 {
		t.Fatal("wall-clock makespan should be nonzero")
	}
}

func TestOSParkUnpark(t *testing.T) {
	var threads [2]Thread
	var mu sync.Mutex
	ready := make(chan struct{})
	var order []string
	_, err := NewOSRunner(nil).Run(2, func(th Thread) {
		mu.Lock()
		threads[th.ID()] = th
		mu.Unlock()
		if th.ID() == 0 {
			close(ready)
			th.Park()
			mu.Lock()
			order = append(order, "woke")
			mu.Unlock()
			return
		}
		<-ready
		mu.Lock()
		target := threads[0]
		order = append(order, "unpark")
		mu.Unlock()
		th.Unpark(target)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != "unpark" || order[1] != "woke" {
		t.Fatalf("order = %v", order)
	}
}

func TestOSUnparkBeforeParkToken(t *testing.T) {
	// Unpark-then-Park must not block.
	done := make(chan struct{})
	_, err := NewOSRunner(nil).Run(1, func(th Thread) {
		th.Unpark(th) // self-token
		th.Park()     // consumes it
		close(done)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	<-done
}

func TestSpinBurnZeroFactorIsNil(t *testing.T) {
	if SpinBurn(0) != nil {
		t.Fatal("SpinBurn(0) should be nil (disabled)")
	}
	if SpinBurn(-1) != nil {
		t.Fatal("SpinBurn(-1) should be nil (disabled)")
	}
}

func TestSpinBurnRuns(t *testing.T) {
	burn := SpinBurn(3)
	if burn == nil {
		t.Fatal("SpinBurn(3) = nil")
	}
	burn(gas.Gas(100)) // must not panic or hang
}

// TestSpinBurnFromTwoWorkers: one burn function serves every worker of
// a pool, so it must share no unsynchronized write. Run under -race
// (CI's race lane does) this fails on any such write.
func TestSpinBurnFromTwoWorkers(t *testing.T) {
	_, err := NewOSRunner(SpinBurn(3)).Run(2, func(th Thread) {
		for i := 0; i < 100; i++ {
			th.Work(gas.Gas(10))
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSimRunnerDeterministicMakespan(t *testing.T) {
	run := func() uint64 {
		ms, err := NewSimRunner().Run(3, func(th Thread) {
			for i := 0; i < 10; i++ {
				th.Work(gas.Gas(1 + (th.ID()+i)%5))
			}
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return ms
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic makespans: %d vs %d", a, b)
	}
}
