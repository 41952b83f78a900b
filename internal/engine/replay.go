package engine

import (
	"errors"
	"fmt"
	"sync/atomic"

	"contractstm/internal/contract"
	"contractstm/internal/forkjoin"
	"contractstm/internal/gas"
	"contractstm/internal/runtime"
	"contractstm/internal/stm"
	"contractstm/internal/types"
)

// ErrTraceMismatch reports a replayed transaction whose trace — the
// abstract locks it would have acquired, with their modes — differs from
// its published profile.
var ErrTraceMismatch = errors.New("trace does not match published lock profile")

// ReplayRun is the outcome of Replay: re-derived receipts for the
// validator's comparisons, plus the run's makespan.
type ReplayRun struct {
	Receipts []contract.Receipt
	Makespan uint64
}

// Replay is the validator-side execution core (the paper's Algorithm 2):
// run the published schedule's compiled fork-join program (Precheck builds
// it with sched.ConstructValidator) as dependency-counted tasks,
// longest happens-before chain first, re-executing the block in parallel
// with no locks, no conflict detection and no rollback machinery. Each
// task compares its transaction's trace with profiles[i] as it finishes
// (stm.Tx.TraceMatches); the first mismatch fails the run with
// ErrTraceMismatch, and tasks that have not started by then return without
// executing, leaving the world unspecified. It is the one place the replay
// execution loop lives; the validator package layers the other §4-§5
// checks on top.
func Replay(runner runtime.Runner, w *contract.World, calls []contract.Call, profiles []stm.Profile, prog *forkjoin.Program, workers int) (ReplayRun, error) {
	n := len(calls)
	if len(profiles) != n {
		return ReplayRun{}, fmt.Errorf("engine: %d profiles for %d calls", len(profiles), n)
	}
	costs := w.Schedule()
	receipts := make([]contract.Receipt, n)
	// mismatch is 1 + the first transaction whose trace deviated, 0 while
	// none has.
	var mismatch atomic.Uint64

	pool := runner
	if workers > 1 {
		pool = runtime.WithStartupWork(runner, costs.PoolStartup)
	}
	makespan, err := forkjoin.Run(pool, workers, prog, func(th runtime.Thread, i int) {
		if mismatch.Load() != 0 {
			return
		}
		// Task setup plus one join per happens-before predecessor: the
		// only synchronization the validator pays for (§4).
		th.Work(costs.TaskSetup + costs.JoinOverhead*gas.Gas(prog.Joins(i)))
		call := calls[i]
		id := types.TxID(i)
		tx := stm.BeginReplay(id, th, call.GasLimit, costs)
		out := contract.Execute(w, tx, call)
		receipts[i] = contract.ReceiptFor(id, out)
		if !tx.TraceMatches(profiles[i]) {
			mismatch.CompareAndSwap(0, uint64(i)+1)
		}
		tx.Recycle()
	})
	if err != nil {
		return ReplayRun{}, err
	}
	if m := mismatch.Load(); m != 0 {
		return ReplayRun{}, fmt.Errorf("%s %w", types.TxID(m-1), ErrTraceMismatch)
	}
	return ReplayRun{Receipts: receipts, Makespan: makespan}, nil
}
