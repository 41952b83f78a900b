package engine

import (
	"contractstm/internal/contract"
	"contractstm/internal/forkjoin"
	"contractstm/internal/gas"
	"contractstm/internal/runtime"
	"contractstm/internal/sched"
	"contractstm/internal/stm"
	"contractstm/internal/types"
)

// ReplayRun is the outcome of Replay: re-derived receipts and traces for
// the validator's comparisons, plus the run's makespan.
type ReplayRun struct {
	Receipts []contract.Receipt
	Traces   []stm.Trace
	Makespan uint64
}

// Replay is the validator-side execution core (the paper's Algorithm 2):
// run the published schedule's fork-join plan as dependency-counted tasks,
// longest happens-before chain first, re-executing the block in parallel
// with no locks, no conflict detection and no rollback machinery, and
// recording per-transaction traces for comparison against the miner's
// published profiles. It is the one place the replay execution loop lives;
// the validator package layers the §4-§5 safety checks on top.
func Replay(runner runtime.Runner, w *contract.World, calls []contract.Call, plan sched.Plan, workers int) (ReplayRun, error) {
	n := len(calls)
	costs := w.Schedule()
	receipts := make([]contract.Receipt, n)
	traces := make([]stm.Trace, n)

	pool := runner
	if workers > 1 {
		pool = runtime.WithStartupWork(runner, costs.PoolStartup)
	}
	makespan, err := forkjoin.Run(pool, workers, plan.Preds, func(th runtime.Thread, i int) {
		// Task setup plus one join per happens-before predecessor: the
		// only synchronization the validator pays for (§4).
		th.Work(costs.TaskSetup + costs.JoinOverhead*gas.Gas(len(plan.Preds[i])))
		call := calls[i]
		id := types.TxID(i)
		tx := stm.BeginReplay(id, th, gas.NewMeter(call.GasLimit), costs)
		out := contract.Execute(w, tx, call)
		receipts[i] = contract.ReceiptFor(id, out)
		traces[i] = tx.TraceResult()
		tx.Recycle()
	})
	if err != nil {
		return ReplayRun{}, err
	}
	return ReplayRun{Receipts: receipts, Traces: traces, Makespan: makespan}, nil
}
