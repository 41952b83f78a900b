package engine

import (
	"fmt"
	"sync/atomic"

	"contractstm/internal/contract"
	"contractstm/internal/gas"
	"contractstm/internal/runtime"
	"contractstm/internal/stm"
	"contractstm/internal/types"
)

// SpeculativeEngine is the paper's Algorithm 1, MineInParallel: execute
// the block's transactions speculatively on a thread pool as atomic
// actions, resolving conflicts by blocking on abstract locks and by
// aborting and retrying deadlock victims; then read the happens-before
// graph H off the lock table — each lock's history of committed holders,
// in use-counter order — and topologically sort it into the serial order
// S, as every engine does (settle). The published profiles describe the
// same H (sched.BuildSchedule derives it from them); the table just
// already has it grouped.
type SpeculativeEngine struct{}

var _ Engine = SpeculativeEngine{}

// Kind implements Engine.
func (SpeculativeEngine) Kind() Kind { return KindSpeculative }

// ExecuteBlock implements Engine.
func (SpeculativeEngine) ExecuteBlock(runner runtime.Runner, w *contract.World, calls []contract.Call, opts Options) (Result, error) {
	opts = opts.withDefaults()
	n := len(calls)
	mgr := stm.NewManager(w.Schedule())
	// The table goes back to the pool only after H has been read off it.
	defer mgr.Release()

	receipts := make([]contract.Receipt, n)
	profiles := make([]stm.Profile, n)
	// attempts[i] counts discarded speculative attempts of transaction i.
	// Each slot is written only by the worker currently owning i (retries
	// stay on their worker), so plain stores suffice; the total is
	// aggregated atomically for the cross-worker Retries counter.
	attempts := make([]int, n)
	var totalRetries atomic.Int64

	// Parallel pools pay dispatch latency; the single-threaded baseline
	// does not (the paper's serial miner runs in-line, not on a pool).
	pool := runner
	if opts.Workers > 1 {
		pool = runtime.WithStartupWork(runner, w.Schedule().PoolStartup)
	}
	makespan, err := runDispatch(pool, opts.Workers, n, func(th runtime.Thread, i int) error {
		call := calls[i]
		id := types.TxID(i)
		attempt := 0
		for {
			tx := stm.BeginSpeculative(mgr, id, th, call.GasLimit, opts.Policy)
			out := contract.Execute(w, tx, call)
			if out.Kind == contract.OutcomeRetry {
				attempt++
				totalRetries.Add(1)
				if attempt > DefaultMaxRetries {
					return fmt.Errorf("engine: %s exceeded %d retries: %s", id, DefaultMaxRetries, out.Reason)
				}
				th.Work(DefaultRetryBackoff * gas.Gas(attempt))
				tx.AwaitRefusedLock()
				tx.Recycle()
				continue
			}
			receipts[i] = contract.ReceiptFor(id, out)
			profiles[i] = tx.Profile()
			attempts[i] = attempt
			tx.Recycle()
			return nil
		}
	})
	if err != nil {
		return Result{}, fmt.Errorf("engine: speculative run: %w", err)
	}

	stats := Stats{Retries: int(totalRetries.Load()), Rounds: 1, LockStats: mgr.Stats()}
	for i, a := range attempts {
		if a > 0 {
			stats.RetriedTxs = append(stats.RetriedTxs, types.TxID(i))
		}
	}
	return settle(n, mgr, Result{Receipts: receipts, Profiles: profiles, Makespan: makespan, Stats: stats})
}
