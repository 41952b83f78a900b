package engine

import (
	"fmt"

	"contractstm/internal/contract"
	"contractstm/internal/gas"
	"contractstm/internal/runtime"
	"contractstm/internal/stm"
	"contractstm/internal/types"
)

// OCCEngine executes the whole batch optimistically, in the style of
// Block-STM: no abstract locks and no blocking. Each round runs every
// still-pending transaction in parallel against the stable committed
// state, with all writes buffered in a per-transaction isolated overlay
// and every storage access recorded in a read/write set keyed by the same
// abstract locks the speculative engine uses. A deterministic
// validate-and-commit pass then walks the pending transactions in block
// order: a transaction whose read/write set is compatible with everything
// committed earlier in the same round commits (its buffered writes are
// applied); an incompatible one is discarded and re-executed next round
// against the newly committed state.
//
// The commit order is a conflict-serializable order by construction. Each
// committing transaction is settled into the lock table in that order, as
// if it had held its read/write set's locks until its commit
// (stm.Manager.Record), so the (S, H) read off the table replays to
// identical receipts and state — the validator accepts OCC blocks exactly
// as it accepts speculative ones.
//
// Progress is structural: the first pending transaction of every round
// validates against an empty committed set, so each round commits at least
// one transaction and a block of n transactions needs at most n rounds.
type OCCEngine struct{}

var _ Engine = OCCEngine{}

// Kind implements Engine.
func (OCCEngine) Kind() Kind { return KindOCC }

// occAttempt is one transaction's latest optimistic execution.
type occAttempt struct {
	receipt contract.Receipt
	locks   []stm.ProfileEntry
	writes  *stm.Overlay
}

// ExecuteBlock implements Engine.
func (OCCEngine) ExecuteBlock(runner runtime.Runner, w *contract.World, calls []contract.Call, opts Options) (Result, error) {
	opts = opts.withDefaults()
	n := len(calls)
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = n
	}
	costs := w.Schedule()
	mgr := stm.NewManager(costs)
	defer mgr.Release()

	attempts := make([]occAttempt, n)
	profiles := make([]stm.Profile, n)
	retried := make([]bool, n)
	pending := make([]int, 0, n)
	for i := 0; i < n; i++ {
		pending = append(pending, i)
	}
	// Round-scoped scratch, hoisted so every round after the first reuses
	// the same storage: the deferred-id buffer (swapped with pending each
	// round) and the committed read/write-set map (cleared in place).
	deferred := make([]int, 0, n)
	committed := make(map[stm.LockID]stm.Mode)

	var stats Stats
	var makespan uint64
	for len(pending) > 0 {
		stats.Rounds++
		if stats.Rounds > maxRounds {
			return Result{}, fmt.Errorf("engine: occ exceeded %d rounds with %d transactions pending", maxRounds, len(pending))
		}

		// Execution phase: every pending transaction runs against the
		// stable committed state. All writes are buffered, so workers
		// share the world read-only and need no coordination beyond the
		// dispatch cursor.
		workers := opts.Workers
		if workers > len(pending) {
			workers = len(pending)
		}
		pool := runner
		if workers > 1 {
			pool = runtime.WithStartupWork(runner, costs.PoolStartup)
		}
		round := pending
		execSpan, err := runDispatch(pool, workers, len(round), func(th runtime.Thread, k int) error {
			i := round[k]
			call := calls[i]
			id := types.TxID(i)
			tx := stm.BeginOCC(id, th, call.GasLimit, costs)
			out := contract.Execute(w, tx, call)
			if out.Kind == contract.OutcomeRetry {
				// The OCC regime never blocks, so it can never deadlock.
				return fmt.Errorf("engine: occ execution of %s demanded retry: %s", id, out.Reason)
			}
			// A deferred transaction's prior attempt was discarded in the
			// commit phase, so its lock storage is free to reuse here.
			attempts[i] = occAttempt{
				receipt: contract.ReceiptFor(id, out),
				locks:   tx.Locks(attempts[i].locks),
				writes:  tx.PendingWrites(),
			}
			tx.Recycle()
			return nil
		})
		if err != nil {
			return Result{}, fmt.Errorf("engine: occ round %d: %w", stats.Rounds, err)
		}
		makespan += execSpan

		// Validate-and-commit phase: deterministic, in block order, on a
		// single thread (the paper-style sequential commit point; its cost
		// is charged to the makespan like every other phase).
		deferred = deferred[:0]
		commitSpan, err := runner.Run(1, func(th runtime.Thread) {
			clear(committed)
			for _, i := range round {
				locks := attempts[i].locks
				th.Work(costs.OCCValidate * gas.Gas(len(locks)+1))
				conflict := false
				for _, e := range locks {
					if m, ok := committed[e.Lock]; ok && !stm.Compatible(m, e.Mode) {
						conflict = true
						break
					}
				}
				if conflict {
					deferred = append(deferred, i)
					retried[i] = true
					stats.Retries++
					// The attempt is discarded; recycle its overlay now so
					// next round's re-execution draws from the pool.
					if wr := attempts[i].writes; wr != nil {
						attempts[i].writes = nil
						wr.Release()
					}
					continue
				}
				for _, e := range locks {
					if m, ok := committed[e.Lock]; ok {
						committed[e.Lock] = stm.Combine(m, e.Mode)
					} else {
						committed[e.Lock] = e.Mode
					}
				}
				if wr := attempts[i].writes; wr != nil {
					if wr.Len() > 0 {
						th.Work(costs.OCCValidate * gas.Gas(wr.Len()))
						wr.Apply()
					}
					attempts[i].writes = nil
					wr.Release()
				}
				profiles[i] = mgr.Record(types.TxID(i), locks)
			}
		})
		if err != nil {
			return Result{}, fmt.Errorf("engine: occ commit round %d: %w", stats.Rounds, err)
		}
		makespan += commitSpan
		// Double-buffer the pending/deferred id slices: round aliases the
		// buffer we are about to refill, so swap rather than re-slice.
		pending, deferred = deferred, pending
	}

	receipts := make([]contract.Receipt, n)
	for i := range attempts {
		receipts[i] = attempts[i].receipt
	}
	for i, r := range retried {
		if r {
			stats.RetriedTxs = append(stats.RetriedTxs, types.TxID(i))
		}
	}
	return settle(n, mgr, Result{Receipts: receipts, Profiles: profiles, Makespan: makespan, Stats: stats})
}
