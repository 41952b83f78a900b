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
// applied). An incompatible one is discarded, and what happens next
// depends on the transactions the pass has already deferred this round.
// If its read/write set is compatible with theirs, it is deferred too and
// re-executes in the next parallel round against the newly committed
// state. Otherwise it is chained behind a deferred transaction and would
// only fail again, so it re-executes at once on the commit thread against
// the committed prefix and commits. A hot key written by k transactions
// so costs two rounds, not k.
//
// The commit order is a conflict-serializable order by construction. Each
// committing transaction is settled into the lock table in that order, as
// if it had held its read/write set's locks until its commit
// (stm.Manager.Record), so the (S, H) read off the table replays to
// identical receipts and state — the validator accepts OCC blocks exactly
// as it accepts speculative ones. The commit order need not be block
// order: a chained transaction commits ahead of the deferred ones it
// skipped. Every decision depends only on read/write sets computed from a
// round's stable state, so the engine is deterministic on OS threads too.
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
	// round), the committed read/write-set map and the map of what the
	// pass has deferred (both cleared in place).
	deferred := make([]int, 0, n)
	committed := make(map[stm.LockID]stm.Mode)
	waiting := make(map[stm.LockID]stm.Mode)

	// execute runs transaction i on th against the world as it stands,
	// buffering its writes, and keeps the attempt. A deferred
	// transaction's prior attempt was discarded in the commit pass, so its
	// lock storage is free to reuse here.
	execute := func(th runtime.Thread, i int) error {
		call := calls[i]
		id := types.TxID(i)
		tx := stm.BeginOCC(id, th, call.GasLimit, costs)
		out := contract.Execute(w, tx, call)
		if out.Kind == contract.OutcomeRetry {
			// The OCC regime never blocks, so it can never deadlock.
			return fmt.Errorf("engine: occ execution of %s demanded retry: %s", id, out.Reason)
		}
		attempts[i] = occAttempt{
			receipt: contract.ReceiptFor(id, out),
			locks:   tx.Locks(attempts[i].locks),
			writes:  tx.PendingWrites(),
		}
		tx.Recycle()
		return nil
	}

	var stats Stats
	var makespan uint64
	for len(pending) > 0 {
		stats.Rounds++
		// Every round commits its first pending transaction, so this
		// fires only on a bug in the commit pass.
		if stats.Rounds > n {
			return Result{}, fmt.Errorf("engine: occ exceeded %d rounds with %d transactions pending", n, len(pending))
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
			return execute(th, round[k])
		})
		if err != nil {
			return Result{}, fmt.Errorf("engine: occ round %d: %w", stats.Rounds, err)
		}
		makespan += execSpan

		// Validate-and-commit phase: deterministic, in block order, on a
		// single thread (the paper-style sequential commit point; its cost
		// is charged to the makespan like every other phase).
		deferred = deferred[:0]
		var inlineErr error
		commitSpan, err := runner.Run(1, func(th runtime.Thread) {
			clear(committed)
			clear(waiting)
			for _, i := range round {
				locks := attempts[i].locks
				th.Work(costs.OCCValidate * gas.Gas(len(locks)+1))
				if !compatible(committed, locks) {
					retried[i] = true
					stats.Retries++
					// The attempt is discarded; recycle its overlay now so
					// the re-execution draws from the pool.
					if wr := attempts[i].writes; wr != nil {
						attempts[i].writes = nil
						wr.Release()
					}
					if compatible(waiting, locks) {
						deferred = append(deferred, i)
						combine(waiting, locks)
						continue
					}
					// Chained behind a deferred transaction: next round
					// it would fail again. Re-execute it now against the
					// committed prefix and commit it.
					if inlineErr = execute(th, i); inlineErr != nil {
						return
					}
					locks = attempts[i].locks
				}
				combine(committed, locks)
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
		if err == nil {
			err = inlineErr
		}
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

// compatible reports whether every lock in locks is compatible with the
// mode set holds it in. A lock absent from set is compatible.
func compatible(set map[stm.LockID]stm.Mode, locks []stm.ProfileEntry) bool {
	for _, e := range locks {
		if m, ok := set[e.Lock]; ok && !stm.Compatible(m, e.Mode) {
			return false
		}
	}
	return true
}

// combine adds locks to set, combining the modes of locks it already
// holds.
func combine(set map[stm.LockID]stm.Mode, locks []stm.ProfileEntry) {
	for _, e := range locks {
		if m, ok := set[e.Lock]; ok {
			set[e.Lock] = stm.Combine(m, e.Mode)
		} else {
			set[e.Lock] = e.Mode
		}
	}
}
