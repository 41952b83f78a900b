package engine

import (
	"fmt"

	"contractstm/internal/contract"
	"contractstm/internal/gas"
	"contractstm/internal/runtime"
	"contractstm/internal/sched"
	"contractstm/internal/stm"
	"contractstm/internal/types"
)

// SerialEngine executes the block one transaction at a time, in block
// order, with no locks and no speculation — the paper's baseline "serial
// miner that runs the block without parallelization". Each transaction
// runs in the replay regime, which traces its would-be lock set, and is
// then settled into the lock table as if it had held those locks from its
// start to its commit (stm.Manager.Record): counters follow block order,
// making the serial order itself the happens-before structure. That is
// what lets serially-mined blocks flow through the same parallel validator
// as everything else.
type SerialEngine struct{}

var _ Engine = SerialEngine{}

// profileChunk is how many profile entries the serial engine allocates at
// once: a transaction traces a few locks, so one chunk serves dozens.
const profileChunk = 256

// Kind implements Engine.
func (SerialEngine) Kind() Kind { return KindSerial }

// ExecuteBlock implements Engine.
func (SerialEngine) ExecuteBlock(runner runtime.Runner, w *contract.World, calls []contract.Call, opts Options) (Result, error) {
	n := len(calls)
	mgr := stm.NewManager(w.Schedule())
	defer mgr.Release()
	profiles := make([]stm.Profile, n)
	// Each transaction's profile entries are cut from a block-wide slab, a
	// chunk at a time, rather than allocated apiece.
	var slab []stm.ProfileEntry
	receipts, makespan, err := runSerialLoop(runner, w, calls, nil, stm.BeginReplay, func(tx *stm.Tx) {
		if traced := tx.Traced(); cap(slab)-len(slab) < traced {
			slab = make([]stm.ProfileEntry, 0, max(profileChunk, traced))
		}
		entries := tx.Locks(slab[len(slab):len(slab)])
		slab = slab[:len(slab)+len(entries)]
		profiles[tx.ID()] = mgr.Record(tx.ID(), entries[:len(entries):len(entries)])
		tx.Recycle()
	})
	if err != nil {
		return Result{}, err
	}
	return settle(n, mgr, Result{Receipts: receipts, Profiles: profiles, Makespan: makespan, Stats: Stats{Rounds: 1}})
}

// OrderedRun is the outcome of RunOrdered.
type OrderedRun struct {
	Receipts []contract.Receipt
	Makespan uint64
}

// RunOrdered runs calls one at a time in the order given by order (or
// block order when order is nil), in the bare serial regime: no locks, no
// traces, no schedule — only inverse logging so a contract throw can
// revert its own effects. It is the reference implementation tests use to
// check that every parallel engine is serializable, and the replay tool
// for a published serial order S. An order that is not a permutation of
// the calls is refused.
func RunOrdered(runner runtime.Runner, w *contract.World, calls []contract.Call, order []types.TxID) (OrderedRun, error) {
	if order != nil {
		if err := sched.VerifyOrder(sched.NewGraph(len(calls)), order); err != nil {
			return OrderedRun{}, fmt.Errorf("engine: order is not a permutation of the calls: %w", err)
		}
	}
	receipts, makespan, err := runSerialLoop(runner, w, calls, order, stm.BeginSerial, (*stm.Tx).Recycle)
	if err != nil {
		return OrderedRun{}, err
	}
	return OrderedRun{Receipts: receipts, Makespan: makespan}, nil
}

// runSerialLoop is the one serial execution loop: run calls in order (in
// block order when order is nil) on a single thread, beginning each
// transaction via begin and handing the settled transaction to after,
// which recycles it.
func runSerialLoop(
	runner runtime.Runner, w *contract.World, calls []contract.Call, order []types.TxID,
	begin func(types.TxID, runtime.Thread, gas.Gas, gas.Schedule) *stm.Tx,
	after func(tx *stm.Tx),
) ([]contract.Receipt, uint64, error) {
	receipts := make([]contract.Receipt, len(calls))
	makespan, err := runner.Run(1, func(th runtime.Thread) {
		for k := range calls {
			id := types.TxID(k)
			if order != nil {
				id = order[k]
			}
			call := calls[id]
			tx := begin(id, th, call.GasLimit, w.Schedule())
			out := contract.Execute(w, tx, call)
			if out.Kind == contract.OutcomeRetry {
				// Serial transactions cannot conflict; a retry here is a bug.
				panic(fmt.Sprintf("engine: serial execution of %s demanded retry: %s", id, out.Reason))
			}
			receipts[id] = contract.ReceiptFor(id, out)
			after(tx)
		}
	})
	if err != nil {
		return nil, 0, fmt.Errorf("engine: serial run: %w", err)
	}
	return receipts, makespan, nil
}
