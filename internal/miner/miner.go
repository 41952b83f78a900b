// Package miner seals blocks: it hands a block's calls to a pluggable
// execution engine (internal/engine) and packages the engine's result —
// receipts, the derived serial order S, the happens-before graph H and the
// per-transaction lock profiles — into a sealed block for publication
// (§4: "A miner includes these profiles in the blockchain along with usual
// information").
//
// The execution strategies themselves live in internal/engine: the paper's
// Algorithm 1 (speculative mining) is engine.SpeculativeEngine, the serial
// baseline is engine.SerialEngine, and the Block-STM-style optimistic
// batch strategy is engine.OCCEngine.
package miner

import (
	"fmt"

	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/runtime"
	"contractstm/internal/sched"
	"contractstm/internal/types"
)

// Stats aggregates a run's execution behaviour (see engine.Stats).
type Stats = engine.Stats

// Result is a completed mining run.
type Result struct {
	// Block is the sealed block, including the published schedule.
	Block chain.Block
	// TxIDs are the calls' transaction IDs, as chain.Seal hashed them.
	TxIDs []types.Hash
	// Makespan is the run's duration in the runner's time unit (virtual
	// gas-time for SimRunner, nanoseconds for OSRunner).
	Makespan uint64
	// Stats aggregates execution counters.
	Stats Stats
	// Graph is the derived happens-before graph (diagnostics; the block
	// carries its edge list).
	Graph *sched.Graph
}

// Mine executes calls with the given engine and seals a block on top of
// parent. The world must be at parent's state; on success it has advanced
// to the block's post-state.
func Mine(eng engine.Engine, runner runtime.Runner, w *contract.World, parent chain.Header, calls []contract.Call, opts engine.Options) (Result, error) {
	return MineHashed(eng, runner, w, parent, calls, nil, opts)
}

// MineHashed is Mine for a caller that already holds the calls'
// transaction IDs (chain.TxLeavesOf of calls — a node's pool derives
// each one at intake): the block is sealed over them, not over a second
// hashing of every call. With txIDs nil the seal hashes them, in the
// same fan as the block's other commitments.
func MineHashed(eng engine.Engine, runner runtime.Runner, w *contract.World, parent chain.Header, calls []contract.Call, txIDs []types.Hash, opts engine.Options) (Result, error) {
	res, err := eng.ExecuteBlock(runner, w, calls, opts)
	if err != nil {
		return Result{}, fmt.Errorf("miner: %w", err)
	}
	stateRoot, err := w.StateRoot()
	if err != nil {
		return Result{}, fmt.Errorf("miner: state root: %w", err)
	}
	var block chain.Block
	if txIDs == nil {
		block, txIDs = chain.Seal(parent, calls, res.Receipts, res.Schedule, res.Profiles, stateRoot)
	} else {
		block = chain.SealHashed(parent, calls, txIDs, res.Receipts, res.Schedule, res.Profiles, stateRoot)
	}
	return Result{Block: block, TxIDs: txIDs, Makespan: res.Makespan, Stats: res.Stats, Graph: res.Graph}, nil
}

// SerialResult is a serial execution's outcome.
type SerialResult struct {
	Receipts []contract.Receipt
	Makespan uint64
	// StateRoot is the post-state commitment.
	StateRoot types.Hash
}

// ExecuteSerial runs calls one at a time, in the order given by order (or
// block order when order is nil), with no locks and no speculation — the
// paper's baseline "serial miner that runs the block without
// parallelization". It is also the reference implementation used by tests
// to check that parallel engines are serializable.
func ExecuteSerial(runner runtime.Runner, w *contract.World, calls []contract.Call, order []types.TxID) (SerialResult, error) {
	run, err := engine.RunOrdered(runner, w, calls, order)
	if err != nil {
		return SerialResult{}, fmt.Errorf("miner: %w", err)
	}
	root, err := w.StateRoot()
	if err != nil {
		return SerialResult{}, fmt.Errorf("miner: state root: %w", err)
	}
	return SerialResult{Receipts: run.Receipts, Makespan: run.Makespan, StateRoot: root}, nil
}
