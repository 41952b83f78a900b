// Package validator implements the paper's Algorithm 2 and §4-§5 checks:
// compile a block's published schedule (S, H) into a deterministic
// fork-join program, re-execute it in parallel with no locks, no conflict
// detection and no rollback machinery, and reject the block if anything
// diverges from what the miner published:
//
//   - malformed metadata: H cyclic, S not a topological order of H,
//     commitments not matching the body;
//   - trace mismatch: the abstract locks a transaction would have acquired
//     differ from the miner's published profile;
//   - data race: two conflicting lock uses unordered by H;
//   - outcome mismatch: a transaction's receipt (reverted flag, gas used)
//     differs from the block's;
//   - state mismatch: the final state root differs from the header's.
//
// Validation is deterministic and can use any number of threads ("the
// validator is not required to match the miner's level of parallelism").
package validator

import (
	"errors"
	"fmt"

	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/runtime"
	"contractstm/internal/sched"
	"contractstm/internal/types"
)

// ErrRejected wraps every validation failure: callers can treat any
// wrapped error as "reject the block".
var ErrRejected = errors.New("validator: block rejected")

// Config tunes a validation run.
type Config struct {
	// Workers is the fork-join pool size.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return c
}

// Result reports a successful validation.
type Result struct {
	// Makespan is the run's duration in the runner's time unit.
	Makespan uint64
	// Receipts are the re-derived receipts (equal to the block's).
	Receipts []contract.Receipt
}

// Prechecked carries the outputs of the stateless validation phase so the
// stateful phase can reuse them instead of recomputing: the fork-join plan
// and the happens-before graph compiled from the block's schedule.
type Prechecked struct {
	plan  sched.Plan
	graph *sched.Graph
	// TxIDs are the calls' transaction IDs: the tx root's leaves.
	TxIDs []types.Hash
}

// Precheck runs every check in Validate that never touches contract.World:
// body/schedule commitments and schedule-graph construction (H acyclic, S a
// topological order) — the one place a node checks the commitments of a
// block it did not seal. It is pure with respect to b — safe to run
// concurrently across a window of queued blocks (internal/importer's
// Phase A). The returned errors are byte-identical to the ones Validate
// produces for the same block, so a staged import pipeline that elects the
// first Precheck error by height rejects exactly like Validate.
func Precheck(b chain.Block) (Prechecked, error) {
	txIDs, err := chain.VerifyCommitments(b)
	if err != nil {
		return Prechecked{}, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	plan, graph, err := sched.ConstructValidator(len(b.Calls), b.Schedule)
	if err != nil {
		return Prechecked{}, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	return Prechecked{plan: plan, graph: graph, TxIDs: txIDs}, nil
}

// Validate re-executes block b against w (which must hold the parent
// state) and verifies it end to end. On success the world has advanced to
// the block's post-state; on rejection the world state is unspecified and
// callers should restore a snapshot.
func Validate(runner runtime.Runner, w *contract.World, b chain.Block, cfg Config) (Result, error) {
	pre, err := Precheck(b)
	if err != nil {
		return Result{}, err
	}
	return ValidatePrechecked(runner, w, b, pre, cfg)
}

// ValidatePrechecked is the stateful phase of Validate: fork-join replay
// against world state plus the trace/race/receipt/state-root comparisons.
// pre must come from Precheck on the same block; the split exists so the
// staged import pipeline can run Precheck concurrently across a window and
// keep only this phase strictly sequential in height order.
func ValidatePrechecked(runner runtime.Runner, w *contract.World, b chain.Block, pre Prechecked, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	n := len(b.Calls)
	plan, graph := pre.plan, pre.graph

	// The replay execution loop lives in the engine layer (shared with the
	// engines' schedule derivation); validation layers the checks on top.
	run, err := engine.Replay(runner, w, b.Calls, plan, cfg.Workers)
	if err != nil {
		return Result{}, fmt.Errorf("%w: fork-join execution: %v", ErrRejected, err)
	}
	receipts, traces, makespan := run.Receipts, run.Traces, run.Makespan

	// Trace-vs-profile comparison (§4: "the validator's VM compares the
	// traces it generated with the lock profiles provided by the miner").
	for i := 0; i < n; i++ {
		if b.Profiles[i].Tx != types.TxID(i) {
			return Result{}, fmt.Errorf("%w: profile %d labelled %s", ErrRejected, i, b.Profiles[i].Tx)
		}
		if !traces[i].MatchesProfile(b.Profiles[i]) {
			return Result{}, fmt.Errorf("%w: %s trace does not match published lock profile", ErrRejected, types.TxID(i))
		}
	}
	// Race check (§5: reject "if the schedule has a data race").
	if err := sched.CheckRaces(graph, traces); err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	// Outcome comparison: the block's receipts must match re-execution.
	for i := 0; i < n; i++ {
		got, want := receipts[i], b.Receipts[i]
		if got.Reverted != want.Reverted || got.GasUsed != want.GasUsed || got.Tx != want.Tx {
			return Result{}, fmt.Errorf("%w: %s receipt mismatch: re-executed %+v, block %+v",
				ErrRejected, types.TxID(i), got, want)
		}
	}
	// Final state comparison (§5: reject "if the schedule produces a final
	// state different from the one recorded in the block").
	root, err := w.StateRoot()
	if err != nil {
		return Result{}, fmt.Errorf("validator: state root: %w", err)
	}
	if root != b.Header.StateRoot {
		return Result{}, fmt.Errorf("%w: final state %s != header %s",
			ErrRejected, root.Short(), b.Header.StateRoot.Short())
	}
	return Result{Makespan: makespan, Receipts: receipts}, nil
}
