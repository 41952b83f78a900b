// Package validator implements the paper's Algorithm 2 and §4-§5 checks:
// compile a block's published schedule (S, H) into a deterministic
// fork-join program, re-execute it in parallel with no locks, no conflict
// detection and no rollback machinery, and reject the block if anything
// diverges from what the miner published:
//
//   - malformed metadata: H cyclic, S not a topological order of H,
//     commitments not matching the body, a profile out of place or not in
//     canonical form;
//   - data race: two conflicting lock uses in the published profiles
//     unordered by H;
//   - trace mismatch: the abstract locks a transaction would have acquired
//     differ from the miner's published profile;
//   - outcome mismatch: a transaction's receipt (reverted flag, gas used)
//     differs from the block's;
//   - state mismatch: the final state root differs from the header's.
//
// The first two are read off the block's bytes (Precheck); the rest need
// the replay (ValidatePrechecked). Together, a race-free profile and a
// trace equal to it make a race-free trace, which is the paper's check.
//
// The race check always runs before anything executes. Validate, the
// single-block path, hashes the commitments on a goroutine of its own
// beside the schedule checks and the replay, and reports a commitment
// error ahead of any other, so its errors are Precheck's and then
// ValidatePrechecked's, in that order. Pipeline, the multi-block path,
// runs the whole Precheck in Phase A and overlaps it across blocks
// instead.
//
// Validation is deterministic and can use any number of threads ("the
// validator is not required to match the miner's level of parallelism").
package validator

import (
	"errors"
	"fmt"
	"sync"

	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/forkjoin"
	"contractstm/internal/runtime"
	"contractstm/internal/sched"
	"contractstm/internal/stm"
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
	// Makespan is the replay's duration in the runner's time unit. The
	// commitment hashing Validate runs beside it is not counted.
	Makespan uint64
	// Receipts are the re-derived receipts (equal to the block's).
	Receipts []contract.Receipt
	// TxIDs are the calls' transaction IDs: the tx root's leaves.
	TxIDs []types.Hash
}

// Prechecked carries the outputs of the stateless validation phase so the
// stateful phase can reuse them instead of recomputing: the fork-join
// program compiled from the block's schedule.
type Prechecked struct {
	prog *forkjoin.Program
	// TxIDs are the calls' transaction IDs: the tx root's leaves.
	TxIDs []types.Hash
}

// Precheck runs every check in Validate that never touches contract.World:
// body/schedule commitments, schedule-graph construction (H acyclic, S a
// topological order), each profile's place and canonical form, and the
// race check on the published profiles — the one place a node checks the
// commitments of a block it did not seal. A block whose schedule hides a
// race is refused here, before anything executes. Precheck is pure with
// respect to b — safe to run concurrently across a window of queued blocks
// (Pipeline's Phase A). The returned errors are byte-identical to the ones
// Validate produces for the same block, so a staged import pipeline that
// elects the first Precheck error by height rejects exactly like Validate.
func Precheck(b chain.Block) (Prechecked, error) {
	txIDs, err := chain.VerifyCommitments(b)
	if err != nil {
		return Prechecked{}, rejectCommitments(err)
	}
	prog, err := compile(b)
	if err != nil {
		return Prechecked{}, err
	}
	return Prechecked{prog: prog, TxIDs: txIDs}, nil
}

// rejectCommitments wraps a commitment error as the block's verdict.
func rejectCommitments(err error) error { return fmt.Errorf("%w: %v", ErrRejected, err) }

// errCounts refuses a block whose receipts or profiles do not number its
// calls. chain.VerifyCommitments refuses every such block too, and both
// callers report its error first, so this one is never seen.
var errCounts = fmt.Errorf("%w: receipt or profile count differs from the calls'", ErrRejected)

// compile is Precheck without the commitments: the checks on the
// block's schedule and profiles, in Precheck's order, and the fork-join
// program they yield.
func compile(b chain.Block) (*forkjoin.Program, error) {
	if len(b.Receipts) != len(b.Calls) || len(b.Profiles) != len(b.Calls) {
		return nil, errCounts
	}
	prog, graph, err := sched.ConstructValidator(len(b.Calls), b.Schedule)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	for i, p := range b.Profiles {
		if p.Tx != types.TxID(i) {
			return nil, fmt.Errorf("%w: profile %d labelled %s", ErrRejected, i, p.Tx)
		}
		if !canonical(p) {
			return nil, fmt.Errorf("%w: %s profile not strictly ascending by lock", ErrRejected, p.Tx)
		}
	}
	// Race check (§5: reject "if the schedule has a data race").
	if err := sched.CheckProfileRaces(graph, b.Profiles); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	return prog, nil
}

// canonical reports whether p's entries are strictly ascending by lock,
// the form every miner publishes. It names each lock once, which is what
// lets the replay compare a trace with p by length and lookups
// (stm.Tx.TraceMatches).
func canonical(p stm.Profile) bool {
	for j := 1; j < len(p.Entries); j++ {
		if p.Entries[j-1].Lock.Compare(p.Entries[j].Lock) >= 0 {
			return false
		}
	}
	return true
}

// Validate re-executes block b against w (which must hold the parent
// state) and verifies it end to end. On success the world has advanced to
// the block's post-state; on rejection the world state is unspecified and
// callers should restore a snapshot: the replay may have run even when
// the verdict is a commitment error.
//
// It runs Precheck and ValidatePrechecked, with the commitment hashing
// moved onto a goroutine beside the rest: the caller checks the schedule
// and the profiles (the race check included, so a racy block is still
// refused before anything executes), replays the block and compares its
// receipts and state root, then joins the hashing. The commitment verdict
// wins, so every error is byte-identical to Precheck's and then
// ValidatePrechecked's, in that order.
func Validate(runner runtime.Runner, w *contract.World, b chain.Block, cfg Config) (Result, error) {
	var (
		wg     sync.WaitGroup
		txIDs  []types.Hash
		cmtErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		txIDs, cmtErr = chain.VerifyCommitments(b)
	}()
	prog, err := compile(b)
	var res Result
	if err == nil {
		res, err = ValidatePrechecked(runner, w, b, Prechecked{prog: prog}, cfg)
	}
	wg.Wait()
	if cmtErr != nil {
		return Result{}, rejectCommitments(cmtErr)
	}
	if err != nil {
		return Result{}, err
	}
	res.TxIDs = txIDs
	return res, nil
}

// ValidatePrechecked is the stateful phase of Validate: fork-join replay
// against world state, with each transaction's trace compared to its
// profile inside the replay, then the receipt and state-root comparisons.
// pre must come from Precheck on the same block; the split exists so the
// staged import pipeline can run Precheck concurrently across a window and
// keep only this phase strictly sequential in height order. The result
// carries pre's TxIDs.
func ValidatePrechecked(runner runtime.Runner, w *contract.World, b chain.Block, pre Prechecked, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	n := len(b.Calls)

	// The replay execution loop lives in the engine layer (shared with the
	// engines' schedule derivation). It compares each trace with the
	// profile (§4: "the validator's VM compares the traces it generated
	// with the lock profiles provided by the miner") and stops at the
	// first mismatch.
	run, err := engine.Replay(runner, w, b.Calls, b.Profiles, pre.prog, cfg.Workers)
	if errors.Is(err, engine.ErrTraceMismatch) {
		return Result{}, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	if err != nil {
		return Result{}, fmt.Errorf("%w: fork-join execution: %v", ErrRejected, err)
	}
	receipts, makespan := run.Receipts, run.Makespan

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
	return Result{Makespan: makespan, Receipts: receipts, TxIDs: pre.TxIDs}, nil
}
