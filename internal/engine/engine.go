// Package engine is the pluggable block-execution layer: one contract —
// execute a block's transactions against a world and return receipts plus
// the paper's publishable schedule metadata (S, H, profiles) — behind which
// several execution strategies live:
//
//   - SerialEngine: one transaction at a time, the paper's baseline;
//   - SpeculativeEngine: the paper's Algorithm 1, speculative execution on
//     a thread pool with abstract locks and deadlock abort-and-retry;
//   - OCCEngine: an optimistic batch strategy in the style of Block-STM:
//     execute every pending transaction against a stable snapshot with
//     buffered writes and recorded read/write sets, then validate and
//     commit in deterministic rounds.
//
// Every engine settles each transaction into one stm.Manager lock table at
// its commit — the speculative engine by releasing its locks, the serial
// and OCC engines, which run without locks, by recording the locks they
// traced (Manager.Record) — and reads (S, H) off the table's per-lock
// histories with sched.BuildScheduleFromHistories. So the paper's counter
// rule lives in one place, and blocks sealed from any engine's result are
// accepted by the deterministic fork-join validator unchanged. The package
// also hosts that validator's replay core (Replay), so the per-transaction
// execution loop exists exactly once in the codebase.
//
// The miner (internal/miner) and validator (internal/validator) are thin
// adapters over this package; internal/node, internal/bench and the cmd/
// tools select engines by Kind.
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

// Kind selects an execution engine.
type Kind int

const (
	// KindSpeculative is the paper's Algorithm 1 (the default).
	KindSpeculative Kind = iota + 1
	// KindSerial executes one transaction at a time.
	KindSerial
	// KindOCC executes the batch optimistically with validate-and-commit
	// rounds.
	KindOCC
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSpeculative:
		return "speculative"
	case KindSerial:
		return "serial"
	case KindOCC:
		return "occ"
	default:
		return fmt.Sprintf("engine(%d)", int(k))
	}
}

// Kinds lists every engine in presentation order.
func Kinds() []Kind {
	return []Kind{KindSerial, KindSpeculative, KindOCC}
}

// ParseKind resolves an engine name as used by command-line flags.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "speculative", "spec", "stm":
		return KindSpeculative, nil
	case "serial":
		return KindSerial, nil
	case "occ":
		return KindOCC, nil
	default:
		return 0, fmt.Errorf("engine: unknown engine %q (want serial, speculative or occ)", s)
	}
}

// New returns the engine implementing k.
func New(k Kind) (Engine, error) {
	switch k {
	case KindSpeculative:
		return SpeculativeEngine{}, nil
	case KindSerial:
		return SerialEngine{}, nil
	case KindOCC:
		return OCCEngine{}, nil
	default:
		return nil, fmt.Errorf("engine: unknown kind %v", k)
	}
}

// MustNew is New for statically-known kinds.
func MustNew(k Kind) Engine {
	e, err := New(k)
	if err != nil {
		panic(err)
	}
	return e
}

// Options tunes a block execution. The zero value selects sane defaults.
type Options struct {
	// Workers is the thread-pool size (the paper's evaluation uses 3).
	Workers int
	// Policy selects eager (default) or lazy speculative writes
	// (SpeculativeEngine only).
	Policy stm.Policy
}

// DefaultMaxRetries bounds abort-and-retry cycles per transaction in
// SpeculativeEngine. Deadlock victims release all locks before retrying,
// so progress only requires modest patience; exceeding it fails the run
// (it indicates a livelock bug rather than ordinary contention).
const DefaultMaxRetries = 1000

// DefaultRetryBackoff is the simulated work SpeculativeEngine performs
// before re-attempting an aborted transaction, scaled linearly by attempt
// number.
const DefaultRetryBackoff gas.Gas = 50

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Policy == 0 {
		o.Policy = stm.PolicyEager
	}
	return o
}

// Stats aggregates a run's execution behaviour across engines; fields not
// meaningful for an engine stay zero.
type Stats struct {
	// Retries counts discarded execution attempts: deadlock-victim aborts
	// for the speculative engine, failed validations for the OCC engine
	// (each re-executes, either next round or at once on the commit
	// thread).
	Retries int
	// RetriedTxs lists the transactions that needed at least one retry;
	// transaction pools use this as conflict feedback (§7.3).
	RetriedTxs []types.TxID
	// Committed and Reverted count final transaction outcomes.
	Committed int
	Reverted  int
	// Rounds counts OCC validate-and-commit rounds (1 for other engines).
	// Chained conflicts re-execute inside a round's commit pass, so a hot
	// key costs OCC two rounds, not one per writer.
	Rounds int
	// LockStats echoes the speculative lock manager's counters.
	LockStats stm.Stats
	// ConflictPairs lists the (earlier, later) transaction pairs connected
	// by a happens-before edge in the derived schedule — the block's
	// observed contention structure. Transaction pools feed it back into
	// packing decisions (txpool.PolicyLockHint); unlike RetriedTxs it is
	// populated by every engine, including the serial one, because the
	// edges fall out of the published schedule rather than the execution
	// strategy.
	ConflictPairs [][2]types.TxID
}

// conflictPairsOf extracts a schedule's happens-before edges as feedback
// pairs (edges are already deduplicated by the schedule builder).
func conflictPairsOf(s sched.Schedule) [][2]types.TxID {
	if len(s.Edges) == 0 {
		return nil
	}
	out := make([][2]types.TxID, len(s.Edges))
	for i, e := range s.Edges {
		out[i] = [2]types.TxID{e.From, e.To}
	}
	return out
}

// Result is a completed block execution: everything a miner needs to seal
// a block whose schedule any validator will accept.
type Result struct {
	// Receipts is the per-transaction execution digest, indexed by TxID.
	Receipts []contract.Receipt
	// Profiles is the per-transaction lock profile (§4), indexed by TxID.
	Profiles []stm.Profile
	// Schedule is the derived serial order S and happens-before edges H.
	Schedule sched.Schedule
	// Graph is the derived happens-before graph (diagnostics; the block
	// carries its edge list).
	Graph *sched.Graph
	// Makespan is the run's duration in the runner's time unit (virtual
	// gas-time for SimRunner, nanoseconds for OSRunner).
	Makespan uint64
	// Stats aggregates execution counters.
	Stats Stats
}

// Engine executes whole blocks. Implementations must be stateless values:
// one engine may serve many concurrent executions.
type Engine interface {
	// Kind identifies the engine.
	Kind() Kind
	// ExecuteBlock runs calls against w (which must hold the parent
	// state) and returns receipts, the publishable schedule metadata,
	// stats and the makespan. On success the world has advanced to the
	// block's post-state; on error the world state is unspecified and
	// callers should restore a snapshot.
	ExecuteBlock(runner runtime.Runner, w *contract.World, calls []contract.Call, opts Options) (Result, error)
}

// tally fills outcome counters from final receipts (Committed/Reverted are
// derivable, so the hot execution path never synchronizes on them).
func (s *Stats) tally(receipts []contract.Receipt) {
	for _, r := range receipts {
		if r.Reverted {
			s.Reverted++
		} else {
			s.Committed++
		}
	}
}

// settle completes res from the block's lock table: it reads (S, H) off
// mgr's per-lock histories, derives the conflict feedback and tallies the
// outcomes. Every engine finishes here, so the three share one H builder.
func settle(n int, mgr *stm.Manager, res Result) (Result, error) {
	schedule, graph, err := sched.BuildScheduleFromHistories(n, mgr.Histories)
	if err != nil {
		return Result{}, fmt.Errorf("engine: building schedule: %w", err)
	}
	res.Schedule, res.Graph = schedule, graph
	res.Stats.ConflictPairs = conflictPairsOf(schedule)
	res.Stats.tally(res.Receipts)
	return res, nil
}
