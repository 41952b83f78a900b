// Package txpool names the miner's block-selection policies. The pool
// that implements them is internal/mempool; this package holds only
// what callers on both sides of it share: the Policy values, their
// flag names, and ErrEmpty.
//
// Besides the baseline FIFO selection, the policies implement the
// conflict spreading the paper sketches in §7.3: "Miners could also
// choose transactions so as to reduce the likelihood of conflict, say by
// including only those contracts that operate on disjoint data sets."
// PolicySpread uses syntactic hints alone — the target contract and the
// sender. PolicyLockHint refines the idea with feedback from the
// execution engine: the happens-before edges of mined blocks are
// reported back as conflict pairs, and only the hints two conflicting
// calls shared are throttled, so a workload with a few hot keys (see
// workload.KindHotCold) keeps its cold majority flowing at full block
// size.
package txpool

import "errors"

// Policy selects how the pool picks a block's transactions.
type Policy int

const (
	// PolicyFIFO takes transactions strictly in arrival order.
	PolicyFIFO Policy = iota + 1
	// PolicySpread takes transactions in arrival order but defers, within
	// the scanned window, transactions whose (contract, sender) hint
	// collides with one already chosen for this block — the paper's
	// "disjoint data sets" heuristic. Deferred transactions stay queued
	// for later blocks; no transaction is starved because each block's
	// scan starts at the queue head.
	PolicySpread
	// PolicyLockHint packs blocks using static lock-hints with engine
	// feedback: a call is deferred when one of its hints both (a) was
	// shared by a conflicting pair in an earlier block (positive score)
	// and (b) is already claimed by a call chosen for this block. Hints
	// with no conflict evidence never throttle anything.
	PolicyLockHint
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyFIFO:
		return "fifo"
	case PolicySpread:
		return "spread"
	case PolicyLockHint:
		return "lockhint"
	default:
		return "policy?"
	}
}

// ParsePolicy resolves a policy name as used by command-line flags.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "fifo":
		return PolicyFIFO, nil
	case "spread":
		return PolicySpread, nil
	case "lockhint":
		return PolicyLockHint, nil
	default:
		return 0, errors.New("txpool: unknown policy " + s + " (want fifo, spread or lockhint)")
	}
}

// ErrEmpty is returned when a selection finds nothing queued.
var ErrEmpty = errors.New("txpool: empty")
