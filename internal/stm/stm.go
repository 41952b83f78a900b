// Package stm implements the paper's speculative execution runtime: a
// from-scratch software-transactional-memory layer in the style of
// transactional boosting (Herlihy & Koskinen, PPoPP'08), specialized for
// smart-contract storage operations.
//
// The central objects are:
//
//   - abstract locks (LockID + Mode): every storage operation maps to an
//     abstract lock chosen so that operations mapping to distinct locks
//     commute (§3 "Storage Operations"). Locks support three modes —
//     exclusive, shared (read) and increment (commutative update) — as
//     allowed by the paper's footnote 3;
//   - inverse logs: each in-place write records an Undo, a typed value
//     naming the object, the key or index and the old value or delta;
//     aborting or reverting applies the log most-recent-first, each
//     object taking back its own records (Undoer);
//   - nested speculative actions for contract→contract calls;
//   - use counters and lock profiles: at commit, every held lock's counter
//     is bumped and the (lock, counter, mode) triples are registered, which
//     is exactly the scheduling metadata the miner publishes in the block
//     (§4) and from which the happens-before graph is rebuilt. The lock
//     table also keeps each lock's history in counter order, from which the
//     miner reads that graph without rebuilding it. Engines that run
//     without locks settle each transaction's traced lock set into the same
//     table at its commit (Manager.Record), so the counter rule lives here
//     alone.
//
// The same transaction type also runs in non-speculative kinds — bare
// serial, the trace-recording replay kind the validator and the serial
// engine use, and OCC — so contract code is written once and executed
// under every regime.
//
// # Deviation from the paper (documented in DESIGN.md)
//
// The paper states that when a nested action aborts "any abstract locks it
// acquired are released". We instead retain a failed child's locks in the
// parent until the parent completes. Releasing them early would let another
// transaction commit a conflicting write that the aborted child had already
// observed, which makes the child's behaviour unreproducible by the
// validator's lock-free deterministic replay. Retaining the locks is
// strictly more conservative: it can only reduce concurrency, never
// correctness, and it makes validation sound.
package stm

import (
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
)

// Mode classifies how a storage operation uses its abstract lock.
type Mode int

const (
	// ModeShared is a read: shared ops on the same lock commute.
	ModeShared Mode = iota + 1
	// ModeIncrement is a commutative update such as "+= d" whose inverse is
	// "-= d". Increments commute with each other but not with reads or
	// writes: a reader interleaved between two increments observes
	// different values depending on order.
	ModeIncrement
	// ModeExclusive is a general read-write operation; it commutes with
	// nothing on the same lock.
	ModeExclusive
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeShared:
		return "shared"
	case ModeIncrement:
		return "increment"
	case ModeExclusive:
		return "exclusive"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Compatible reports whether two operations holding modes a and b on the
// same abstract lock commute. Shared–shared and increment–increment pairs
// commute; every other pairing conflicts.
func Compatible(a, b Mode) bool {
	return a == b && a != ModeExclusive
}

// Combine returns the weakest single mode that subsumes both a and b for a
// transaction that performed operations in both modes on one lock.
func Combine(a, b Mode) Mode {
	if a == b {
		return a
	}
	return ModeExclusive
}

// LockID names an abstract lock. Scope identifies the boosted object (for
// example "ballot/voters") and Key the semantic unit within it (a map key,
// an array index, or "" for a whole scalar). Two storage operations with
// different LockIDs are guaranteed to commute by construction of the
// storage layer.
type LockID struct {
	Scope string
	Key   string
}

// String renders the lock as "scope[key]"; binary keys (addresses,
// hashes, big-endian indices) are hex-encoded for readability.
func (l LockID) String() string {
	key := l.Key
	for i := 0; i < len(key); i++ {
		if key[i] < 0x20 || key[i] > 0x7e {
			key = "0x" + hex.EncodeToString([]byte(l.Key))
			break
		}
	}
	return l.Scope + "[" + key + "]"
}

// Compare orders locks lexicographically by scope, then key, as a
// three-way comparison for slices.SortFunc; profiles are sorted by it.
func (l LockID) Compare(other LockID) int {
	if c := strings.Compare(l.Scope, other.Scope); c != 0 {
		return c
	}
	return strings.Compare(l.Key, other.Key)
}

// Kind selects the execution regime a transaction runs under.
type Kind int

const (
	// KindSpeculative is the miner's regime: abstract locks, inverse logs,
	// conflict blocking, deadlock aborts, lock profiles at commit.
	KindSpeculative Kind = iota + 1
	// KindSerial is the bare serial regime: no locks, no traces; inverse
	// logs are still kept so a contract throw can revert its own effects.
	KindSerial
	// KindReplay is the validator's regime: no locks; a thread-local trace
	// records the (lock, mode) pairs the transaction would have acquired,
	// for comparison against the miner's published profile. The serial
	// engine runs in it too, and records each trace into its lock table.
	KindReplay
	// KindOCC is the optimistic batch regime (Block-STM style): no locks
	// and no blocking. Every write lands in an isolated per-transaction
	// overlay, every access is recorded in a thread-local read/write set
	// (the same trace machinery KindReplay uses), and the engine decides
	// after a validate round whether to apply the buffered writes or
	// discard the attempt and re-execute.
	KindOCC
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSpeculative:
		return "speculative"
	case KindSerial:
		return "serial"
	case KindReplay:
		return "replay"
	case KindOCC:
		return "occ"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Policy selects how speculative writes reach the underlying storage.
type Policy int

const (
	// PolicyEager applies operations in place and records inverses,
	// matching the paper's primary design ("The scheme described here is
	// eager", §3).
	PolicyEager Policy = iota + 1
	// PolicyLazy buffers writes in a transaction-local overlay applied at
	// commit, matching the paper's sketched alternative ("An alternative
	// lazy implementation could buffer changes…", §3). Aborts become cheap
	// (drop the overlay) at the price of commit-time work and overlay
	// lookups on every read.
	PolicyLazy
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyEager:
		return "eager"
	case PolicyLazy:
		return "lazy"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ErrDeadlock is returned by Access when granting the request would close a
// cycle in the wait-for graph. The requester is always the victim: it must
// abort (releasing its locks) and may retry.
var ErrDeadlock = errors.New("stm: deadlock detected, transaction must abort")

// ErrTxDone is returned when a finished transaction is used again.
var ErrTxDone = errors.New("stm: transaction already completed")

// Status describes a transaction's lifecycle state.
type Status int

const (
	// StatusActive means the transaction may still perform operations.
	StatusActive Status = iota + 1
	// StatusCommitted means effects are permanent (for a nested action,
	// merged into the parent).
	StatusCommitted
	// StatusAborted means effects were undone and, for a root speculative
	// transaction, its locks were released without bumping use counters:
	// the attempt never becomes part of the discovered schedule.
	StatusAborted
	// StatusReverted means the transaction executed a contract throw: its
	// state effects were undone, but it remains part of the schedule (its
	// locks' use counters were bumped and a profile was produced), because
	// its control flow consumed gas and observed shared state.
	StatusReverted
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	case StatusReverted:
		return "reverted"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}
