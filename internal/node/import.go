package node

import (
	"errors"
	"fmt"

	"contractstm/internal/api/wire"
	"contractstm/internal/chain"
	"contractstm/internal/validator"
)

// The names in this block select nothing and count nothing. They remain
// only because the frozen benchmark/ module still compiles against them
// (with the Config.ImportMode field); the benchmark PR that stops naming
// them deletes all four.
type ImportMode int

const ImportOn ImportMode = 0

func (n *Node) ImportDivergences() int64 { return 0 }

// Status is CurrentStatus's record, the GET /v1/status schema. The name
// remains because the frozen benchmark/ module reads its Wal* fields
// through it.
type Status = wire.Status

// Errors reported by block import.
var (
	// ErrAlreadyKnown reports an import of a block the chain already
	// holds. Imports are idempotent: callers (gossip, catch-up sync) may
	// treat it as success.
	ErrAlreadyKnown = errors.New("node: block already known")
	// ErrFork reports an import that conflicts with a different block
	// already committed at the same height — chain divergence.
	ErrFork = errors.New("node: fork: conflicting block for committed height")
)

// AcceptBlock validates a foreign block against the node's state and
// takes it through the same seal → persist → verdict lifecycle as a mined
// block, returning once it is durable — the validator-node path. On
// rejection the world state is restored. Like MineOne, it holds execMu
// (not n.mu) across the validation execution.
//
// Import is idempotent: a block already on the chain returns
// ErrAlreadyKnown without re-executing; a different block at an occupied
// height returns ErrFork. Both checks run before validation, so repeated
// gossip of old blocks costs two hashes, not a replay.
func (n *Node) AcceptBlock(b chain.Block) error {
	return n.acceptBlock(b, validator.Precheck)
}

// ImportPrechecked imports a block whose stateless validation phase
// (validator.Precheck) already ran — concurrently, on the staged pipeline
// (internal/importer). pre and preErr are that phase's outputs for b, which
// are a function of b's bytes alone: nothing a peer said is trusted by
// using them. Linkage against the live head runs first, so a duplicate or
// mislinked block is answered before preErr is; then fork-join replay and
// the crash rules — the same core AcceptBlock runs.
func (n *Node) ImportPrechecked(b chain.Block, pre validator.Prechecked, preErr error) error {
	return n.acceptBlock(b, ready(pre, preErr))
}

// acceptBlock is the one import core, behind AcceptBlock (a pushed block,
// which runs the stateless phase here) and ImportPrechecked (a pulled one,
// whose stateless phase already ran on the staged pipeline). pc is called
// only once the block's linkage holds, so both callers fail at the same
// point with the same bytes.
func (n *Node) acceptBlock(b chain.Block, pc precheck) error {
	if err := n.enter(); err != nil {
		return err
	}
	defer n.execMu.Unlock()
	e, err := n.importEntry(b, pc)
	if err == nil {
		err = n.seal(e)
	}
	if err != nil {
		n.release()
		return err
	}
	return n.persist(e)
}

// importEntry checks a foreign block's linkage against the sealed head
// and validates it. Caller holds execMu.
func (n *Node) importEntry(b chain.Block, pc precheck) (*inflightEntry, error) {
	n.mu.Lock()
	head := n.chain.Head().Header
	n.mu.Unlock()
	if b.Header.Number <= head.Number {
		known, held := n.chain.HashAt(b.Header.Number)
		if !held {
			// A pruned (snapshot fast-synced) chain no longer holds this
			// height and cannot distinguish a duplicate from a fork; old
			// gossip on a converged chain is treated as already known.
			return nil, ErrAlreadyKnown
		}
		if known == b.Header.Hash() {
			return nil, ErrAlreadyKnown
		}
		return nil, fmt.Errorf("%w: height %d has %s, got %s",
			ErrFork, b.Header.Number, known.Short(), b.Header.Hash().Short())
	}
	if b.Header.Number != head.Number+1 {
		return nil, fmt.Errorf("node: accept: %w: got %d, want %d",
			chain.ErrBadNumber, b.Header.Number, head.Number+1)
	}
	if b.Header.ParentHash != head.Hash() {
		return nil, fmt.Errorf("node: accept: %w: got %s, want %s",
			chain.ErrBadParent, b.Header.ParentHash.Short(), head.Hash().Short())
	}
	e, err := n.validateEntry(b, pc, imported)
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	return e, nil
}

// precheck yields the outputs of validation's stateless phase for a
// block: validator.Precheck itself where the phase runs inline (a pushed
// block), or the result the staged pipeline computed ahead of time (a
// pulled block, WAL recovery).
type precheck func(chain.Block) (validator.Prechecked, error)

// ready is the precheck whose outputs the staged pipeline computed ahead
// of time.
func ready(pre validator.Prechecked, preErr error) precheck {
	return func(chain.Block) (validator.Prechecked, error) { return pre, preErr }
}

// validateEntry is the execute stage for a block somebody else sealed: a
// peer's (imported) or this node's previous life's (recovered) — the
// stateless phase's verdict, then the stateful one, fork-join replay
// against the world. On rejection the world is restored. Caller holds
// execMu.
func (n *Node) validateEntry(b chain.Block, pc precheck, from origin) (*inflightEntry, error) {
	pre, err := pc(b)
	if err != nil {
		return nil, err
	}
	snap := n.world.Snapshot()
	if _, err := validator.ValidatePrechecked(n.runner, n.world, b, pre, validator.Config{Workers: n.workers}); err != nil {
		n.world.Restore(snap)
		return nil, err
	}
	return &inflightEntry{block: b, origin: from, snap: snap, txIDs: pre.TxIDs}, nil
}
