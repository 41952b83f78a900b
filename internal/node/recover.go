package node

import (
	"context"
	"fmt"

	"contractstm/internal/chain"
	"contractstm/internal/persist"
	"contractstm/internal/types"
	"contractstm/internal/validator"
)

// openDurable opens the persistence log and recovers a previous run:
// restore the newest snapshot, replay the WAL tail through the
// validator, and restore the saved mempool. A fresh directory records a
// permanent genesis identity marker plus a restorable genesis snapshot;
// every reopen verifies the marker, so a data dir from a different
// genesis world fails loudly instead of being silently adopted — even
// after snapshot retention has pruned the genesis snapshot itself.
func (n *Node) openDurable(cfg Config, genesisRoot types.Hash) error {
	log, err := persist.Open(cfg.DataDir, cfg.Persist)
	if err != nil {
		return fmt.Errorf("node: %w", err)
	}
	opts := cfg.Persist.WithDefaults()
	n.log = log
	n.snapEvery = opts.SnapshotEvery

	if err := log.EnsureGenesis(chain.GenesisHeader(genesisRoot)); err != nil {
		return fmt.Errorf("node: %w", err)
	}
	snap := log.LatestSnapshot()
	switch {
	case snap == nil:
		// Fresh directory: checkpoint genesis.
		state, err := n.world.EncodeState()
		if err != nil {
			return fmt.Errorf("node: encode genesis state: %w", err)
		}
		if err := log.WriteSnapshot(persist.Snapshot{Header: chain.GenesisHeader(genesisRoot), State: state}); err != nil {
			return fmt.Errorf("node: genesis snapshot: %w", err)
		}
	case snap.Height() == 0:
		if snap.Header != chain.GenesisHeader(genesisRoot) {
			return fmt.Errorf("node: data dir %s belongs to a different genesis (snapshot root %s, world root %s)",
				cfg.DataDir, snap.Header.StateRoot.Short(), genesisRoot.Short())
		}
	default:
		if err := n.restoreCheckpoint(*snap); err != nil {
			return fmt.Errorf("node: %w", err)
		}
		n.chain = chain.NewAt(snap.Header)
		n.lastSnapHeight.Store(snap.Height())
	}

	// Replay the WAL tail through the full validation path: recovery
	// re-verifies every published schedule, so corrupt-but-well-framed
	// records cannot smuggle state in. The replay is the staged pipeline
	// a follower's pull runs: the WAL is read and blocks h+1… prechecked
	// on the node's workers while block h replays, and the first error is
	// elected by height. Only once every block is in does Resume touch
	// the disk (truncate a torn tail, open the append cursor), so a
	// failed recovery changes no file. Each replayed block counts
	// against the snapshot cadence at its seal, so the cadence resumes
	// where the previous run left it.
	from := n.chain.Head().Header.Number + 1
	var tail persist.Tail
	read := func(_ context.Context, emit func(chain.Block) error) (err error) {
		tail, err = log.Scan(from, emit)
		return err
	}
	err = validator.Pipeline(context.TODO(), n.workers, validator.DefaultWindow(n.workers), read, n.replayBlock)
	if err == nil {
		err = log.Resume(tail)
	}
	if err != nil {
		return fmt.Errorf("node: recover: %w", err)
	}

	calls, err := log.TakePool()
	if err != nil {
		return fmt.Errorf("node: recover pool: %w", err)
	}
	if len(calls) > 0 {
		// Restored calls were admitted in a previous life; they re-enter
		// through the trusted path, never re-run admission.
		n.pool.SubmitAllTrusted(txsOf(calls))
	}

	// An overdue checkpoint is written now, once. Otherwise a node that
	// crashes more often than every SnapshotEvery blocks would never
	// snapshot past genesis, and its WAL — and recovery time — would grow
	// without bound.
	n.maybeSnapshot()
	// Everything recovered from disk is by definition durable — also a
	// snapshot with no WAL tail behind it, which no verdict announced.
	n.markDurable(n.chain.Head().Header.Number, n.world.Snapshot())
	return nil
}

// restoreCheckpoint loads a checkpoint's state into the world and checks
// that it hashes to the root the checkpoint header claims. The caller
// owns putting the world back if it fails.
func (n *Node) restoreCheckpoint(s persist.Snapshot) error {
	if err := n.world.RestoreState(s.State); err != nil {
		return fmt.Errorf("snapshot %d: %w", s.Height(), err)
	}
	root, err := n.world.StateRoot()
	if err != nil {
		return fmt.Errorf("snapshot %d: state root: %w", s.Height(), err)
	}
	if root != s.Header.StateRoot {
		return fmt.Errorf("snapshot %d: state hashes to %s, header claims %s",
			s.Height(), root.Short(), s.Header.StateRoot.Short())
	}
	return nil
}

// replayBlock is recovery's Phase B for one block whose Phase A already
// ran: validated like a peer's block, sealed, and — the WAL already
// holding it — given its verdict on the spot, so its receipts are
// queryable from the moment the node comes back up. Only New calls it,
// before the node is shared, so it takes neither a window slot nor a
// lock.
func (n *Node) replayBlock(b chain.Block, pre validator.Prechecked, preErr error) error {
	e, err := n.validateEntry(b, &staged{pre: pre, err: preErr}, recovered)
	if err == nil {
		err = n.seal(e)
	}
	if err != nil {
		return &persist.ReplayError{Height: b.Header.Number, Err: err}
	}
	n.verdict(e)
	return nil
}

// RecoveredBlocks reports how many blocks New replayed from the WAL.
func (n *Node) RecoveredBlocks() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.tally[recovered]
}
