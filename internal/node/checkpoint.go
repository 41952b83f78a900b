package node

import (
	"errors"
	"fmt"

	"contractstm/internal/chain"
	"contractstm/internal/persist"
)

// maybeSnapshot writes the cadence checkpoint when one is due. A
// checkpoint describes a durable boundary, so it is written only under
// execMu (which the caller holds; it also guards n.sinceSnap and keeps
// the chain pointer stable) with the window drained: sealed == durable
// and the world sits exactly at the chain head. n.mu is deliberately NOT
// held across the state encoding and snapshot fsyncs. Only a failed drain
// is an error; a failed snapshot is dropped rather than failing a block:
// the WAL already holds the blocks, so durability is intact and only
// recovery speed suffers; the next cadence tick tries again — and the
// failure shows in Status.SnapshotErrors.
func (n *Node) maybeSnapshot() error {
	if n.log == nil || n.snapEvery <= 0 || n.sinceSnap < n.snapEvery {
		return nil
	}
	if err := n.drain(); err != nil {
		return err
	}
	n.sinceSnap = 0
	state, err := n.world.EncodeState()
	if err != nil {
		n.snapshotErrs.Add(1)
		return nil
	}
	head := n.chain.Head().Header
	if err := n.log.WriteSnapshot(persist.Snapshot{Header: head, State: state}); err != nil {
		n.snapshotErrs.Add(1)
		return nil
	}
	n.lastSnapHeight.Store(head.Number)
	return nil
}

// ErrStaleSnapshot reports an InstallSnapshot at or below the current
// head: installing it would rewind a chain that is already ahead.
var ErrStaleSnapshot = errors.New("node: snapshot not ahead of local head")

// InstallSnapshot adopts a state checkpoint from a peer — the receiving
// half of snapshot fast-sync. The encoded state must hash to the state
// root the checkpoint header claims (self-consistency); trust in the
// header itself is the fast-sync trade-off, exactly like trusting a
// configured genesis. The chain restarts pruned at the checkpoint
// height, the mempool is untouched, and a durable node drops its now
// disconnected history and re-roots its log at the checkpoint. The
// window drains first: swapping world and chain under a sealed-not-
// durable block would leave its verdict, or its rollback, nothing
// consistent to land on.
func (n *Node) InstallSnapshot(s persist.Snapshot) error {
	n.execMu.Lock()
	defer n.execMu.Unlock()
	if err := n.drain(); err != nil {
		return fmt.Errorf("node: install snapshot: %w", err)
	}
	// The in-memory swap happens under n.mu; the checkpoint's durability
	// write runs after it, outside the bookkeeping lock (execMu, still
	// held, is what keeps the world at a block boundary throughout).
	if err := n.installSnapshotState(s); err != nil {
		return err
	}
	if n.log != nil {
		if err := n.log.InstallSnapshot(s); err != nil {
			// State is installed and consistent; only durability of the
			// checkpoint failed. Surface it — the caller may retry sync
			// into a healthier directory.
			return fmt.Errorf("node: install snapshot: %w", err)
		}
	}
	return nil
}

// installSnapshotState swaps the node's in-memory world and chain to the
// checkpoint, leaving both untouched on any error. Caller holds execMu.
func (n *Node) installSnapshotState(s persist.Snapshot) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.win.inflight) > 0 {
		return fmt.Errorf("node: install snapshot: %d sealed blocks await their durability verdict", len(n.win.inflight))
	}
	if s.Height() <= n.chain.Head().Header.Number {
		return fmt.Errorf("%w: snapshot %d, head %d", ErrStaleSnapshot, s.Height(), n.chain.Head().Header.Number)
	}
	old := n.world.Snapshot()
	if err := n.restoreCheckpoint(s); err != nil {
		n.world.Restore(old)
		return fmt.Errorf("node: install %w", err) // err opens "snapshot N: …"
	}
	n.chain = chain.NewAt(s.Header)
	n.sinceSnap = 0
	n.lastSnapHeight.Store(s.Height())
	// The installed checkpoint is this chain's new root: everything the
	// node now holds is at least as durable as the snapshot itself.
	n.markDurable(s.Height(), n.world.Snapshot())
	return nil
}

// SnapshotNow returns a state checkpoint: a durable node serves its
// newest persisted snapshot (cheap — no state encoding, no lock held
// against mining; the fast-syncing peer replays the tail through full
// validation anyway), a non-durable node generates one at the current
// head on the spot (holding execMu, so the world is at a block
// boundary). This is what GET /snapshot serves, which is why any node
// can seed a fast-syncing late joiner.
func (n *Node) SnapshotNow() (persist.Snapshot, error) {
	if n.log != nil {
		if s := n.log.LatestSnapshot(); s != nil {
			return *s, nil
		}
	}
	n.execMu.Lock()
	defer n.execMu.Unlock()
	// A generated checkpoint must describe a durable boundary, never a
	// sealed-not-durable head a crash could void — the same rule the
	// /head and /blocks gates enforce — so the window drains first.
	if err := n.drain(); err != nil {
		return persist.Snapshot{}, fmt.Errorf("node: snapshot: %w", err)
	}
	head := n.chain.Head().Header
	state, err := n.world.EncodeState()
	if err != nil {
		return persist.Snapshot{}, fmt.Errorf("node: snapshot: %w", err)
	}
	return persist.Snapshot{Header: head, State: state}, nil
}
