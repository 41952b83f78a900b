package cluster

import (
	"context"
	"errors"
	"fmt"

	"contractstm/internal/chain"
	"contractstm/internal/importer"
	"contractstm/internal/node"
)

// ErrDiverged reports that the local node and the remote peer have
// committed different blocks at the same height: the chains have forked
// and no amount of catch-up fetching can reconcile them.
var ErrDiverged = errors.New("cluster: chains diverged")

// FastSyncResult reports what a FastSync did.
type FastSyncResult struct {
	// Installed reports whether a snapshot was adopted; SnapshotHeight
	// is its height when so.
	Installed      bool
	SnapshotHeight uint64
	// Imported counts blocks imported by the catch-up tail (each through
	// full validation).
	Imported int
}

// FastSync brings n up to date with the peer the fast way: fetch the
// peer's state checkpoint, install it when it is ahead of the local
// head, then catch-up Sync only the blocks after it — a late joiner
// replays the tail instead of the whole chain. Peers that serve no
// snapshot (or a stale one) degrade gracefully to plain Sync.
//
// Trust: the installed state must hash to the checkpoint header's state
// root (node.InstallSnapshot refuses otherwise), and every block after
// the checkpoint goes through full deterministic validation. The
// checkpoint header itself is taken on faith, like a configured genesis
// — that is the fast-sync trade-off, and nodes that must verify the
// whole history should use Sync.
func FastSync(ctx context.Context, n *node.Node, p *Peer) (FastSyncResult, error) {
	var res FastSyncResult
	s, err := p.Snapshot(ctx)
	switch {
	case errors.Is(err, ErrNoSnapshot):
		// Nothing to install: full catch-up.
	case err != nil:
		return res, err
	case s.Height() > n.Head().Header.Number:
		if err := n.InstallSnapshot(s); err != nil {
			return res, fmt.Errorf("cluster: fast-sync: %w", err)
		}
		res.Installed = true
		res.SnapshotHeight = s.Height()
	}
	res.Imported, err = Sync(ctx, n, p)
	return res, err
}

// Sync brings n up to date with the peer: while the peer's head is ahead,
// pull the missing heights through the staged import pipeline
// (internal/importer: windowed range prefetch, parallel stateless
// validation, strictly sequential validator-gated commit) with default
// sizing. It returns how many blocks were imported.
//
// The loop re-reads the peer's head after each pass, so blocks mined
// while catching up are picked up too; it terminates when the heads agree
// (same height, same hash), the peer falls behind, the context is
// cancelled (context.Cause is propagated, checked before the first fetch),
// or anything fails.
//
// Divergence — the peer committing a different block at a height n also
// holds — is detected both from head comparison and from import-time fork
// or bad-parent rejections, and reported as ErrDiverged.
func Sync(ctx context.Context, n *node.Node, p *Peer) (imported int, err error) {
	return SyncWith(ctx, n, p, importer.Config{})
}

// SyncWith is Sync with explicit pipeline sizing (worker pool, prefetch
// window, range-fetch batch).
func SyncWith(ctx context.Context, n *node.Node, p *Peer, icfg importer.Config) (imported int, err error) {
	for {
		if ctx.Err() != nil {
			return imported, context.Cause(ctx)
		}
		remote, err := p.Head(ctx)
		if err != nil {
			return imported, err
		}
		local := n.Height()
		if remote.Number <= local {
			return imported, SameChain(n, remote, p)
		}
		count, err := importer.Run(ctx, n, p, local+1, remote.Number, icfg)
		imported += count
		if err != nil {
			return imported, wrapImportErr(err, p)
		}
	}
}

// SameChain checks a peer's head against n: holding a different block at
// that height, n is on another fork — ErrDiverged. A height n does not
// hold (ahead of its head, or pruned) decides nothing.
func SameChain(n *node.Node, remote Head, p *Peer) error {
	if known, ok := n.BlockAt(remote.Number); ok && known.Header.Hash() != remote.Hash {
		return fmt.Errorf("%w: height %d: local %s, peer %s (%s)",
			ErrDiverged, remote.Number, known.Header.Hash().Short(), remote.Hash.Short(), p.URL())
	}
	return nil
}

// wrapImportErr maps a failed pull into the cluster error vocabulary: a
// block the node refused as a fork or a bad parent is divergence, any
// other refusal names the height and the peer; fetch failures and
// cancellation pass through.
func wrapImportErr(err error, p *Peer) error {
	var be *importer.BlockError
	switch {
	case !errors.As(err, &be):
		return err
	case errors.Is(be.Err, node.ErrFork), errors.Is(be.Err, chain.ErrBadParent):
		return fmt.Errorf("%w: %v", ErrDiverged, be.Err)
	default:
		return fmt.Errorf("cluster: import height %d from %s: %w", be.Height, p.URL(), be.Err)
	}
}
