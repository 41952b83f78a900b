// Package cluster is the multi-node subsystem: it propagates sealed
// blocks between in-process or networked nodes so that *other* machines
// re-validate a miner's published (S, H) schedule — the paper's core
// claim, exercised across process boundaries for the first time.
//
// The pieces:
//
//   - Peer: a client view of one remote node, built on the versioned
//     /v1 SDK (internal/api/client) — the cluster layer owns no raw
//     HTTP;
//   - Broadcaster: pushes newly-mined blocks to all peers with bounded
//     retry/backoff;
//   - Sync: catch-up — a lagging or newly-joined node pulls from its head
//     to a peer's head through the staged import pipeline
//     (internal/importer), every block validator-gated, with divergence
//     detection;
//   - Cluster: a harness running N in-process nodes over httptest
//     transports (tests, benchmarks) or real TCP (cmd/clusterdemo).
//
// Every imported block — pushed (node.AcceptBlock) or pulled
// (node.ImportPrechecked) — goes through the full deterministic fork-join
// validation; the cluster layer adds transport, retries and chain-level
// divergence checks, never trust.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"contractstm/internal/api/client"
	"contractstm/internal/api/wire"
	"contractstm/internal/chain"
	"contractstm/internal/persist"
	"contractstm/internal/types"
)

// ErrNoBlock reports a requested height the peer does not have.
var ErrNoBlock = errors.New("cluster: peer has no block at height")

// ErrNoSnapshot reports a peer that does not serve state checkpoints;
// fast-sync falls back to full catch-up.
var ErrNoSnapshot = errors.New("cluster: peer serves no snapshot")

// Peer is a client view of one remote node's wire API. The transport —
// requests, bounded retries of idempotent fetches, error decoding — is
// the /v1 SDK's; Peer adds the cluster layer's error vocabulary. A peer
// that answered non-2xx surfaces as the SDK's *client.APIError, wrapped:
// the peer was reachable and answered, so retrying without changing
// anything is usually futile (the block was rejected), unlike a
// transport error.
type Peer struct {
	c *client.Client
}

// NewPeer returns a peer client for a node served at baseURL. A nil
// client gets a default with a conservative timeout.
func NewPeer(baseURL string, hc *http.Client) *Peer {
	opts := []client.Option{}
	if hc != nil {
		opts = append(opts, client.WithHTTPClient(hc))
	}
	return &Peer{c: client.New(baseURL, opts...)}
}

// URL returns the peer's base URL.
func (p *Peer) URL() string { return p.c.URL() }

// Client exposes the underlying SDK client (receipt queries, event
// subscriptions and other non-cluster calls).
func (p *Peer) Client() *client.Client { return p.c }

// Head is a peer's chain-tip summary.
type Head struct {
	Number    uint64
	Hash      types.Hash
	StateRoot types.Hash
}

// Head fetches the peer's durable chain tip.
func (p *Peer) Head(ctx context.Context) (Head, error) {
	info, err := p.c.Head(ctx)
	if err != nil {
		return Head{}, fmt.Errorf("cluster: head: %w", err)
	}
	h := Head{Number: info.Number}
	if h.Hash, err = types.ParseHash(info.Hash); err != nil {
		return Head{}, fmt.Errorf("cluster: head hash: %w", err)
	}
	if h.StateRoot, err = types.ParseHash(info.StateRoot); err != nil {
		return Head{}, fmt.Errorf("cluster: head state root: %w", err)
	}
	return h, nil
}

// Block fetches and parses the peer's block at the given height, checking
// nothing: Peer is the import pipeline's source, whose Phase A runs
// validator.Precheck on every fetched block.
func (p *Peer) Block(ctx context.Context, height uint64) (chain.Block, error) {
	b, err := p.c.BlockUnverified(ctx, height)
	if err != nil {
		var ae *client.APIError
		if errors.As(err, &ae) && ae.Status == http.StatusNotFound {
			return chain.Block{}, fmt.Errorf("%w %d (%s)", ErrNoBlock, height, p.URL())
		}
		return chain.Block{}, fmt.Errorf("cluster: block %d: %w", height, err)
	}
	return b, nil
}

// Blocks fetches up to count consecutive blocks starting at from — the
// range endpoint that amortizes catch-up round-trips, unchecked like
// Block. The result may be short (the peer serves what it has durable); a
// missing starting height maps to ErrNoBlock like the single-block fetch.
// On any error the import pipeline falls back to Block, which also owns
// the canonical fetch-error messages.
func (p *Peer) Blocks(ctx context.Context, from uint64, count int) ([]chain.Block, error) {
	bs, err := p.c.BlocksUnverified(ctx, from, count)
	if err != nil {
		var ae *client.APIError
		if errors.As(err, &ae) && ae.Status == http.StatusNotFound && ae.Code == wire.CodeBlockNotFound {
			return nil, fmt.Errorf("%w %d (%s)", ErrNoBlock, from, p.URL())
		}
		return nil, fmt.Errorf("cluster: blocks [%d,+%d): %w", from, count, err)
	}
	return bs, nil
}

// Snapshot fetches the peer's current state checkpoint: the head header
// plus encoded world state. The decode path verifies the frame checksum;
// the *claims* in the checkpoint are verified by node.InstallSnapshot
// (state must hash to the header's root), and trusting the header itself
// is the fast-sync trade-off.
func (p *Peer) Snapshot(ctx context.Context) (persist.Snapshot, error) {
	s, err := p.c.Snapshot(ctx)
	if err != nil {
		var ae *client.APIError
		if errors.As(err, &ae) && ae.Status == http.StatusNotFound {
			return persist.Snapshot{}, fmt.Errorf("%w (%s)", ErrNoSnapshot, p.URL())
		}
		return persist.Snapshot{}, fmt.Errorf("cluster: snapshot: %w", err)
	}
	return s, nil
}

// SendBlock ships a sealed block to the peer for import. A 2xx answer —
// including the peer reporting it already knew the block — is success;
// any other answer is a *client.APIError carrying the peer's reason. The SDK
// does not retry block import; the Broadcaster owns delivery retries.
func (p *Peer) SendBlock(ctx context.Context, b chain.Block) error {
	if err := p.c.SendBlock(ctx, b); err != nil {
		return fmt.Errorf("cluster: send block %d: %w", b.Header.Number, err)
	}
	return nil
}

// Receipt fetches a transaction receipt from the peer — a convenience
// passthrough for demos and tools that already hold a Peer.
func (p *Peer) Receipt(ctx context.Context, id string) (wire.TxReceipt, error) {
	r, err := p.c.Receipt(ctx, id)
	if err != nil {
		return wire.TxReceipt{}, fmt.Errorf("cluster: receipt: %w", err)
	}
	return r, nil
}
