package replica

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"contractstm/internal/api/wire"
	"contractstm/internal/cluster"
	"contractstm/internal/contract"
	"contractstm/internal/importer"
	"contractstm/internal/node"
)

// Config assembles a Replica.
type Config struct {
	// Node is the follower to run as a read replica (required). New puts
	// its API into refuse-writes: the replica never mines; writes belong
	// to the upstream.
	Node *node.Node
	// Upstream is the base URL of the node to follow (required).
	Upstream string
	// HTTPClient customizes the upstream transport (nil = SDK default).
	HTTPClient *http.Client
	// ShadowWorld, when set, enables historical queries
	// (GET /v1/state/{addr}?height=H): a dedicated world built by the
	// same deterministic genesis setup as Node's, owned by the history
	// after New.
	ShadowWorld *contract.World
	// History tunes the historical materializer (Node, World and zero
	// values are filled in; ignored without ShadowWorld).
	History HistoryConfig
	// Import sizes the staged import pipeline every block is pulled
	// through, at catch-up and while relaying (zero values = importer
	// defaults).
	Import importer.Config
	// Relay tunes the event relay (Node and Upstream are filled in).
	Relay RelayConfig
	// ErrorLog receives non-fatal faults (nil discards); it also
	// defaults Relay.ErrorLog.
	ErrorLog func(error)
}

// Replica bundles the three read-path roles of a follower: validated
// catch-up and live block application (the relay), bounded-staleness
// read serving (the node's API, stamped and gated by internal/api), and
// historical queries (the history materializer). The replica's status
// endpoint reports the relay's accounting under status.relay.
type Replica struct {
	n     *node.Node
	peer  *cluster.Peer
	relay *Relay
	hist  *History
}

// New wires a follower node into a replica: attaches the history (when
// a shadow world is supplied), builds the relay, makes the node's API
// refuse writes, and decorates the node's status with the relay's
// accounting. Run starts following.
func New(cfg Config) (*Replica, error) {
	if cfg.Node == nil {
		return nil, errors.New("replica: nil node")
	}
	if cfg.Upstream == "" {
		return nil, errors.New("replica: no upstream URL")
	}
	peer := cluster.NewPeer(cfg.Upstream, cfg.HTTPClient)
	rcfg := cfg.Relay
	rcfg.Node = cfg.Node
	rcfg.Upstream = peer.Client()
	if rcfg.ErrorLog == nil {
		rcfg.ErrorLog = cfg.ErrorLog
	}
	relay, err := NewRelay(rcfg)
	if err != nil {
		return nil, err
	}
	relay.icfg = cfg.Import
	r := &Replica{n: cfg.Node, peer: peer, relay: relay}
	if cfg.ShadowWorld != nil {
		hcfg := cfg.History
		hcfg.World = cfg.ShadowWorld
		hist, err := AttachHistory(cfg.Node, hcfg)
		if err != nil {
			return nil, err
		}
		r.hist = hist
	}
	cfg.Node.RefuseWrites()
	cfg.Node.SetStatusDecorator(func(st *wire.Status) {
		rs := relay.Status()
		st.Relay = &rs
	})
	return r, nil
}

// Relay returns the replica's event relay.
func (r *Replica) Relay() *Relay { return r.relay }

// History returns the historical materializer (nil without a shadow
// world).
func (r *Replica) History() *History { return r.hist }

// Node returns the underlying follower.
func (r *Replica) Node() *node.Node { return r.n }

// Run catches the follower up through the staged import pipeline, then
// relays the upstream event stream until the context ends. The initial
// sync tolerates an upstream that is momentarily unreachable only as
// far as the SDK's retry policy; a diverged chain fails immediately.
func (r *Replica) Run(ctx context.Context) error {
	if _, err := cluster.SyncWith(ctx, r.n, r.peer, r.relay.icfg); err != nil {
		return fmt.Errorf("replica: initial sync: %w", err)
	}
	return r.relay.Run(ctx)
}
