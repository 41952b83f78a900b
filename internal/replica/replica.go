// Package replica turns any follower node into a first-class read
// replica and event relay: bounded-staleness /v1 reads served at the
// follower's durable height, historical balance queries answered from
// the durable versions the node retains, and an SSE relay that consumes
// one upstream subscribe stream and re-fans it out through the
// follower's own broker — thousands of downstream subscribers cost the
// miner a single connection.
//
// The package sits above internal/node (the node never imports it) and
// rides the existing durability gate: everything a replica serves went
// through the validated import path first, so a replica read can never
// expose a block a crash on the miner could void.
package replica

import (
	"context"
	"errors"
	"net/http"

	"contractstm/internal/api/wire"
	"contractstm/internal/cluster"
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
	// History enables historical queries (GET /v1/state/{addr}?height=H)
	// over the durable versions Node retains from New on.
	History bool
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
// historical queries (the node's retained versions). The replica's
// status endpoint reports the relay's accounting under status.relay.
type Replica struct {
	n     *node.Node
	relay *Relay
}

// New wires a follower node into a replica: turns on history retention
// (when asked), builds the relay, makes the node's API refuse writes, and
// decorates the node's status with the relay's accounting. Run starts
// following.
func New(cfg Config) (*Replica, error) {
	if cfg.Node == nil {
		return nil, errors.New("replica: nil node")
	}
	if cfg.Upstream == "" {
		return nil, errors.New("replica: no upstream URL")
	}
	rcfg := cfg.Relay
	rcfg.Node = cfg.Node
	rcfg.Upstream = cluster.NewPeer(cfg.Upstream, cfg.HTTPClient)
	if rcfg.ErrorLog == nil {
		rcfg.ErrorLog = cfg.ErrorLog
	}
	relay, err := NewRelay(rcfg)
	if err != nil {
		return nil, err
	}
	relay.icfg = cfg.Import
	if cfg.History {
		cfg.Node.RetainHistory()
	}
	cfg.Node.RefuseWrites()
	cfg.Node.SetStatusDecorator(func(st *wire.Status) {
		rs := relay.Status()
		st.Relay = &rs
	})
	return &Replica{n: cfg.Node, relay: relay}, nil
}

// Relay returns the replica's event relay.
func (r *Replica) Relay() *Relay { return r.relay }

// Node returns the underlying follower.
func (r *Replica) Node() *node.Node { return r.n }

// Run follows the upstream until the context ends: the relay catches the
// follower up through the staged import pipeline each time its stream
// (re)connects, then applies the blocks the stream announces. An upstream
// that is unreachable is retried with the relay's backoff; one whose
// chain has diverged from the follower's (cluster.ErrDiverged), or that
// serves a block local validation rejects, ends the run.
func (r *Replica) Run(ctx context.Context) error { return r.relay.Run(ctx) }
