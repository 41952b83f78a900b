package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"contractstm/internal/api/client"
	"contractstm/internal/api/wire"
	"contractstm/internal/cluster"
	"contractstm/internal/importer"
	"contractstm/internal/node"
)

const (
	// DefaultRelayBackoff is the first reconnect delay when
	// RelayConfig.Backoff is zero.
	DefaultRelayBackoff = 100 * time.Millisecond
	// DefaultRelayMaxBackoff caps the reconnect delay.
	DefaultRelayMaxBackoff = 5 * time.Second
)

// RelayConfig assembles a Relay.
type RelayConfig struct {
	// Node is the local follower the relay imports upstream blocks into
	// (required). Each imported block republishes through the node's own
	// broker, which is the fan-out: downstream subscribers attach to
	// this node, not the upstream.
	Node *node.Node
	// Upstream is the node being followed (required): the relay
	// subscribes and reads the head through its SDK client and pulls
	// blocks through the peer itself, the import pipeline's unverifying
	// source — Phase A checks each block's commitments, once.
	Upstream *cluster.Peer
	// Backoff is the first reconnect delay (0 = DefaultRelayBackoff); it
	// doubles per failed attempt up to DefaultRelayMaxBackoff.
	Backoff time.Duration
	// ErrorLog receives non-fatal relay faults (reconnects, failed
	// fetches). Nil discards.
	ErrorLog func(error)
}

// Relay consumes ONE upstream subscribe stream and turns every durable
// block event into a validated local import, which the local broker
// republishes to this node's own /v1/subscribe subscribers — thousands
// of downstream SSE connections cost the upstream miner exactly one.
//
// An event only says how far the upstream has got. Whatever lies between
// the local head and that height — the one announced block, or a hole
// left by a dropped subscriber, a reconnect or a replay ring that was
// outrun (the reset signal) — is pulled through the staged import
// pipeline (importer.Run), so every block, announced or filled, goes
// through full local validation on the one import path. Reconnects
// resume with Last-Event-ID so the upstream replays the missed events.
type Relay struct {
	n      *node.Node
	up     *cluster.Peer
	base   time.Duration
	errLog func(error)
	// icfg sizes the import pipeline (replica.Config.Import; zero values =
	// importer defaults).
	icfg importer.Config

	events         atomic.Int64
	reconnects     atomic.Int64
	gapsFilled     atomic.Int64
	upstreamHeight atomic.Uint64
}

// NewRelay builds a relay; Run starts it.
func NewRelay(cfg RelayConfig) (*Relay, error) {
	if cfg.Node == nil || cfg.Upstream == nil {
		return nil, errors.New("replica: relay needs a node and an upstream peer")
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = DefaultRelayBackoff
	}
	r := &Relay{
		n:      cfg.Node,
		up:     cfg.Upstream,
		base:   cfg.Backoff,
		errLog: cfg.ErrorLog,
	}
	if r.errLog == nil {
		r.errLog = func(error) {}
	}
	return r, nil
}

// Status snapshots the relay's accounting in wire form.
func (r *Relay) Status() wire.RelayStatus {
	return wire.RelayStatus{
		Upstream:       r.up.URL(),
		Events:         r.events.Load(),
		Reconnects:     r.reconnects.Load(),
		GapsFilled:     r.gapsFilled.Load(),
		UpstreamHeight: r.upstreamHeight.Load(),
	}
}

// Run drives the relay until the context ends (returned as its cause),
// the upstream's chain turns out to have forked from the local one
// (cluster.ErrDiverged) or a block it serves fails local validation —
// divergence is fatal, not retryable. The subscribe stream is
// re-established with exponential backoff on every other failure.
func (r *Relay) Run(ctx context.Context) error {
	var lastSeq uint64
	haveSeq := false
	delay := r.base
	first := true
	for {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		var stream *client.Stream
		var err error
		if haveSeq {
			stream, err = r.up.Client().Subscribe(ctx, client.WithLastEventID(lastSeq))
		} else {
			stream, err = r.up.Client().Subscribe(ctx)
		}
		if err != nil {
			r.errLog(fmt.Errorf("replica: relay subscribe: %w", err))
			if !first {
				r.reconnects.Add(1)
			}
			first = false
			if !r.sleep(ctx, delay) {
				return context.Cause(ctx)
			}
			if delay *= 2; delay > DefaultRelayMaxBackoff {
				delay = DefaultRelayMaxBackoff
			}
			continue
		}
		if !first {
			r.reconnects.Add(1)
		}
		first = false
		delay = r.base
		// A fresh stream starts past whatever the upstream replayed; any
		// hole between the local head and the stream closes as events
		// arrive. Catch up eagerly first so those pulls stay short.
		if err := r.catchUp(ctx); err != nil {
			stream.Close()
			return err
		}
		err = r.consume(ctx, stream)
		if id, ok := stream.LastEventID(); ok {
			lastSeq, haveSeq = id, true
		}
		stream.Close()
		if err != nil {
			return err
		}
		if !r.sleep(ctx, delay) {
			return context.Cause(ctx)
		}
	}
}

// consume drains one stream until it breaks. A nil return means
// "reconnect"; a non-nil return is fatal (context end or local
// validation rejecting an upstream block).
func (r *Relay) consume(ctx context.Context, stream *client.Stream) error {
	for {
		ev, err := stream.Next()
		switch {
		case errors.Is(err, client.ErrStreamReset):
			// The gap outran the upstream's replay ring: pull up to the
			// upstream head, then keep consuming this stream.
			if err := r.catchUp(ctx); err != nil {
				return err
			}
			continue
		case errors.Is(err, client.ErrStreamDropped):
			r.errLog(errors.New("replica: relay dropped by upstream (fell behind)"))
			return nil
		case errors.Is(err, io.EOF):
			return nil
		case err != nil:
			if ctx.Err() != nil {
				return context.Cause(ctx)
			}
			r.errLog(fmt.Errorf("replica: relay stream: %w", err))
			return nil
		}
		r.events.Add(1)
		r.observeHeight(ev.Block.Number)
		if err := r.pull(ctx, ev.Block.Number, true); err != nil {
			return err
		}
	}
}

// catchUp pulls from the local head to the upstream's durable head,
// after checking that the two are one chain: a fork no pull can reconcile.
func (r *Relay) catchUp(ctx context.Context) error {
	head, err := r.up.Head(ctx)
	if err != nil {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		r.errLog(fmt.Errorf("replica: relay head: %w", err))
		return nil
	}
	r.observeHeight(head.Number)
	if err := cluster.SameChain(r.n, head, r.up); err != nil {
		return err
	}
	return r.pull(ctx, head.Number, false)
}

// pull imports the heights between the local head and to through the
// staged pipeline; a target at or under the local head (a duplicate from
// replay overlap) is nothing to do. Blocks other than an announced one —
// the event's own block — count toward the gap-fill metric. A block the
// local node refuses is fatal: the upstream served something this node's
// deterministic validation rejects, which is divergence, not noise. A
// failed fetch is logged and left to the next event or reconnect, which
// pulls from wherever the local head stopped.
func (r *Relay) pull(ctx context.Context, to uint64, announced bool) error {
	from := r.n.Height() + 1
	if to < from {
		return nil
	}
	imported, err := importer.Run(ctx, r.n, r.up, from, to, r.icfg)
	if announced && err == nil && imported > 0 {
		imported--
	}
	r.gapsFilled.Add(int64(imported))
	var rejected *importer.BlockError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &rejected):
		return fmt.Errorf("replica: relay import block %d: %w", rejected.Height, rejected.Err)
	case ctx.Err() != nil:
		return context.Cause(ctx)
	default:
		r.errLog(fmt.Errorf("replica: relay pull [%d, %d]: %w", from, to, err))
		return nil
	}
}

// observeHeight ratchets the observed upstream height.
func (r *Relay) observeHeight(h uint64) {
	for {
		cur := r.upstreamHeight.Load()
		if h <= cur || r.upstreamHeight.CompareAndSwap(cur, h) {
			return
		}
	}
}

// sleep waits d or until the context ends, reporting whether to
// continue.
func (r *Relay) sleep(ctx context.Context, d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}
