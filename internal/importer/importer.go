// Package importer is the staged catch-up import pipeline: deterministic
// parallel validation on followers, the paper's validator role scaled to
// cores.
//
// Validation splits into two phases. Phase A is stateless — commitment
// verification (here only: the fetch just parses), schedule-graph
// construction (H acyclic, S a topological order) and a window-internal
// header-linkage precheck — everything in validator.Validate that never
// touches contract.World. It runs concurrently across a bounded window of
// queued blocks on a worker pool, fed by a prefetcher that amortizes peer
// round-trips with range fetches (falling back to single-block fetches
// when a range fetch fails). Phase B is stateful — fork-join replay
// against world state, WAL append, chain append, receipts — and stays
// strictly sequential in height order (it is node.ImportPrechecked, the
// same import core as node.AcceptBlock, which runs Phase A inline for a
// pushed block).
//
// Determinism contract: Phase A results complete in arbitrary order, but a
// reorder buffer hands them to Phase B strictly by height, so the first
// error is elected by height — never by completion order — and a bad block
// at height h rejects with an error byte-identical to AcceptBlock's,
// regardless of scheduling. The window-internal linkage precheck only
// stops the prefetcher early; the authoritative linkage verdict is the
// commit stage's, checked against the live head.
//
// This is the one way a follower pulls blocks: cluster.Sync's catch-up and
// the replica relay's live follow and gap fill are both calls to Run.
package importer

import (
	"context"
	"errors"
	"fmt"

	"contractstm/internal/chain"
	"contractstm/internal/node"
	"contractstm/internal/validator"
)

// Source fetches blocks from a peer. cluster.Peer implements it; tests
// substitute in-memory fakes (including adversarial ones).
type Source interface {
	// Block fetches one block by height.
	Block(ctx context.Context, height uint64) (chain.Block, error)
	// Blocks fetches up to count consecutive blocks starting at from, in
	// height order. A short result is not an error (the peer served what
	// it had); any error makes the pipeline fall back to Block.
	Blocks(ctx context.Context, from uint64, count int) ([]chain.Block, error)
}

// Target consumes validated blocks strictly in height order.
// *node.Node implements it via ImportPrechecked.
type Target interface {
	ImportPrechecked(b chain.Block, pre validator.Prechecked, preErr error) error
}

// Config tunes the pipeline. The zero value gets defaults.
type Config struct {
	// Workers is the Phase A (stateless validation) pool size (default 4).
	Workers int
	// Window bounds how many fetched blocks may be in flight between the
	// prefetcher and the sequential commit stage (default 4×Workers, at
	// least 8). The window is a latency budget, not a parallelism knob:
	// it must hold enough prefetched blocks that the commit stage never
	// waits on a peer round trip, even when Phase A runs on one worker.
	Window int
	// Batch is the range-fetch size the prefetcher requests per peer
	// round-trip (default min(Window, 16)).
	Batch int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Window <= 0 {
		c.Window = 4 * c.Workers
		if c.Window < 8 {
			c.Window = 8
		}
	}
	if c.Batch <= 0 {
		c.Batch = c.Window
		if c.Batch > 16 {
			c.Batch = 16
		}
	}
	return c
}

// BlockError reports the pipeline's elected verdict: the lowest height
// whose import failed, with the underlying import error. Fetch-layer
// failures are returned unwrapped (they carry the source's own context).
type BlockError struct {
	Height uint64
	Err    error
}

// Error implements error.
func (e *BlockError) Error() string {
	return fmt.Sprintf("importer: height %d: %v", e.Height, e.Err)
}

// Unwrap exposes the import error for errors.Is/As.
func (e *BlockError) Unwrap() error { return e.Err }

// job is one block moving through the pipeline. done is closed by the
// Phase A worker once pre/preErr are populated; the commit stage receives
// jobs through a height-ordered channel, so waiting on done before
// committing is the reorder buffer.
type job struct {
	block  chain.Block
	pre    validator.Prechecked
	preErr error
	done   chan struct{}
}

// Run imports heights [from, to] from src into t through the staged
// pipeline and returns how many blocks were imported (already-known
// heights are skipped, not counted, not errors). The first failing height
// — elected by height order, as a loop over AcceptBlock would — is returned
// as a *BlockError; fetch failures and cancellation (context.Cause) pass
// through unwrapped.
func Run(ctx context.Context, t Target, src Source, from, to uint64, cfg Config) (imported int, err error) {
	if from > to {
		return 0, nil
	}
	cfg = cfg.withDefaults()

	pctx := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		jobs     = make(chan *job, cfg.Window) // Phase A worker feed
		ordered  = make(chan *job, cfg.Window) // commit feed, height order
		fetchErr error                         // set before ordered closes
	)

	// Prefetcher: walk [from, to] in order, range-fetching Batch blocks per
	// round-trip and degrading to single-block fetches when a range fetch
	// fails. Every fetched block is sent to ordered (the commit
	// queue) first and jobs (the worker feed) second; ordered's capacity is
	// the pipeline's in-flight window.
	go func() {
		defer close(jobs)
		defer close(ordered)
		rangeOK := true
		havePrev := false
		var prev chain.Block
		h := from
		for h <= to {
			if pctx.Err() != nil {
				fetchErr = context.Cause(pctx)
				return
			}
			var batch []chain.Block
			if rangeOK {
				want := int(to-h) + 1
				if want > cfg.Batch {
					want = cfg.Batch
				}
				bs, err := src.Blocks(ctx, h, want)
				if err != nil || len(bs) == 0 {
					// The range fetch failed: remember and fall back to
					// the single-block path, which also owns the canonical
					// fetch-error messages.
					rangeOK = false
				} else {
					batch = bs
				}
			}
			if batch == nil {
				b, err := src.Block(ctx, h)
				if err != nil {
					fetchErr = err
					return
				}
				batch = []chain.Block{b}
			}
			for _, b := range batch {
				if b.Header.Number != h {
					fetchErr = fmt.Errorf("importer: fetched height %d, want %d", b.Header.Number, h)
					return
				}
				// Window-internal linkage precheck: a block that does not
				// extend its predecessor makes every later fetch wasted
				// work. Enqueue it (the commit stage owns the canonical
				// bad-parent verdict against the live head) and stop
				// prefetching past it.
				linked := !havePrev || b.Header.ParentHash == prev.Header.Hash()
				j := &job{block: b, done: make(chan struct{})}
				select {
				case ordered <- j:
				case <-ctx.Done():
					fetchErr = context.Cause(pctx)
					return
				}
				select {
				case jobs <- j:
				case <-ctx.Done():
					fetchErr = context.Cause(pctx)
					return
				}
				if !linked {
					return
				}
				prev, havePrev = b, true
				h++
			}
		}
	}()

	// Phase A pool: stateless validation, any order, any parallelism —
	// "the validator is not required to match the miner's level of
	// parallelism" (§5). A range shorter than the pool (the relay's
	// one-block pulls) starts one worker per block.
	for i := uint64(0); i < uint64(cfg.Workers) && i <= to-from; i++ {
		go func() {
			for j := range jobs {
				j.pre, j.preErr = validator.Precheck(j.block)
				close(j.done)
			}
		}()
	}

	// Commit stage: strictly sequential in height order. Waiting on each
	// job's done channel in queue order is the deterministic reducer —
	// the first error is elected by height, not completion order.
	for j := range ordered {
		select {
		case <-j.done:
		case <-pctx.Done():
			return imported, context.Cause(pctx)
		}
		ierr := t.ImportPrechecked(j.block, j.pre, j.preErr)
		switch {
		case ierr == nil:
			imported++
		case errors.Is(ierr, node.ErrAlreadyKnown):
			// Imports are idempotent.
		default:
			cancel()
			return imported, &BlockError{Height: j.block.Header.Number, Err: ierr}
		}
	}
	return imported, fetchErr
}
