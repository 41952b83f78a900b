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
// round-trips with range fetches that double from one block up to Batch
// (falling back to single-block fetches when a range fetch fails). Phase
// B is stateful — fork-join replay against world state, WAL append, chain
// append, receipts — and stays strictly sequential in height order (it is
// node.ImportPrechecked, the same import core as node.AcceptBlock, which
// runs Phase A inline for a pushed block).
//
// Determinism contract: Phase A results complete in arbitrary order, but a
// reorder buffer hands them to Phase B strictly by height, so the first
// error is elected by height — never by completion order — and a bad block
// at height h rejects with an error byte-identical to AcceptBlock's,
// regardless of scheduling. The window-internal linkage precheck only
// stops the prefetcher early; the authoritative linkage verdict is the
// commit stage's, checked against the live head.
//
// The worker pool and the reorder buffer are validator.Pipeline, which
// this package shares with its sibling caller, a restarting node's WAL
// replay (node.New): Run adds the prefetcher in front and the import
// stage behind. Run is the one way a follower pulls blocks: cluster.Sync's
// catch-up and the replica relay's live follow and gap fill are both
// calls to it.
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
	// Batch caps the range-fetch size: the first range asks for one
	// block, each next one for twice as many, up to Batch (default
	// min(Window, 16)).
	Batch int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Window <= 0 {
		c.Window = validator.DefaultWindow(c.Workers)
	}
	if c.Batch <= 0 {
		c.Batch = min(c.Window, 16)
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

	// Producer: walk [from, to] in order, range-fetching blocks per peer
	// round-trip and degrading to single-block fetches when a range fetch
	// fails. The first range asks for one block and each next one for
	// twice as many, up to Batch, so Phase A starts on the first block
	// instead of after a whole range has arrived.
	prefetch := func(ctx context.Context, emit func(chain.Block) error) error {
		rangeOK := true
		size := 1
		havePrev := false
		var prev chain.Block
		h := from
		for h <= to {
			if ctx.Err() != nil {
				return context.Cause(ctx)
			}
			var batch []chain.Block
			if rangeOK {
				want := min(int(to-h)+1, size)
				bs, err := src.Blocks(ctx, h, want)
				if err != nil || len(bs) == 0 {
					// The range fetch failed: remember and fall back to
					// the single-block path, which also owns the canonical
					// fetch-error messages.
					rangeOK = false
				} else {
					batch = bs
					size = min(2*size, cfg.Batch)
				}
			}
			if batch == nil {
				b, err := src.Block(ctx, h)
				if err != nil {
					return err
				}
				batch = []chain.Block{b}
			}
			for _, b := range batch {
				if b.Header.Number != h {
					return fmt.Errorf("importer: fetched height %d, want %d", b.Header.Number, h)
				}
				// Window-internal linkage precheck: a block that does not
				// extend its predecessor makes every later fetch wasted
				// work. Emit it (the commit stage owns the canonical
				// bad-parent verdict against the live head) and stop
				// prefetching past it.
				linked := !havePrev || b.Header.ParentHash == prev.Header.Hash()
				if err := emit(b); err != nil {
					return err
				}
				if !linked {
					return nil
				}
				prev, havePrev = b, true
				h++
			}
		}
		return nil
	}

	// Commit stage: validator.Pipeline hands blocks over strictly by
	// height, so the first error is elected by height, not by which Phase
	// A worker finished first.
	commit := func(b chain.Block, pre validator.Prechecked, preErr error) error {
		ierr := t.ImportPrechecked(b, pre, preErr)
		switch {
		case ierr == nil:
			imported++
		case errors.Is(ierr, node.ErrAlreadyKnown):
			// Imports are idempotent.
		default:
			return &BlockError{Height: b.Header.Number, Err: ierr}
		}
		return nil
	}

	err = validator.Pipeline(ctx, cfg.Workers, cfg.Window, prefetch, commit)
	return imported, err
}
