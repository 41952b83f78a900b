package validator

import (
	"context"
	"sync"

	"contractstm/internal/chain"
)

// DefaultWindow is the in-flight bound a Pipeline caller uses when it has
// no reason to pick another: 4×workers, at least 8 — deep enough that
// Phase B does not wait on the producer even when Phase A runs on one
// worker.
func DefaultWindow(workers int) int {
	if w := 4 * workers; w > 8 {
		return w
	}
	return 8
}

// job is one block moving through a Pipeline. done is closed by the Phase
// A worker once pre/preErr are set; Phase B receives jobs through a
// height-ordered channel, so waiting on done before consuming is the
// reorder buffer.
type job struct {
	block  chain.Block
	pre    Prechecked
	preErr error
	done   chan struct{}
}

// Pipeline runs validation's two phases over a stream of blocks, the
// stateless one ahead of the stateful one. It is the one staged core
// behind both multi-block validation paths: a follower's pull
// (internal/importer) and a restarting node's WAL replay.
//
// produce runs on a goroutine of its own and emits blocks in height
// order through emit, which blocks while window blocks are in flight and
// returns an error once the pipeline has stopped (consume failed, or ctx
// ended); produce should then return. Only produce's goroutine may call
// emit.
//
// Phase A — Precheck, a function of the block's bytes alone — runs on up
// to workers goroutines, started as blocks arrive, in any order: "the
// validator is not required to match the miner's level of parallelism"
// (§5). consume is Phase B: it runs on the calling goroutine and receives
// each emitted block with its Precheck outputs strictly in emission
// order.
//
// The first error is elected by height, never by completion order:
// consume's first error is returned as it is; produce's error surfaces
// only after every block emitted before it was consumed, so a bad block
// wins over damage the producer met further ahead. If ctx ends while
// Phase B waits on Phase A, its cause is returned. Pipeline returns only
// once produce and every worker have.
func Pipeline(ctx context.Context, workers, window int,
	produce func(ctx context.Context, emit func(chain.Block) error) error,
	consume func(b chain.Block, pre Prechecked, preErr error) error) error {
	workers, window = max(workers, 1), max(window, 1)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Both feeds are sized to the window, the in-flight bound. A block
	// enters ordered before jobs, so a send to jobs waits only on Phase
	// A's workers, never on Phase B.
	var (
		jobs     = make(chan *job, window) // Phase A feed
		ordered  = make(chan *job, window) // Phase B feed, height order
		started  int                       // Phase A workers, producer-owned
		workerWG sync.WaitGroup
		produced = make(chan struct{})
		prodErr  error // set before ordered closes
	)
	worker := func() {
		defer workerWG.Done()
		for j := range jobs {
			if ctx.Err() == nil {
				j.pre, j.preErr = Precheck(j.block)
			}
			close(j.done)
		}
	}
	// emit queues a block to Phase B first and Phase A second.
	emit := func(b chain.Block) error {
		j := &job{block: b, done: make(chan struct{})}
		select {
		case ordered <- j:
		case <-ctx.Done():
			return context.Cause(ctx)
		}
		if started < workers {
			started++
			workerWG.Add(1)
			go worker()
		}
		select {
		case jobs <- j:
			return nil
		case <-ctx.Done():
			return context.Cause(ctx)
		}
	}
	go func() {
		defer close(produced)
		defer close(jobs)
		defer close(ordered)
		prodErr = produce(ctx, emit)
	}()
	stop := func(err error) error {
		cancel()
		<-produced
		workerWG.Wait()
		return err
	}

	for j := range ordered {
		select {
		case <-j.done:
		case <-ctx.Done():
		}
		// Until stop cancels it, ctx ends only with its parent.
		if ctx.Err() != nil {
			return stop(context.Cause(ctx))
		}
		if err := consume(j.block, j.pre, j.preErr); err != nil {
			return stop(err)
		}
	}
	return stop(prodErr)
}
