package node

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"contractstm/internal/api/wire"
	"contractstm/internal/chain"
	"contractstm/internal/mempool"
	"contractstm/internal/persist"
	"contractstm/internal/storage"
	"contractstm/internal/types"
)

// This file is the block lifecycle. Every block — mined here, imported
// from a peer, or replayed from the WAL by New — crosses the same stages:
//
//	enter   take a window slot (the back-pressure), then execMu; New's
//	        recovery, alone on the node, skips it
//	seal    (under execMu) chain.Append, register in the window, bump the
//	        tally: the sealed head advances
//	persist the WAL append: inline on a window of 1, queued for the
//	        group-commit goroutine on a deeper one; recovered blocks skip
//	        it, the WAL already holds them
//	verdict leave the window, advance the durable view, record receipts,
//	        emit the event, publish a mined block to peers
//
// and a failed persist rolls the sealed-not-durable suffix back: world
// restored, chain rewound, calls requeued at their original arrival
// position. With a window of 1 MineOne returns only after its own
// verdict and a failure rolls back without latching, so the next attempt
// is tried, not refused. With a deeper window MineOne returns at seal,
// the fsync of block N overlaps the execution of block N+1, and a
// failure also latches the window.

// errLatched marks a window stopped by a persist failure or by shutdown.
// The cause is wrapped beside it.
var errLatched = errors.New("window latched")

// window is the sealed-not-durable window, the one place its state
// lives. Its fields are guarded by n.mu, which cond waits on.
//
// A block holds a slot from enter until its verdict (or until the
// rollback that voids it). On a window deeper than 1 — a durable node
// with PipelineDepth > 1 — persist queues the block for the group-commit
// goroutine, which appends whatever queued during the previous fsync as
// one group and gives the verdicts in height order. Its first failure
// latches the window and runs one rollback under execMu. One is enough:
// enter checks the latch under execMu before any seal, so by the time the
// rollback holds execMu every block that will ever seal in this window
// has sealed — a straggler that passed the check just before the failure
// landed kept execMu until its seal was done.
type window struct {
	cond sync.Cond
	// depth is the slot count, 1 where verdicts are inline; reserved
	// counts the slots taken.
	depth, reserved int
	// inflight are the sealed-not-durable entries, oldest first: added by
	// seal, popped by their verdicts, drained by rollback.
	inflight []*inflightEntry
	// queue holds the entries awaiting the next group; busy marks a group
	// taken and not yet settled.
	queue []*inflightEntry
	busy  bool
	// err is the latch — errLatched wrapping the first persist failure,
	// or the shutdown that stops the goroutine. Nothing enters after it.
	err error
	// stopped closes when the group-commit goroutine exits (nil on a
	// window of 1, which has none).
	stopped chan struct{}
}

// latch records the window's first failure — the one place that does —
// and wakes every waiter. It reports whether cause was the first. Caller
// holds n.mu.
func (w *window) latch(cause error) bool {
	first := w.err == nil
	if first {
		w.err = fmt.Errorf("%w: %w", errLatched, cause)
	}
	w.cond.Broadcast()
	return first
}

// inflightEntry is one executed block on its way through seal → persist
// → verdict, with everything rollback needs to un-seal it. Its two state
// handles share structure with the live world: holding them costs what
// the block wrote, not a copy of the world.
type inflightEntry struct {
	block  chain.Block
	origin origin
	// sel returns a mined block's calls to their arrival position on
	// rollback (empty otherwise).
	sel mempool.Selection
	// snap is the world state before the block executed, post the state
	// after it — what readers are served once the block is durable.
	snap, post storage.Snapshot
	// retries is a mined block's execution retry count, un-tallied on
	// rollback.
	retries int
	// txIDs are the calls' transaction IDs, from whoever hashed the tx
	// root (chain.Seal, validator.Validate or validator.Precheck), for the
	// verdict's receipts.
	txIDs []types.Hash
}

// enter opens the lifecycle for one block: it takes a window slot
// (waiting while depth blocks hold one), then execMu, refuses if the
// window latched meanwhile, and writes the cadence checkpoint if one is
// due. On error neither the slot nor execMu is held.
func (n *Node) enter() error {
	n.mu.Lock()
	for n.win.err == nil && n.win.reserved >= n.win.depth {
		n.win.cond.Wait()
	}
	n.win.reserved++
	n.mu.Unlock()
	n.execMu.Lock()
	n.mu.Lock()
	err := n.win.err
	n.mu.Unlock()
	if err == nil {
		// Checkpoints need a durable boundary, so when one is due on a
		// pipelining node the window drains first — a periodic group
		// boundary.
		err = n.maybeSnapshot()
	}
	if err != nil {
		n.execMu.Unlock()
		n.release()
		return fmt.Errorf("node: %w", err)
	}
	return nil
}

// release gives a slot back: its block never sealed, or has its verdict.
func (n *Node) release() {
	n.mu.Lock()
	n.win.reserved--
	n.win.cond.Broadcast()
	n.mu.Unlock()
}

// seal advances the sealed head over an executed block — sealed, not yet
// durable — and registers the entry in the window before execMu drops, so
// rollback (which runs under execMu) always sees every sealed block.
// Sealed blocks count toward the snapshot cadence here. execMu guarantees
// the seal raced nobody, so the append cannot fail short of a bug or a
// mislinked WAL record; if it does the block is undone on the spot.
// Caller holds execMu and, outside recovery, a window slot.
func (n *Node) seal(e *inflightEntry) error {
	// The world sits at the block's post-state: this handle is what the
	// verdict will publish to readers.
	e.post = n.world.Snapshot()
	n.mu.Lock()
	err := n.chain.Append(e.block)
	if err == nil {
		n.win.inflight = append(n.win.inflight, e)
		n.tally[e.origin]++
		n.totalRetries += e.retries
	}
	n.mu.Unlock()
	if err != nil {
		n.world.Restore(e.snap)
		n.pool.RequeueBatch(e.sel)
		return fmt.Errorf("node: append: %w", err)
	}
	n.sinceSnap++
	return nil
}

// persist hands a sealed block to the WAL and sees to its verdict. On a
// window of 1 the append is inline and the verdict follows before persist
// returns; a failure rolls the block back without latching. On a deeper
// window the block joins the group-commit queue: a mined block returns at
// once, an imported one drains the queue — its own verdict is the last,
// since nothing seals behind it while it holds execMu. Caller holds
// execMu.
func (n *Node) persist(e *inflightEntry) error {
	if n.win.depth == 1 {
		if n.log != nil {
			// Persistence I/O runs under execMu alone: fsyncs must not
			// stall status queries on n.mu.
			if err := n.log.Append(e.block); err != nil {
				n.rollback()
				n.release()
				return fmt.Errorf("node: persist: %w", err)
			}
		}
		n.verdict(e)
		n.release()
		// Window empty, world at the durable head: a due checkpoint
		// writes now. (Nothing to drain, so nothing to fail.)
		_ = n.maybeSnapshot()
		return nil
	}
	n.mu.Lock()
	err := n.win.err
	if err == nil {
		n.win.queue = append(n.win.queue, e)
	} else {
		// Sealed while the failure landed: the failure's rollback, waiting
		// for our execMu, voids this block too (a shutdown runs none), so
		// its slot goes back now.
		n.win.reserved--
	}
	n.win.cond.Broadcast()
	n.mu.Unlock()
	if err == nil && e.origin != mined {
		err = n.drain()
	}
	if err != nil && e.origin != mined {
		return fmt.Errorf("node: persist: %w", err)
	}
	return nil
}

// commitLoop is the group-commit goroutine of a window deeper than 1: one
// AppendGroup — one fsync — for whatever queued while the previous one
// ran, so groups grow exactly when the disk is the bottleneck, then the
// verdicts in height order, publish hook included. It exits once the
// window has latched and its queue is empty.
func (n *Node) commitLoop() {
	defer close(n.win.stopped)
	for {
		n.mu.Lock()
		for len(n.win.queue) == 0 && n.win.err == nil {
			n.win.cond.Wait()
		}
		batch, err := n.win.queue, n.win.err
		n.win.queue, n.win.busy = nil, len(batch) > 0
		n.mu.Unlock()
		if len(batch) == 0 {
			return
		}
		if err == nil {
			blocks := make([]chain.Block, len(batch))
			for i, e := range batch {
				blocks[i] = e.block
			}
			err = n.log.AppendGroup(blocks)
		}
		if err == nil {
			for _, e := range batch {
				n.verdict(e)
				n.release()
			}
			batch = nil
		} else {
			batch = n.abort(batch, err)
		}
		// A failed group's slots go back only after its rollback, which is
		// what makes Flush wait for the rollback.
		n.mu.Lock()
		n.win.reserved -= len(batch)
		n.win.busy = false
		n.win.cond.Broadcast()
		n.mu.Unlock()
	}
}

// abort fails a group: the window latches, whatever is still queued fails
// with the group (a WAL with a hole after height h can never take h+2),
// and — if this was the first failure, not a shutdown — the one rollback
// runs under execMu. It returns every block that failed.
func (n *Node) abort(batch []*inflightEntry, err error) []*inflightEntry {
	n.mu.Lock()
	first := n.win.latch(err)
	batch = append(batch, n.win.queue...)
	n.win.queue = nil
	n.mu.Unlock()
	// An import draining the queue holds execMu; the latch has woken it.
	if first {
		n.execMu.Lock()
		n.rollback()
		n.execMu.Unlock()
	}
	return batch
}

// verdict makes one entry durable: it leaves the window, the durable
// height advances, the block's receipts become queryable and its event
// goes out — now, never at seal time: a crash between seal and this point
// voids the block, and served receipts must not outlive their block — and
// then a mined block goes to the peer publish hook, so a notified peer
// can immediately query its receipts here. Verdicts arrive serially in
// height order (inline under execMu, or from the one group-commit
// goroutine), which is what makes the event and publish ordering
// guarantees hold.
func (n *Node) verdict(e *inflightEntry) {
	n.mu.Lock()
	if len(n.win.inflight) > 0 && n.win.inflight[0] == e {
		// Clear the slot: the backing array outlives the pop, and the
		// entry keeps the pre-block version of the world reachable.
		n.win.inflight[0] = nil
		n.win.inflight = n.win.inflight[1:]
	}
	publish := n.publish
	n.mu.Unlock()
	n.markDurable(e.block.Header.Number, e.post)
	n.recordDurable(e)
	if e.origin == mined && publish != nil {
		publish(e.block)
	}
}

// recordDurable indexes a durable block's receipts and fans the block
// out to event-stream subscribers: one record for both, nothing rendered
// until a client reads. Only the verdict calls it — never for a
// sealed-not-durable block, which a crash could still void.
func (n *Node) recordDurable(e *inflightEntry) {
	rec := wire.RecordOf(e.block, e.txIDs)
	n.receipts.RecordBlock(rec)
	n.events.Publish(rec)
}

// markDurable publishes a new durable boundary — the height and the
// state as of that block, as one value — and stamps when it happened, the
// staleness clock behind the API's X-Chain-Staleness header. Every
// durable-height advance funnels through here, which is what lets a node
// that retains history keep the views it publishes: under history.mu, so
// the newest retained view is always the published one.
func (n *Node) markDurable(height uint64, state storage.Snapshot) {
	view := &durableView{height: height, state: state}
	n.history.mu.Lock()
	n.durable.Store(view)
	if n.history.on {
		n.history.push(view)
	}
	n.history.mu.Unlock()
	n.lastDurableAt.Store(time.Now().UnixMilli())
}

// rollback voids every sealed-not-durable block: the world goes back to
// the oldest one's pre-state, the chain rewinds under it, the tallies
// forget the blocks, and every mined batch returns to the pool at its
// original arrival position — which is why RequeueBatch merges by arrival
// order rather than trusting rollback order. Caller holds execMu, so it
// cannot race a seal; with nothing in the window it does nothing. The
// voided blocks' slots are the caller's to give back.
func (n *Node) rollback() {
	n.mu.Lock()
	entries := n.win.inflight
	n.win.inflight = nil
	if len(entries) > 0 {
		// Rewind cannot fail: sealed blocks sit strictly above the base.
		_ = n.chain.RewindTo(entries[0].block.Header.Number - 1)
	}
	for _, e := range entries {
		// The blocks' execution stats leave the tallies too, or
		// retries-per-mined-block reads would count phantom blocks.
		n.tally[e.origin]--
		n.totalRetries -= e.retries
	}
	n.mu.Unlock()
	if len(entries) == 0 {
		return
	}
	n.world.Restore(entries[0].snap)
	for _, e := range entries {
		n.pool.RequeueBatch(e.sel)
	}
	if n.sinceSnap -= len(entries); n.sinceSnap < 0 {
		n.sinceSnap = 0
	}
}

// drain waits until every queued block has had its verdict, or the
// window has latched. Caller holds execMu, so nothing new seals
// meanwhile; a parked block — sealed, never handed to persist — is not
// waited for.
func (n *Node) drain() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for (len(n.win.queue) > 0 || n.win.busy) && n.win.err == nil {
		n.win.cond.Wait()
	}
	return n.win.err
}

// Flush drains the window: it blocks until every sealed block has had its
// verdict or been rolled back, then reports the latch, if any. Do not
// call from a publish hook.
func (n *Node) Flush() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for n.win.reserved > 0 {
		n.win.cond.Wait()
	}
	if n.win.err != nil {
		return fmt.Errorf("node: %w", n.win.err)
	}
	return nil
}

// shut latches the window with persist.ErrClosed and waits out the
// group-commit goroutine, which fails whatever is still queued and exits.
// A shutdown is not a persist failure, so no rollback runs for it.
func (n *Node) shut() {
	n.mu.Lock()
	n.win.latch(persist.ErrClosed)
	n.mu.Unlock()
	if n.win.stopped != nil {
		<-n.win.stopped
	}
}
