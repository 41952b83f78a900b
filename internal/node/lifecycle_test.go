package node

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"contractstm/internal/api/wire"
	"contractstm/internal/chain"
	"contractstm/internal/engine"
	"contractstm/internal/persist"
	"contractstm/internal/txpool"
)

// The window's own behaviour, pinned on a node: back-pressure, slots,
// the latch and its one rollback, group commit and verdict order.

// holdFirstVerdict is a publish hook that parks the group-commit
// goroutine inside block 1's verdict until release, so the blocks mined
// meanwhile queue behind it as one group. entered closes once the
// goroutine is parked; published records every height the hook saw.
type holdFirstVerdict struct {
	entered, hold chan struct{}
	once          sync.Once
	mu            sync.Mutex
	published     []uint64
}

func newHoldFirstVerdict() *holdFirstVerdict {
	return &holdFirstVerdict{entered: make(chan struct{}), hold: make(chan struct{})}
}

func (h *holdFirstVerdict) publish(b chain.Block) {
	h.mu.Lock()
	h.published = append(h.published, b.Header.Number)
	h.mu.Unlock()
	if b.Header.Number == 1 {
		close(h.entered)
		<-h.hold
	}
}

// release lets the parked verdict go on. Tests also defer it, so a
// failing test does not leave the goroutine parked under Kill.
func (h *holdFirstVerdict) release() { h.once.Do(func() { close(h.hold) }) }

func (h *holdFirstVerdict) heights() []uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.published...)
}

// TestWindowBackPressure: a block holds its slot from enter until its
// verdict, so with two seals parked on a depth-2 node a third MineOne
// waits until persist gives a parked block its verdict.
func TestWindowBackPressure(t *testing.T) {
	n, calls := pipeNode(t, engine.KindSerial, t.TempDir(), 2, persist.Options{SnapshotEvery: -1}, nil)
	defer n.Kill()
	n.SubmitAll(calls)
	for h := 1; h <= 2; h++ {
		if _, err := n.mineOne(recBlockSize, false); err != nil {
			t.Fatalf("seal %d: %v", h, err)
		}
	}
	mined := make(chan error, 1)
	go func() {
		_, err := n.MineOne(recBlockSize)
		mined <- err
	}()
	select {
	case err := <-mined:
		t.Fatalf("third MineOne slipped past a full window: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	// persist's caller holds execMu; holding it across both parked blocks
	// keeps the WAL in chain order against the third block, which wants
	// execMu as soon as the first verdict frees a slot.
	n.execMu.Lock()
	n.mu.Lock()
	parked := append([]*inflightEntry(nil), n.win.inflight...)
	n.mu.Unlock()
	for _, e := range parked {
		if err := n.persist(e); err != nil {
			t.Fatalf("persist %d: %v", e.block.Header.Number, err)
		}
	}
	n.execMu.Unlock()
	select {
	case err := <-mined:
		if err != nil {
			t.Fatalf("third MineOne: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("third MineOne still blocked after the parked blocks' verdicts")
	}
	if err := n.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if st := n.CurrentStatus(); st.Height != 3 || st.DurableHeight != 3 || st.InFlight != 0 {
		t.Fatalf("status after the drain: %+v", st)
	}
}

// TestWindowReleaseFreesSlot: a slot taken by a block that never seals —
// a mine over an empty pool, an import refused on linkage — goes back, so
// a window of 1 keeps mining.
func TestWindowReleaseFreesSlot(t *testing.T) {
	n, calls := pipeNode(t, engine.KindSerial, t.TempDir(), 1, persist.Options{SnapshotEvery: -1}, nil)
	defer n.Close()
	if _, err := n.MineOne(recBlockSize); !errors.Is(err, txpool.ErrEmpty) {
		t.Fatalf("mine over an empty pool: %v", err)
	}
	if err := n.AcceptBlock(chain.Block{Header: chain.Header{Number: 5}}); !errors.Is(err, chain.ErrBadNumber) {
		t.Fatalf("mislinked import: %v", err)
	}
	n.mu.Lock()
	reserved := n.win.reserved
	n.mu.Unlock()
	if reserved != 0 {
		t.Fatalf("%d slots still held by blocks that never sealed", reserved)
	}
	n.SubmitAll(calls)
	if _, err := n.MineOne(recBlockSize); err != nil {
		t.Fatalf("mine after the released slots: %v", err)
	}
	if st := n.CurrentStatus(); st.Height != 1 || st.DurableHeight != 1 {
		t.Fatalf("status: %+v", st)
	}
}

// TestWindowFailureRollsBackStraggler: the first failed group latches the
// window, and its one rollback also voids a straggler — a block that
// passed enter's latch check before the failure landed and sealed after
// it. The straggler runs enter and then the mine stages by hand, so the
// failure lands exactly in between.
func TestWindowFailureRollsBackStraggler(t *testing.T) {
	n, calls := pipeNode(t, engine.KindSerial, t.TempDir(), 4, persist.Options{SnapshotEvery: -1}, nil)
	defer n.Kill()
	n.SubmitAll(calls)
	if _, err := n.MineOne(recBlockSize); err != nil {
		t.Fatalf("mine 1: %v", err)
	}
	if err := n.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	root1, err := n.world.StateRoot()
	if err != nil {
		t.Fatalf("state root: %v", err)
	}
	if _, err := n.mineOne(recBlockSize, false); err != nil {
		t.Fatalf("seal 2: %v", err)
	}
	if err := n.log.Close(); err != nil {
		t.Fatalf("sabotage: %v", err)
	}

	// The straggler enters while nothing has failed yet.
	if err := n.enter(); err != nil {
		t.Fatalf("straggler enter: %v", err)
	}
	// Block 2's group fails on the closed WAL; its rollback now waits for
	// the straggler's execMu.
	n.mu.Lock()
	parked := n.win.inflight[0]
	n.mu.Unlock()
	if err := n.persist(parked); err != nil {
		t.Fatalf("persist 2: %v", err)
	}
	n.mu.Lock()
	for n.win.err == nil {
		n.win.cond.Wait()
	}
	n.mu.Unlock()
	e, _, err := n.mineEntry(recBlockSize)
	if err == nil {
		err = n.seal(e)
	}
	if err != nil {
		t.Fatalf("straggler seal: %v", err)
	}
	if err := n.persist(e); err != nil {
		t.Fatalf("straggler persist: %v", err)
	}
	if h := n.Height(); h != 3 {
		t.Fatalf("straggler sealed height %d, want 3", h)
	}
	n.execMu.Unlock()

	if err := n.Flush(); !errors.Is(err, errLatched) || !errors.Is(err, persist.ErrClosed) {
		t.Fatalf("flush: %v, want the latch wrapping persist.ErrClosed", err)
	}
	if st := n.CurrentStatus(); st.Height != 1 || st.DurableHeight != 1 || st.InFlight != 0 || st.MinedBlocks != 1 {
		t.Fatalf("status after the rollback: %+v", st)
	}
	if root, _ := n.world.StateRoot(); root != root1 {
		t.Fatal("world not back at block 1's state")
	}
	pending, want := n.pool.PendingCalls(), calls[recBlockSize:]
	if len(pending) != len(want) {
		t.Fatalf("pool holds %d calls after the rollback, want %d", len(pending), len(want))
	}
	for i := range want {
		if wire.TxIDOf(pending[i]) != wire.TxIDOf(want[i]) {
			t.Fatalf("pool order broken at %d after the rollback", i)
		}
	}
	if _, err := n.MineOne(recBlockSize); !errors.Is(err, errLatched) {
		t.Fatalf("mine on a latched window: %v", err)
	}
}

// TestWindowKillRunsNoRollback: Kill latches the window without a
// rollback — a crashed node's memory is nobody's business, only its WAL
// speaks — so a parked sealed-not-durable block stays sealed and its
// calls stay out of the pool; the block is refused at persist, not
// queued, and recovery lands on the durable prefix.
func TestWindowKillRunsNoRollback(t *testing.T) {
	dir := t.TempDir()
	opts := persist.Options{SnapshotEvery: -1}
	n, calls := pipeNode(t, engine.KindSerial, dir, 2, opts, nil)
	n.SubmitAll(calls)
	if _, err := n.MineOne(recBlockSize); err != nil {
		t.Fatalf("mine 1: %v", err)
	}
	if err := n.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if _, err := n.mineOne(recBlockSize, false); err != nil {
		t.Fatalf("seal 2: %v", err)
	}
	poolLen := n.PoolLen()
	n.Kill()
	n.execMu.Lock()
	n.mu.Lock()
	parked := n.win.inflight[0]
	n.mu.Unlock()
	err := n.persist(parked)
	n.execMu.Unlock()
	if err != nil {
		t.Fatalf("persist after Kill: %v", err)
	}
	if err := n.Flush(); !errors.Is(err, errLatched) || !errors.Is(err, persist.ErrClosed) {
		t.Fatalf("flush after Kill: %v, want the latch wrapping persist.ErrClosed", err)
	}
	if st := n.CurrentStatus(); st.Height != 2 || st.DurableHeight != 1 || st.InFlight != 1 || n.PoolLen() != poolLen {
		t.Fatalf("Kill rolled back: %+v, pool %d (was %d)", st, n.PoolLen(), poolLen)
	}
	if _, err := n.MineOne(recBlockSize); !errors.Is(err, errLatched) {
		t.Fatalf("mine after Kill: %v", err)
	}
	re, _ := pipeNode(t, engine.KindSerial, dir, 2, opts, nil)
	defer re.Close()
	if h := re.Height(); h != 1 {
		t.Fatalf("recovered to height %d, want the durable prefix 1", h)
	}
}

// TestWindowVerdictsInHeightOrder: with fsyncs overlapping execution on a
// depth-4 node, every block gets exactly one verdict and they arrive in
// height order — the publish hook and the event stream both see 1..n —
// the WAL takes every block, and a reopened node recovers the whole run.
func TestWindowVerdictsInHeightOrder(t *testing.T) {
	dir := t.TempDir()
	opts := persist.Options{SyncEvery: 1, SnapshotEvery: -1}
	var mu sync.Mutex
	var published []uint64
	n, calls := pipeNode(t, engine.KindSerial, dir, 4, opts, func(b chain.Block) {
		mu.Lock()
		published = append(published, b.Header.Number)
		mu.Unlock()
	})
	n.SubmitAll(calls)
	if mined, err := n.MinePipelined(recBlocks, recBlockSize); err != nil || mined != recBlocks {
		t.Fatalf("mined %d blocks: %v", mined, err)
	}
	mu.Lock()
	if len(published) != recBlocks {
		t.Fatalf("%d verdicts published for %d blocks", len(published), recBlocks)
	}
	for i, h := range published {
		if h != uint64(i+1) {
			t.Fatalf("verdict %d published height %d", i, h)
		}
	}
	mu.Unlock()
	clientView(t, "depth 4", n, calls)
	st := n.CurrentStatus()
	if st.WalAppends != recBlocks || st.WalFsyncs < 1 || st.WalFsyncs > recBlocks || st.WalBytesWritten == 0 {
		t.Fatalf("WAL metrics: %d appends, %d fsyncs, %d bytes", st.WalAppends, st.WalFsyncs, st.WalBytesWritten)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re, _ := pipeNode(t, engine.KindSerial, dir, 4, opts, nil)
	defer re.Close()
	if got := re.RecoveredBlocks(); got != recBlocks {
		t.Fatalf("recovered %d blocks, want %d", got, recBlocks)
	}
}

// TestWindowGroupCommitOneFsync: whatever queues while the group-commit
// goroutine is busy lands as one group under one fsync. The goroutine is
// held inside block 1's verdict while blocks 2–4 queue behind it.
func TestWindowGroupCommitOneFsync(t *testing.T) {
	h := newHoldFirstVerdict()
	n, calls := pipeNode(t, engine.KindSerial, t.TempDir(), 4, persist.Options{SyncEvery: 1, SnapshotEvery: -1}, h.publish)
	defer n.Close()
	defer h.release()
	n.SubmitAll(calls)
	if _, err := n.MineOne(recBlockSize); err != nil {
		t.Fatalf("mine 1: %v", err)
	}
	<-h.entered
	before := n.CurrentStatus()
	for b := 2; b <= 4; b++ {
		if _, err := n.MineOne(recBlockSize); err != nil {
			t.Fatalf("mine %d: %v", b, err)
		}
	}
	h.release()
	if err := n.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	after := n.CurrentStatus()
	if after.WalAppends != 4 || after.WalGroupCommits != 1 || after.WalMaxGroup != 3 {
		t.Fatalf("group commits %d (max %d) over %d appends, want one group of 3 after block 1",
			after.WalGroupCommits, after.WalMaxGroup, after.WalAppends)
	}
	if got := after.WalFsyncs - before.WalFsyncs; got != 1 {
		t.Fatalf("%d fsyncs for one group, want 1", got)
	}
	if got := h.heights(); len(got) != 4 || got[3] != 4 {
		t.Fatalf("published %v, want 1..4", got)
	}
}

// TestWindowImportWaitsForItsVerdict: an import on a deep window queues
// behind the mined block ahead of it and returns only once it is durable,
// receipts recorded; when its own group fails it reports the failure and
// the rollback voids it.
func TestWindowImportWaitsForItsVerdict(t *testing.T) {
	ref, refCalls := recNode(t, engine.KindSerial, "", persist.Options{})
	ref.SubmitAll(refCalls)
	var blocks []chain.Block
	for b := 1; b <= 3; b++ {
		blk, err := ref.MineOne(recBlockSize)
		if err != nil {
			t.Fatalf("reference mine %d: %v", b, err)
		}
		blocks = append(blocks, blk)
	}
	h := newHoldFirstVerdict()
	n, calls := pipeNode(t, engine.KindSerial, t.TempDir(), 4, persist.Options{SnapshotEvery: -1}, h.publish)
	defer n.Kill()
	defer h.release()
	n.SubmitAll(calls)
	if b, err := n.MineOne(recBlockSize); err != nil || b.Header.Hash() != blocks[0].Header.Hash() {
		t.Fatalf("mine 1: %v (or a block unlike the reference's)", err)
	}
	<-h.entered
	accepted := make(chan error, 1)
	go func() { accepted <- n.AcceptBlock(blocks[1]) }()
	select {
	case err := <-accepted:
		t.Fatalf("import returned while the verdict ahead of it was held: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	h.release()
	if err := <-accepted; err != nil {
		t.Fatalf("import 2: %v", err)
	}
	if st := n.CurrentStatus(); st.DurableHeight != 2 || st.ValidatedBlocks != 1 {
		t.Fatalf("status after the import: %+v", st)
	}
	if rec, _ := n.receipts.Get(wire.TxIDOf(blocks[1].Calls[0])); rec.BlockHeight != 2 {
		t.Fatalf("import returned before its receipts were recorded: %+v", rec)
	}

	if err := n.log.Close(); err != nil {
		t.Fatalf("sabotage: %v", err)
	}
	err := n.AcceptBlock(blocks[2])
	if err == nil || !strings.HasPrefix(err.Error(), "node: persist: ") || !errors.Is(err, persist.ErrClosed) {
		t.Fatalf("import over a closed WAL: %v, want node: persist: … wrapping persist.ErrClosed", err)
	}
	if err := n.Flush(); !errors.Is(err, errLatched) {
		t.Fatalf("flush: %v, want the latch", err)
	}
	if st := n.CurrentStatus(); st.Height != 2 || st.DurableHeight != 2 || st.InFlight != 0 || st.ValidatedBlocks != 1 {
		t.Fatalf("status after the failed import: %+v", st)
	}
}

// TestWindowFailedGroupFailsSuffix: a group that fails fails as a whole,
// and the latch refuses everything after it — a WAL with a hole after
// height h can never take h+2 — so no block of the failed suffix is
// durable, receipted or published, and the reopened WAL holds exactly
// the durable prefix.
func TestWindowFailedGroupFailsSuffix(t *testing.T) {
	dir := t.TempDir()
	opts := persist.Options{SyncEvery: 1, SnapshotEvery: -1}
	h := newHoldFirstVerdict()
	n, calls := pipeNode(t, engine.KindSerial, dir, 4, opts, h.publish)
	defer h.release()
	n.SubmitAll(calls)
	if _, err := n.MineOne(recBlockSize); err != nil {
		t.Fatalf("mine 1: %v", err)
	}
	<-h.entered
	for b := 2; b <= 4; b++ {
		if _, err := n.MineOne(recBlockSize); err != nil {
			t.Fatalf("mine %d: %v", b, err)
		}
	}
	// The disk dies under the queued group.
	if err := n.log.Close(); err != nil {
		t.Fatalf("sabotage: %v", err)
	}
	h.release()
	if err := n.Flush(); !errors.Is(err, errLatched) || !errors.Is(err, persist.ErrClosed) {
		t.Fatalf("flush: %v, want the latch wrapping persist.ErrClosed", err)
	}
	if st := n.CurrentStatus(); st.Height != 1 || st.DurableHeight != 1 || st.InFlight != 0 {
		t.Fatalf("status after the failed group: %+v", st)
	}
	if got := h.heights(); len(got) != 1 || n.events.NextSeq() != 1 {
		t.Fatalf("published %v with %d events, want block 1 alone", got, n.events.NextSeq())
	}
	for _, c := range calls[recBlockSize:] {
		if rec, _ := n.receipts.Get(wire.TxIDOf(c)); rec.BlockHeight != 0 {
			t.Fatalf("receipt recorded for a failed block: %+v", rec)
		}
	}
	if _, err := n.MineOne(recBlockSize); !errors.Is(err, errLatched) {
		t.Fatalf("mine after the failed group: %v", err)
	}
	n.Kill()
	re, _ := pipeNode(t, engine.KindSerial, dir, 4, opts, nil)
	defer re.Close()
	if h := re.Height(); h != 1 {
		t.Fatalf("recovered to height %d, want the durable prefix 1", h)
	}
}
