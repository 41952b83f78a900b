package node

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"contractstm/internal/api/wire"
	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/persist"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

// pipeNode builds a durable pipelined node over the deterministic
// recovery world, with a recording publish hook.
func pipeNode(t *testing.T, ek engine.Kind, dataDir string, depth int, opts persist.Options, pub func(chain.Block)) (*Node, []contract.Call) {
	t.Helper()
	world, calls := recWorld(t)
	n, err := New(Config{
		World: world, Workers: 3, Engine: ek,
		Runner:  runtime.NewSimRunner(),
		DataDir: dataDir, Persist: opts,
		PipelineDepth: depth, Publish: pub,
	})
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}
	return n, calls
}

// refChain mines the uninterrupted reference run synchronously and
// returns per-height head hashes and state roots.
func refChain(t *testing.T, ek engine.Kind) ([]types.Hash, []types.Hash) {
	t.Helper()
	ref, calls := recNode(t, ek, "", persist.Options{})
	ref.SubmitAll(calls)
	heads := make([]types.Hash, recBlocks+1)
	roots := make([]types.Hash, recBlocks+1)
	heads[0], roots[0] = headAndRoot(ref)
	for b := 1; b <= recBlocks; b++ {
		if _, err := ref.MineOne(recBlockSize); err != nil {
			t.Fatalf("reference mine %d: %v", b, err)
		}
		heads[b], roots[b] = headAndRoot(ref)
	}
	return heads, roots
}

// clientView is what a node has told its clients about the recovery
// world's run: every call's receipt — after checking that the broker
// published exactly one event per height, in height order (NextSeq counts
// them; the replay ring still holds all but the first).
func clientView(t *testing.T, label string, n *Node, calls []contract.Call) []wire.TxReceipt {
	t.Helper()
	if got := n.events.NextSeq(); got != recBlocks {
		t.Fatalf("%s: %d broker events for %d blocks", label, got, recBlocks)
	}
	evs, complete := n.events.Replay(0)
	if !complete || len(evs) != recBlocks-1 {
		t.Fatalf("%s: replay ring holds %d events (complete=%v), want %d", label, len(evs), complete, recBlocks-1)
	}
	for i, ev := range evs {
		if ev.Block.Number != uint64(i+2) {
			t.Fatalf("%s: event %d is for height %d, want %d", label, i+1, ev.Block.Number, i+2)
		}
	}
	recs := make([]wire.TxReceipt, len(calls))
	for i, c := range calls {
		rec, ok := n.receipts.Get(wire.TxIDOf(c))
		if !ok || rec.Status == wire.StatusPending {
			t.Fatalf("%s: call %d has no final receipt (%+v)", label, i, rec)
		}
		recs[i] = rec
	}
	return recs
}

// pollStatus reads CurrentStatus in a loop beside whatever the test does
// next, until the returned stop is called: no reader may ever see a
// durable height above the sealed one.
func pollStatus(t *testing.T, label string, n *Node) (stop func()) {
	t.Helper()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if st := n.CurrentStatus(); st.DurableHeight > st.Height {
				t.Errorf("%s: status shows durable height %d above height %d", label, st.DurableHeight, st.Height)
				return
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// TestPipelineDepthParity: one lifecycle, three entry points. For every
// engine, mining through a window of 1, 2 and 4 produces bit-identical
// blocks to the in-memory reference run — the window overlaps stages, it
// must not reorder or alter them — and publishes every block exactly
// once, in height order. A follower importing the same blocks through
// AcceptBlock, and a node recovering them from its WAL, then tell their
// clients exactly what the miners told theirs: the same receipts, one
// event per height, and never a durable height above the sealed one.
func TestPipelineDepthParity(t *testing.T) {
	for _, ek := range engine.Kinds() {
		ek := ek
		t.Run(ek.String(), func(t *testing.T) {
			t.Parallel()
			refHeads, refRoots := refChain(t, ek)
			var refView []wire.TxReceipt
			sameView := func(label string, n *Node, calls []contract.Call) {
				t.Helper()
				view := clientView(t, label, n, calls)
				if refView == nil {
					refView = view
				}
				if !reflect.DeepEqual(view, refView) {
					t.Fatalf("%s: receipts differ from the depth-1 miner's", label)
				}
			}
			var blocks []chain.Block
			for _, depth := range []int{1, 2, 4} {
				label := fmt.Sprintf("depth %d", depth)
				var mu sync.Mutex
				var published []uint64
				pub := func(b chain.Block) {
					mu.Lock()
					published = append(published, b.Header.Number)
					mu.Unlock()
				}
				n, calls := pipeNode(t, ek, t.TempDir(), depth, persist.Options{SnapshotEvery: 2}, pub)
				n.SubmitAll(calls)
				stop := pollStatus(t, label, n)
				mined, err := n.MinePipelined(recBlocks, recBlockSize)
				stop()
				if err != nil {
					t.Fatalf("depth %d: %v", depth, err)
				}
				if mined != recBlocks {
					t.Fatalf("depth %d: mined %d blocks, want %d", depth, mined, recBlocks)
				}
				if h, r := headAndRoot(n); h != refHeads[recBlocks] || r != refRoots[recBlocks] {
					t.Fatalf("depth %d: chain diverged from synchronous reference", depth)
				}
				st := n.CurrentStatus()
				if st.DurableHeight != uint64(recBlocks) {
					t.Fatalf("depth %d: durable height %d after flush, want %d", depth, st.DurableHeight, recBlocks)
				}
				wantDepth := depth
				if depth == 1 {
					wantDepth = 0 // the synchronous node reports no pipeline
				}
				if st.PipelineDepth != wantDepth || st.InFlight != 0 {
					t.Fatalf("depth %d: status pipeline %d in-flight %d", depth, st.PipelineDepth, st.InFlight)
				}
				mu.Lock()
				if len(published) != recBlocks {
					t.Fatalf("depth %d: published %d blocks, want %d", depth, len(published), recBlocks)
				}
				for i, h := range published {
					if h != uint64(i+1) {
						t.Fatalf("depth %d: publish order %v", depth, published)
					}
				}
				mu.Unlock()
				sameView(label, n, calls)
				blocks = blocks[:0]
				for h := uint64(1); h <= recBlocks; h++ {
					b, _ := n.BlockAt(h)
					blocks = append(blocks, b)
				}
				if err := n.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
			}

			// Imported: a durable follower that never snapshots, so its WAL
			// keeps the whole run for the recovery below.
			dir, opts := t.TempDir(), persist.Options{SnapshotEvery: -1}
			follower, calls := recNode(t, ek, dir, opts)
			stop := pollStatus(t, "imported", follower)
			for _, b := range blocks {
				if err := follower.AcceptBlock(b); err != nil {
					stop()
					t.Fatalf("imported: block %d: %v", b.Header.Number, err)
				}
			}
			stop()
			sameView("imported", follower, calls)
			follower.Kill()

			// Recovered: New replays the four blocks from the WAL.
			re, calls := recNode(t, ek, dir, opts)
			defer re.Close()
			if got := re.RecoveredBlocks(); got != recBlocks {
				t.Fatalf("recovered %d blocks from the WAL, want %d", got, recBlocks)
			}
			if h, r := headAndRoot(re); h != refHeads[recBlocks] || r != refRoots[recBlocks] {
				t.Fatal("recovered chain diverged from synchronous reference")
			}
			sameView("recovered", re, calls)
		})
	}
}

// TestPipelineCrashRecoveryEveryStage is the pipelined extension of the
// crash-recovery property test: for every engine, at every block height,
// kill the node at each pipeline stage —
//
//	sealed-not-durable:   the block executed and advanced the sealed
//	                      chain, but its WAL record never got its fsync;
//	durable-not-published: the WAL record is durable but no peer was told.
//
// Recovery must come back to a prefix of the sealed chain — exactly the
// durable prefix — and mining on from there must reproduce the reference
// run block for block.
func TestPipelineCrashRecoveryEveryStage(t *testing.T) {
	for _, ek := range engine.Kinds() {
		ek := ek
		t.Run(ek.String(), func(t *testing.T) {
			t.Parallel()
			refHeads, refRoots := refChain(t, ek)
			opts := persist.Options{SnapshotEvery: 2}
			for kill := 1; kill <= recBlocks; kill++ {
				for _, stage := range []string{"sealed-not-durable", "durable-not-published"} {
					dir := t.TempDir()
					n, calls := pipeNode(t, ek, dir, 2, opts, nil)
					n.SubmitAll(calls)
					// Mine the fully-settled prefix.
					for b := 1; b < kill; b++ {
						if _, err := n.MineOne(recBlockSize); err != nil {
							t.Fatalf("kill=%d %s: mine %d: %v", kill, stage, b, err)
						}
					}
					if err := n.Flush(); err != nil {
						t.Fatalf("kill=%d %s: flush: %v", kill, stage, err)
					}

					// The kill block stops at the stage under test.
					durableWant := kill - 1
					switch stage {
					case "sealed-not-durable":
						// Seal block `kill` but never hand it to the persist
						// stage: the WAL must not know it.
						if _, err := n.mineOne(recBlockSize, false); err != nil {
							t.Fatalf("kill=%d: seal: %v", kill, err)
						}
					case "durable-not-published":
						// Fully persist block `kill`; the publish hook is nil,
						// so no peer ever heard of it — recovery must keep it
						// anyway, because the WAL speaks, not the gossip.
						if _, err := n.MineOne(recBlockSize); err != nil {
							t.Fatalf("kill=%d: mine: %v", kill, err)
						}
						if err := n.Flush(); err != nil {
							t.Fatalf("kill=%d: flush: %v", kill, err)
						}
						durableWant = kill
					}
					sealedHead, _ := headAndRoot(n)
					if sealedHead != refHeads[kill] {
						t.Fatalf("kill=%d %s: sealed head diverged from reference", kill, stage)
					}
					n.Kill()

					re, calls := pipeNode(t, ek, dir, 2, opts, nil)
					gotHead, gotRoot := headAndRoot(re)
					if gotHead != refHeads[durableWant] || gotRoot != refRoots[durableWant] {
						t.Fatalf("kill=%d %s: recovered to head %s, want durable prefix at height %d",
							kill, stage, gotHead.Short(), durableWant)
					}
					// The crash lost the pool; resubmit the unmined suffix
					// (FIFO consumed durableWant*blockSize calls) and mine the
					// rest of the reference chain through the pipeline.
					re.SubmitAll(calls[durableWant*recBlockSize:])
					if _, err := re.MinePipelined(recBlocks-durableWant, recBlockSize); err != nil {
						t.Fatalf("kill=%d %s: post-recovery mine: %v", kill, stage, err)
					}
					if h, r := headAndRoot(re); h != refHeads[recBlocks] || r != refRoots[recBlocks] {
						t.Fatalf("kill=%d %s: post-recovery chain diverged", kill, stage)
					}
					if err := re.Close(); err != nil {
						t.Fatalf("close: %v", err)
					}
				}
			}
		})
	}
}

// TestPipelineAbortRollsBack: a persist failure mid-pipeline voids the
// sealed-not-durable suffix — the chain rewinds to the durable prefix,
// the world matches it, the aborted calls come back in arrival order, and
// the pipeline refuses further mining with the latched error.
func TestPipelineAbortRollsBack(t *testing.T) {
	dir := t.TempDir()
	n, calls := pipeNode(t, engine.KindSerial, dir, 3, persist.Options{SnapshotEvery: -1}, nil)
	n.SubmitAll(calls)
	if _, err := n.MineOne(recBlockSize); err != nil {
		t.Fatalf("mine 1: %v", err)
	}
	if err := n.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Sabotage the WAL under the writer: the next persist verdict fails.
	if err := n.log.Close(); err != nil {
		t.Fatalf("sabotage: %v", err)
	}
	// Mine until the failure surfaces (the seal itself may succeed — the
	// verdict is asynchronous).
	for i := 0; i < 10; i++ {
		if _, err := n.MineOne(recBlockSize); err != nil {
			break
		}
	}
	if err := n.Flush(); err == nil {
		t.Fatal("flush reported success over a closed WAL")
	}
	// Rolled back to the durable prefix.
	if got := n.Height(); got != 1 {
		t.Fatalf("height %d after abort, want durable prefix 1", got)
	}
	st := n.CurrentStatus()
	if st.DurableHeight != 1 || st.InFlight != 0 {
		t.Fatalf("status durable %d in-flight %d after abort", st.DurableHeight, st.InFlight)
	}
	// Every call beyond block 1 is back, in arrival order.
	pending := n.pool.PendingCalls()
	want := calls[recBlockSize:]
	if len(pending) != len(want) {
		t.Fatalf("pool holds %d calls after abort, want %d", len(pending), len(want))
	}
	for i := range want {
		if pending[i].Sender != want[i].Sender || pending[i].Function != want[i].Function {
			t.Fatalf("pool order broken at %d after abort", i)
		}
	}
	// Latched: no new blocks.
	if _, err := n.MineOne(recBlockSize); err == nil {
		t.Fatal("latched pipeline kept mining")
	}
}

// TestWindowOnePersistFailureRollsBackUnlatched: on a window-1 durable
// node a failed WAL append — under MineOne and under AcceptBlock — is
// reported as "node: persist: …" and leaves no trace: height, durable
// height, tallies and world root stay put, a mined batch returns to the
// pool in arrival order, no receipt is recorded and no event or publish
// goes out. Unlike the asynchronous window, nothing latches: the next
// attempt is tried (and fails on the same disk), not refused.
func TestWindowOnePersistFailureRollsBackUnlatched(t *testing.T) {
	ref, refCalls := recNode(t, engine.KindSerial, "", persist.Options{})
	ref.SubmitAll(refCalls)
	var blocks []chain.Block
	for b := 1; b <= 2; b++ {
		blk, err := ref.MineOne(recBlockSize)
		if err != nil {
			t.Fatalf("reference mine %d: %v", b, err)
		}
		blocks = append(blocks, blk)
	}
	for _, entry := range []string{"MineOne", "AcceptBlock"} {
		t.Run(entry, func(t *testing.T) {
			published := 0
			n, calls := pipeNode(t, engine.KindSerial, t.TempDir(), 1, persist.Options{SnapshotEvery: -1},
				func(chain.Block) { published++ })
			defer n.Kill()
			// Block 1 settles normally; the attempt at block 2 is under test.
			attempt := func() error { return n.AcceptBlock(blocks[1]) }
			if entry == "MineOne" {
				n.SubmitAll(calls)
				attempt = func() error { _, err := n.MineOne(recBlockSize); return err }
				if _, err := n.MineOne(recBlockSize); err != nil {
					t.Fatalf("mine 1: %v", err)
				}
			} else if err := n.AcceptBlock(blocks[0]); err != nil {
				t.Fatalf("accept 1: %v", err)
			}
			before, beforePub, beforeEvents := n.CurrentStatus(), published, n.events.NextSeq()
			beforeRoot, err := n.world.StateRoot()
			if err != nil {
				t.Fatalf("state root: %v", err)
			}
			if err := n.log.Close(); err != nil {
				t.Fatalf("sabotage: %v", err)
			}

			for try := 1; try <= 2; try++ {
				err := attempt()
				if err == nil || !strings.HasPrefix(err.Error(), "node: persist: ") || errors.Is(err, errLatched) {
					t.Fatalf("attempt %d over a closed WAL: %v, want node: persist: …", try, err)
				}
				after := n.CurrentStatus()
				if after.Height != before.Height || after.DurableHeight != before.DurableHeight || after.InFlight != 0 ||
					after.MinedBlocks != before.MinedBlocks || after.ValidatedBlocks != before.ValidatedBlocks ||
					after.TotalRetries != before.TotalRetries || after.HeadHash != before.HeadHash {
					t.Fatalf("attempt %d moved the node: %+v, was %+v", try, after, before)
				}
				if root, _ := n.world.StateRoot(); root != beforeRoot {
					t.Fatalf("attempt %d changed the world state", try)
				}
				if rec, _ := n.receipts.Get(wire.TxIDOf(blocks[1].Calls[0])); rec.BlockHeight != 0 {
					t.Fatalf("attempt %d recorded a receipt for the voided block: %+v", try, rec)
				}
				if published != beforePub || n.events.NextSeq() != beforeEvents {
					t.Fatalf("attempt %d announced the voided block", try)
				}
				if entry == "MineOne" {
					pending, want := n.pool.PendingCalls(), calls[recBlockSize:]
					if len(pending) != len(want) {
						t.Fatalf("attempt %d: pool holds %d calls, want %d", try, len(pending), len(want))
					}
					for i := range want {
						if wire.TxIDOf(pending[i]) != wire.TxIDOf(want[i]) {
							t.Fatalf("attempt %d: pool order broken at %d", try, i)
						}
					}
				}
			}
		})
	}
}

// TestPipelineStatusSealedVsDurable: the status surface distinguishes the
// sealed head from the durable head while a block is in flight.
func TestPipelineStatusSealedVsDurable(t *testing.T) {
	dir := t.TempDir()
	n, calls := pipeNode(t, engine.KindSerial, dir, 2, persist.Options{SnapshotEvery: -1}, nil)
	n.SubmitAll(calls)
	entryBlock, err := n.mineOne(recBlockSize, false)
	if err != nil {
		t.Fatalf("seal: %v", err)
	}
	st := n.CurrentStatus()
	if st.Height != 1 || st.DurableHeight != 0 || st.InFlight != 1 {
		t.Fatalf("sealed-not-durable status: height %d durable %d in-flight %d",
			st.Height, st.DurableHeight, st.InFlight)
	}
	// Resume the parked persist stage and drain.
	n.mu.Lock()
	entry := n.win.inflight[0]
	n.mu.Unlock()
	if entry.block.Header.Hash() != entryBlock.Header.Hash() {
		t.Fatal("in-flight registry holds a different block")
	}
	n.persist(entry)
	if err := n.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	st = n.CurrentStatus()
	if st.Height != 1 || st.DurableHeight != 1 || st.InFlight != 0 {
		t.Fatalf("drained status: height %d durable %d in-flight %d",
			st.Height, st.DurableHeight, st.InFlight)
	}
	if st.WalFsyncs == 0 || st.WalAppends != 1 || st.WalBytesWritten == 0 {
		t.Fatalf("WAL metrics missing: %+v", st)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestPipelineSnapshotNowIsDurableBounded: a checkpoint served to a
// fast-syncing joiner must never describe state the miner could lose in
// a crash. On a durable node SnapshotNow always has a persisted snapshot
// to serve (openDurable checkpoints genesis unconditionally), which is
// durable by construction; the live-encode fallback additionally drains
// the pipeline window before encoding, as defense in depth. Either way
// the served height must not exceed the durable height.
func TestPipelineSnapshotNowIsDurableBounded(t *testing.T) {
	dir := t.TempDir()
	n, calls := pipeNode(t, engine.KindSerial, dir, 2, persist.Options{SnapshotEvery: -1}, nil)
	n.SubmitAll(calls)
	// Mine without flushing: the block's fsync is (at best) racing us.
	if _, err := n.MineOne(recBlockSize); err != nil {
		t.Fatalf("mine: %v", err)
	}
	s, err := n.SnapshotNow()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if durable := n.CurrentStatus().DurableHeight; s.Height() > durable {
		t.Fatalf("served snapshot at height %d above durable height %d", s.Height(), durable)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestPipelineDepthOneIsSynchronous: PipelineDepth 1 must not change
// MineOne's contract — durable before return, no in-flight window.
func TestPipelineDepthOneIsSynchronous(t *testing.T) {
	dir := t.TempDir()
	n, calls := recNode(t, engine.KindSerial, dir, persist.Options{})
	n.SubmitAll(calls)
	if _, err := n.MineOne(recBlockSize); err != nil {
		t.Fatalf("mine: %v", err)
	}
	st := n.CurrentStatus()
	if st.DurableHeight != st.Height {
		t.Fatalf("synchronous node: durable %d != height %d", st.DurableHeight, st.Height)
	}
	if st.PipelineDepth != 0 || st.InFlight != 0 {
		t.Fatalf("synchronous node reports a pipeline: %+v", st)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Sanity for the non-durable case too: DurableHeight mirrors Height.
	// A configured depth makes no window there — without a data dir every
	// verdict is inline — so the depth-4 node reports none either.
	for _, depth := range []int{0, 4} {
		wl, err := workload.Generate(recParams())
		if err != nil {
			t.Fatalf("workload: %v", err)
		}
		mem, err := New(Config{World: wl.World, Workers: 1, Runner: runtime.NewSimRunner(), PipelineDepth: depth})
		if err != nil {
			t.Fatalf("node.New: %v", err)
		}
		mem.SubmitAll(wl.Calls)
		if _, err := mem.MineOne(recBlockSize); err != nil {
			t.Fatalf("mine: %v", err)
		}
		st := mem.CurrentStatus()
		if st.DurableHeight != st.Height {
			t.Fatalf("in-memory node: durable %d != height %d", st.DurableHeight, st.Height)
		}
		if st.PipelineDepth != 0 || st.InFlight != 0 {
			t.Fatalf("in-memory depth-%d node reports a pipeline: %+v", depth, st)
		}
	}
}

// TestPipelineCloseDrains: Close on a pipelining node waits for in-flight
// verdicts, writes the overdue cadence checkpoint, and saves the
// post-drain mempool, so a graceful restart resumes with exactly the
// unmined suffix.
func TestPipelineCloseDrains(t *testing.T) {
	dir := t.TempDir()
	n, calls := pipeNode(t, engine.KindSerial, dir, 2, persist.Options{SnapshotEvery: 1}, nil)
	n.SubmitAll(calls)
	if _, err := n.MineOne(recBlockSize); err != nil {
		t.Fatalf("mine: %v", err)
	}
	// No Flush: Close must drain on its own.
	if err := n.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The cadence checkpoint due at block 1 must be on disk now — the
	// pipelined path defers snapshots to drain points and Close is one
	// (checked before reopening, whose own cadence resume would mask it).
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read dir: %v", err)
	}
	found := false
	for _, e := range entries {
		if e.Name() == "snap-0000000000000001.snap" {
			found = true
		}
	}
	if !found {
		t.Fatal("Close left the due block-1 checkpoint unwritten")
	}
	re, _ := pipeNode(t, engine.KindSerial, dir, 2, persist.Options{SnapshotEvery: 1}, nil)
	defer re.Close()
	if got := re.Height(); got != 1 {
		t.Fatalf("reopened at height %d, want 1", got)
	}
	if got, want := re.PoolLen(), len(calls)-recBlockSize; got != want {
		t.Fatalf("restored pool %d calls, want %d", got, want)
	}
}

// TestPipelineServesOnlyDurable: the wire API's pull path (GET /head,
// GET /blocks/{h}) is gated at the durable height — a syncing peer must
// never receive a sealed-not-durable block the miner could still lose.
func TestPipelineServesOnlyDurable(t *testing.T) {
	dir := t.TempDir()
	n, calls := pipeNode(t, engine.KindSerial, dir, 2, persist.Options{SnapshotEvery: -1}, nil)
	n.SubmitAll(calls)
	if _, err := n.mineOne(recBlockSize, false); err != nil {
		t.Fatalf("seal: %v", err)
	}
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()

	getJSON := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var body map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body
	}

	// Sealed head is 1, durable head is 0: the wire serves 0.
	if code, head := getJSON("/v1/head"); code != http.StatusOK || head["number"].(float64) != 0 {
		t.Fatalf("/v1/head = %d %v, want the durable height 0", code, head["number"])
	}
	if code, _ := getJSON("/v1/blocks/1"); code != http.StatusNotFound {
		t.Fatalf("/v1/blocks/1 served a sealed-not-durable block (status %d)", code)
	}

	// Drain: the block becomes durable and the wire serves it.
	n.mu.Lock()
	entry := n.win.inflight[0]
	n.mu.Unlock()
	n.persist(entry)
	if err := n.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if code, head := getJSON("/v1/head"); code != http.StatusOK || head["number"].(float64) != 1 {
		t.Fatalf("/v1/head = %d %v after drain, want 1", code, head["number"])
	}
	if code, _ := getJSON("/v1/blocks/1"); code != http.StatusOK {
		t.Fatalf("/v1/blocks/1 = %d after drain, want 200", code)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
