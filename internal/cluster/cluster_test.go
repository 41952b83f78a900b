package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"contractstm/internal/api/client"
	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/node"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

// clusterParams is the shared workload shape: enough conflict that blocks
// carry happens-before edges (the tamper tests need a non-trivial
// schedule to corrupt).
func clusterParams(txs int) workload.Params {
	return workload.Params{
		Kind:            workload.KindToken,
		Transactions:    txs,
		ConflictPercent: 50,
		Seed:            7,
	}
}

// newClusterWorlds generates n identical worlds plus the miner's call
// list.
func newClusterWorlds(t *testing.T, n, txs int) ([]*contract.World, []contract.Call) {
	t.Helper()
	worlds, calls, err := GenerateWorlds(clusterParams(txs), n)
	if err != nil {
		t.Fatalf("GenerateWorlds: %v", err)
	}
	return worlds, calls
}

func newTestCluster(t *testing.T, nodes, txs int, eng engine.Kind) (*Cluster, []contract.Call) {
	t.Helper()
	worlds, calls := newClusterWorlds(t, nodes, txs)
	cl, err := New(Config{Worlds: worlds, Engine: eng, Workers: 3})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(cl.Close)
	return cl, calls
}

// TestFollowerConvergesPerEngine is the headline scenario: for each of
// the three engines, a miner node seals blocks and followers — given
// only wire-encoded blocks over HTTP — reach the same head hash and
// state root by replaying the published schedule.
func TestFollowerConvergesPerEngine(t *testing.T) {
	const (
		blocks    = 3
		blockSize = 16
		followers = 2
	)
	for _, eng := range engine.Kinds() {
		t.Run(eng.String(), func(t *testing.T) {
			cl, calls := newTestCluster(t, followers+1, blocks*blockSize, eng)
			miner := cl.Node(0)
			miner.SubmitAll(calls)
			bcast := cl.Broadcaster(0)
			for b := 0; b < blocks; b++ {
				blk, err := miner.MineOne(blockSize)
				if err != nil {
					t.Fatalf("mine block %d: %v", b+1, err)
				}
				if failed := Failed(bcast.Broadcast(context.Background(), blk)); len(failed) > 0 {
					t.Fatalf("broadcast block %d: %+v", b+1, failed)
				}
			}
			if !cl.Converged() {
				t.Fatalf("heads diverged: %+v", cl.Heads())
			}
			minerHead := miner.Head().Header
			if minerHead.Number != blocks {
				t.Fatalf("miner height = %d, want %d", minerHead.Number, blocks)
			}
			for i := 1; i <= followers; i++ {
				h := cl.Node(i).Head().Header
				if h.Hash() != minerHead.Hash() {
					t.Fatalf("follower %d head %s != miner %s", i, h.Hash().Short(), minerHead.Hash().Short())
				}
				if h.StateRoot != minerHead.StateRoot {
					t.Fatalf("follower %d state root diverged", i)
				}
			}
		})
	}
}

// corruptSchedule reverses a block's published serial order and re-seals
// the schedule hash so the tampering survives the wire decode's
// commitment check: only deterministic re-validation can catch it.
func corruptSchedule(t *testing.T, b chain.Block) chain.Block {
	t.Helper()
	if len(b.Schedule.Edges) == 0 {
		t.Fatal("block schedule has no edges; tamper test needs conflicts")
	}
	forged := b
	forged.Schedule.Order = make([]types.TxID, 0, len(b.Schedule.Order))
	for i := len(b.Schedule.Order) - 1; i >= 0; i-- {
		forged.Schedule.Order = append(forged.Schedule.Order, b.Schedule.Order[i])
	}
	forged.Header.ScheduleHash = chain.ScheduleHashOf(forged.Schedule, forged.Profiles)
	return forged
}

// TestWireRoundTripAndRejections drives a block through the real wire
// path — GET /blocks/{h} → DecodeBlock → POST /blocks → AcceptBlock —
// and exercises every rejection: tampered schedule, wrong parent,
// duplicate import, and corrupted bytes.
func TestWireRoundTripAndRejections(t *testing.T) {
	const blockSize = 16
	cl, calls := newTestCluster(t, 2, 2*blockSize, engine.KindSpeculative)
	miner, follower := cl.Node(0), cl.Node(1)
	miner.SubmitAll(calls)
	var mined []chain.Block
	for b := 0; b < 2; b++ {
		blk, err := miner.MineOne(blockSize)
		if err != nil {
			t.Fatalf("mine: %v", err)
		}
		mined = append(mined, blk)
	}
	ctx := context.Background()
	minerPeer, followerPeer := cl.Peer(0), cl.Peer(1)

	// Round-trip block 1: fetch wire bytes from the miner, decode, push
	// to the follower, accepted through full validation.
	blk1, err := minerPeer.Block(ctx, 1)
	if err != nil {
		t.Fatalf("fetch block 1: %v", err)
	}
	if blk1.Header.Hash() != mined[0].Header.Hash() {
		t.Fatal("wire round-trip changed the block hash")
	}
	if err := followerPeer.SendBlock(ctx, blk1); err != nil {
		t.Fatalf("send block 1: %v", err)
	}
	if follower.Height() != 1 {
		t.Fatalf("follower height = %d", follower.Height())
	}

	// Duplicate import: idempotent, height unchanged.
	if err := followerPeer.SendBlock(ctx, blk1); err != nil {
		t.Fatalf("duplicate send: %v", err)
	}
	if follower.Height() != 1 {
		t.Fatalf("duplicate import advanced height to %d", follower.Height())
	}

	// Tampered schedule: commitments re-sealed, so it survives decode and
	// must die in validation — without advancing the follower's head.
	forged := corruptSchedule(t, mined[1])
	err = followerPeer.SendBlock(ctx, forged)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusConflict {
		t.Fatalf("tampered schedule err = %v, want 409", err)
	}
	if follower.Height() != 1 {
		t.Fatalf("tampered schedule advanced height to %d", follower.Height())
	}

	// Honest block 2 still lands afterwards (rejection restored state).
	if err := followerPeer.SendBlock(ctx, mined[1]); err != nil {
		t.Fatalf("send block 2 after tamper: %v", err)
	}

	// Wrong parent: block 2 into a fresh node still at genesis.
	fresh, _ := newTestCluster(t, 1, blockSize, engine.KindSpeculative)
	err = fresh.Peer(0).SendBlock(ctx, mined[1])
	if !errors.As(err, &ae) || ae.Status != http.StatusConflict {
		t.Fatalf("wrong parent err = %v, want 409", err)
	}
	if fresh.Node(0).Height() != 0 {
		t.Fatalf("wrong-parent import advanced fresh node to %d", fresh.Node(0).Height())
	}

	// Corrupted bytes die at decode with 400.
	resp, err := http.Post(cl.URL(1)+"/v1/blocks", "application/octet-stream", http.NoBody)
	if err != nil {
		t.Fatalf("POST empty block: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty block status = %d", resp.StatusCode)
	}
}

// TestCatchUpSync joins a follower late: the miner has sealed several
// blocks before the follower syncs from its head to the miner's.
func TestCatchUpSync(t *testing.T) {
	const (
		blocks    = 4
		blockSize = 12
	)
	cl, calls := newTestCluster(t, 2, blocks*blockSize, engine.KindOCC)
	miner, follower := cl.Node(0), cl.Node(1)
	miner.SubmitAll(calls)
	for b := 0; b < blocks; b++ {
		if _, err := miner.MineOne(blockSize); err != nil {
			t.Fatalf("mine: %v", err)
		}
	}
	imported, err := Sync(context.Background(), follower, cl.Peer(0))
	if err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if imported != blocks {
		t.Fatalf("imported %d blocks, want %d", imported, blocks)
	}
	if !cl.Converged() {
		t.Fatalf("heads diverged after sync: %+v", cl.Heads())
	}
	// Synced-up sync is a no-op.
	if imported, err = Sync(context.Background(), follower, cl.Peer(0)); err != nil || imported != 0 {
		t.Fatalf("re-sync = (%d, %v), want (0, nil)", imported, err)
	}
	// Syncing the miner from the follower (equal heads) is a no-op too.
	if imported, err = Sync(context.Background(), miner, cl.Peer(1)); err != nil || imported != 0 {
		t.Fatalf("reverse sync = (%d, %v), want (0, nil)", imported, err)
	}
}

// TestSyncCancelledBeforeFirstFetch: a sync whose context is already
// cancelled must stop before the initial head fetch — zero requests on
// the wire — and propagate the cancellation cause, not a bare
// context.Canceled.
func TestSyncCancelledBeforeFirstFetch(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "must not be reached", http.StatusInternalServerError)
	}))
	defer srv.Close()

	worlds, _ := newClusterWorlds(t, 1, 4)
	n, err := node.New(node.Config{World: worlds[0], Workers: 1})
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}

	cause := errors.New("operator aborted the sync")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)

	imported, err := Sync(ctx, n, NewPeer(srv.URL, srv.Client()))
	if !errors.Is(err, cause) {
		t.Fatalf("Sync err = %v, want the cancellation cause %v", err, cause)
	}
	if imported != 0 {
		t.Fatalf("imported = %d, want 0", imported)
	}
	if got := hits.Load(); got != 0 {
		t.Fatalf("cancelled sync still made %d requests", got)
	}
}

// TestSyncDetectsDivergence lets two nodes mine different blocks at the
// same height; syncing either from the other must fail with ErrDiverged
// and leave both chains untouched.
func TestSyncDetectsDivergence(t *testing.T) {
	const blockSize = 12
	cl, calls := newTestCluster(t, 2, 3*blockSize, engine.KindSpeculative)
	a, b := cl.Node(0), cl.Node(1)
	// Different transactions per node → different block 1.
	a.SubmitAll(calls[:2*blockSize])
	b.SubmitAll(calls[2*blockSize:])
	if _, err := a.MineOne(blockSize); err != nil {
		t.Fatalf("mine a: %v", err)
	}
	if _, err := b.MineOne(blockSize); err != nil {
		t.Fatalf("mine b: %v", err)
	}
	if _, err := Sync(context.Background(), b, cl.Peer(0)); !errors.Is(err, ErrDiverged) {
		t.Fatalf("sync err = %v, want ErrDiverged", err)
	}
	if a.Height() != 1 || b.Height() != 1 {
		t.Fatalf("divergence check mutated chains: %d/%d", a.Height(), b.Height())
	}
	// The deeper-chain side detects it too.
	if _, err := a.MineOne(blockSize); err != nil {
		t.Fatalf("mine a2: %v", err)
	}
	if _, err := Sync(context.Background(), a, cl.Peer(1)); !errors.Is(err, ErrDiverged) {
		t.Fatalf("ahead-side sync err = %v, want ErrDiverged", err)
	}
}

// TestBroadcastRetryAndBackoff fronts a follower with a transport that
// fails the first two deliveries; the broadcaster must retry with
// growing backoff and succeed on the third attempt. A dead peer must
// exhaust its attempts and surface the failure.
func TestBroadcastRetryAndBackoff(t *testing.T) {
	worlds, calls := newClusterWorlds(t, 2, 16)
	minerNode, err := node.New(node.Config{World: worlds[0], Workers: 3})
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}
	followerNode, err := node.New(node.Config{World: worlds[1], Workers: 3})
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}
	minerNode.SubmitAll(calls)
	blk, err := minerNode.MineOne(16)
	if err != nil {
		t.Fatalf("mine: %v", err)
	}

	var hits atomic.Int32
	inner := followerNode.Handler()
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	// Sleep is called from one goroutine per peer; guard the recorder.
	var (
		sleptMu sync.Mutex
		slept   []time.Duration
	)
	bcast := &Broadcaster{
		Peers:       []*Peer{NewPeer(flaky.URL, nil), NewPeer("http://127.0.0.1:1", nil)},
		MaxAttempts: 3,
		Backoff:     time.Millisecond,
		Sleep: func(d time.Duration) {
			sleptMu.Lock()
			slept = append(slept, d)
			sleptMu.Unlock()
		},
	}
	ds := bcast.Broadcast(context.Background(), blk)
	if ds[0].Err != nil || ds[0].Attempts != 3 {
		t.Fatalf("flaky delivery = %+v", ds[0])
	}
	if followerNode.Height() != 1 {
		t.Fatalf("follower height = %d", followerNode.Height())
	}
	if ds[1].Err == nil || ds[1].Attempts != 3 {
		t.Fatalf("dead peer delivery = %+v", ds[1])
	}
	if len(Failed(ds)) != 1 {
		t.Fatalf("Failed = %+v", Failed(ds))
	}
	// Backoff doubled between the flaky peer's attempts (the dead peer's
	// sleeps interleave; check the recorded set contains both steps).
	var sawBase, sawDoubled bool
	for _, d := range slept {
		sawBase = sawBase || d == time.Millisecond
		sawDoubled = sawDoubled || d == 2*time.Millisecond
	}
	if !sawBase || !sawDoubled {
		t.Fatalf("backoff schedule = %v", slept)
	}
}

// TestBroadcastStopsOnRejection checks a 4xx refusal is not retried: the
// peer validated the block and said no.
func TestBroadcastStopsOnRejection(t *testing.T) {
	cl, calls := newTestCluster(t, 2, 32, engine.KindSerial)
	miner := cl.Node(0)
	miner.SubmitAll(calls)
	var blks []chain.Block
	for b := 0; b < 2; b++ {
		blk, err := miner.MineOne(16)
		if err != nil {
			t.Fatalf("mine: %v", err)
		}
		blks = append(blks, blk)
	}
	// Send block 2 first: wrong parent for the genesis-level follower.
	bcast := cl.Broadcaster(0)
	// t.Error, not t.Fatal: Sleep runs on a broadcast worker goroutine.
	bcast.Sleep = func(time.Duration) { t.Error("rejection must not back off") }
	ds := bcast.Broadcast(context.Background(), blks[1])
	if len(ds) != 1 || ds[0].Err == nil || ds[0].Attempts != 1 {
		t.Fatalf("deliveries = %+v", ds)
	}
}
