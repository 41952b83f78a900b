// Command clusterdemo runs a multi-node cluster over real TCP loopback:
// one mining node seals blocks from a generated workload and broadcasts
// each over HTTP to validating followers, which replay the published
// (S, H) schedule before appending — the paper's miner/validator split
// across process-style boundaries. A late joiner then snapshot fast-syncs
// from the miner: it installs the miner's state checkpoint and replays
// only the blocks after it.
//
// With -data the miner is durable, and the demo adds a kill-and-restart
// act: after the first batch of blocks the miner is stopped cold (no
// graceful shutdown), reopened from its data directory — recovery
// replays the WAL through the validator — and mines more blocks on the
// recovered chain, which the same followers accept seamlessly.
//
// Usage:
//
//	clusterdemo [-followers 2] [-blocks 5] [-blocksize 50]
//	            [-engine speculative] [-kind token] [-conflict 15]
//	            [-workers 3] [-seed 2017] [-data DIR] [-snap-every 2]
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"contractstm/internal/api/wire"
	"contractstm/internal/cluster"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/node"
	"contractstm/internal/persist"
	"contractstm/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "clusterdemo:", err)
		os.Exit(1)
	}
}

// minerProc is the restartable miner: a node behind a real TCP server.
type minerProc struct {
	node *node.Node
	url  string
	srv  *http.Server
}

// startMiner builds a miner node (durable when dataDir is non-empty) and
// serves it on an ephemeral loopback port.
func startMiner(world *contract.World, engKind engine.Kind, workers int, dataDir string, snapEvery int) (*minerProc, error) {
	n, err := node.New(node.Config{
		World: world, Workers: workers, Engine: engKind,
		DataDir: dataDir,
		Persist: persist.Options{SnapshotEvery: snapEvery},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: n.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return &minerProc{node: n, url: "http://" + ln.Addr().String(), srv: srv}, nil
}

// kill stops the miner's server and drops its file handles without any
// graceful persistence — the crash the recovery path exists for. The
// WAL already holds every appended block; the pool dies with the
// process, exactly as a real kill -9 would leave things.
func (m *minerProc) kill() {
	_ = m.srv.Close()
	m.node.Kill()
}

// mineAndBroadcast seals `blocks` blocks and ships each to the followers.
func mineAndBroadcast(ctx context.Context, m *minerProc, bcast *cluster.Broadcaster, blocks, blockSize int) error {
	for b := 0; b < blocks; b++ {
		blk, err := m.node.MineOne(blockSize)
		if err != nil {
			return fmt.Errorf("mine block: %w", err)
		}
		deliveries := bcast.Broadcast(ctx, blk)
		if failed := cluster.Failed(deliveries); len(failed) > 0 {
			return fmt.Errorf("broadcast block %d: %v", blk.Header.Number, failed[0].Err)
		}
		fmt.Printf("block %d: %3d txs, %3d edges, hash %s → %d followers validated\n",
			blk.Header.Number, len(blk.Calls), len(blk.Schedule.Edges),
			blk.Header.Hash().Short(), len(deliveries))
	}
	return nil
}

func run() error {
	var (
		followers = flag.Int("followers", 2, "validating follower nodes")
		blocks    = flag.Int("blocks", 5, "blocks to mine and propagate")
		blockSize = flag.Int("blocksize", 50, "transactions per block")
		engName   = flag.String("engine", "speculative", `execution engine: "serial", "speculative" or "occ"`)
		kindName  = flag.String("kind", "token", "workload: ballot, auction, etherdoc, mixed, token or delegation")
		conflict  = flag.Int("conflict", 15, "workload data-conflict percentage")
		workers   = flag.Int("workers", 3, "per-node mining/validation pool size")
		seed      = flag.Int64("seed", 2017, "workload generation seed")
		dataDir   = flag.String("data", "", "miner data directory; enables the kill-and-restart act")
		snapEvery = flag.Int("snap-every", 2, "miner snapshot cadence in blocks (with -data)")
	)
	flag.Parse()

	engKind, err := engine.ParseKind(*engName)
	if err != nil {
		return err
	}
	kind, err := workload.ParseKind(*kindName)
	if err != nil {
		return err
	}
	if *followers < 1 {
		return fmt.Errorf("-followers must be >= 1")
	}
	durable := *dataDir != ""

	// The miner mines two batches when durable (before and after the
	// restart), one otherwise.
	batches := 1
	if durable {
		batches = 2
	}
	params := workload.Params{
		Kind: kind, Transactions: batches * *blocks * *blockSize,
		ConflictPercent: *conflict, Seed: *seed,
	}
	// Every node needs an identical genesis world: miner, followers, one
	// for the late joiner, and one spare genesis copy for the miner's
	// restart (recovery rebuilds on a fresh genesis world).
	allWorlds, calls, err := cluster.GenerateWorlds(params, *followers+3)
	if err != nil {
		return err
	}
	minerWorld, followerWorlds := allWorlds[0], allWorlds[1:*followers+1]
	lateWorld, restartWorld := allWorlds[*followers+1], allWorlds[*followers+2]

	miner, err := startMiner(minerWorld, engKind, *workers, *dataDir, *snapEvery)
	if err != nil {
		return err
	}
	defer miner.kill()

	listen := make([]string, len(followerWorlds))
	for i := range listen {
		listen[i] = "127.0.0.1:0"
	}
	cl, err := cluster.New(cluster.Config{
		Worlds: followerWorlds, Engine: engKind, Workers: *workers, Listen: listen,
	})
	if err != nil {
		return err
	}
	defer cl.Close()

	fmt.Printf("cluster: miner + %d followers over TCP (engine=%s, kind=%s, %d%% conflict, durable=%v)\n",
		cl.Len(), engKind, kind, *conflict, durable)
	fmt.Printf("  node 0  miner    %s\n", miner.url)
	for i := 0; i < cl.Len(); i++ {
		fmt.Printf("  node %d  follower %s\n", i+1, cl.URL(i))
	}

	followerPeers := make([]*cluster.Peer, cl.Len())
	for i := range followerPeers {
		followerPeers[i] = cluster.NewPeer(cl.URL(i), nil)
	}
	bcast := &cluster.Broadcaster{Peers: followerPeers}
	ctx := context.Background()

	miner.node.SubmitAll(calls)
	start := time.Now()
	if err := mineAndBroadcast(ctx, miner, bcast, *blocks, *blockSize); err != nil {
		return err
	}
	elapsed := time.Since(start)

	head := miner.node.Head().Header
	fmt.Printf("\nheight %d, head %s, state root %s\n",
		head.Number, head.Hash().Short(), head.StateRoot.Short())
	fmt.Printf("throughput: %.1f blocks/s, %.1f txs/s end-to-end (%s)\n",
		float64(*blocks)/elapsed.Seconds(),
		float64(*blocks**blockSize)/elapsed.Seconds(), elapsed.Round(time.Millisecond))

	// Receipt round-trip through the /v1 SDK: the first submitted call's
	// content-derived ID is queryable on the miner — and on any follower
	// that validated the block — now that the block is durable.
	txID := wire.TxIDOf(calls[0]).String()
	rec, err := cluster.NewPeer(miner.url, nil).Receipt(ctx, txID)
	if err != nil {
		return fmt.Errorf("receipt %s: %w", txID, err)
	}
	fmt.Printf("receipt %s…: %s in block %d (schedule pos %d, gas %d)\n",
		txID[:10], rec.Status, rec.BlockHeight, rec.ScheduleIndex, rec.GasUsed)

	if durable {
		// Act two: kill the miner cold, recover from the data directory,
		// keep mining on the recovered chain.
		pending := miner.node.PoolLen()
		miner.kill()
		fmt.Printf("\nminer killed at height %d (%d txs still pooled, lost with the crash)\n",
			head.Number, pending)
		miner, err = startMiner(restartWorld, engKind, *workers, *dataDir, *snapEvery)
		if err != nil {
			return fmt.Errorf("restart miner: %w", err)
		}
		defer miner.kill()
		st := miner.node.CurrentStatus()
		if st.HeadHash != head.Hash().String() {
			return fmt.Errorf("recovered head %s != pre-crash head %s", st.HeadHash, head.Hash())
		}
		fmt.Printf("miner restarted from %s: height %d, head %s (snapshot at %d + %d WAL blocks re-validated)\n",
			*dataDir, st.Height, head.Hash().Short(), st.SnapshotHeight, st.RecoveredBlocks)

		// The crash lost the pooled tail; resubmit the unmined calls the
		// way real clients would re-send.
		mined := int(st.Height) * *blockSize
		if mined < len(calls) {
			miner.node.SubmitAll(calls[mined:])
		}
		if err := mineAndBroadcast(ctx, miner, bcast, *blocks, *blockSize); err != nil {
			return err
		}
		head = miner.node.Head().Header
		fmt.Printf("recovered miner reached height %d, head %s\n", head.Number, head.Hash().Short())
	}

	for _, p := range followerPeers {
		h, err := p.Head(ctx)
		if err != nil {
			return err
		}
		if h.Hash != head.Hash() {
			return fmt.Errorf("follower %s head %s != miner %s", p.URL(), h.Hash.Short(), head.Hash().Short())
		}
	}
	fmt.Printf("\nconverged: all %d followers at height %d\n", len(followerPeers), head.Number)

	// Late joiner: snapshot fast-sync from the miner — install the state
	// checkpoint, then replay only the blocks after it.
	late, err := node.New(node.Config{World: lateWorld, Workers: *workers, Engine: engKind})
	if err != nil {
		return err
	}
	res, err := cluster.FastSync(ctx, late, cluster.NewPeer(miner.url, nil))
	if err != nil {
		return fmt.Errorf("late-joiner fast-sync: %w", err)
	}
	lateHead := late.Head().Header
	if lateHead.Hash() != head.Hash() {
		return fmt.Errorf("late joiner head %s != miner %s", lateHead.Hash().Short(), head.Hash().Short())
	}
	if res.Installed {
		fmt.Printf("late joiner: installed snapshot at height %d + %d tail blocks re-validated (skipped %d of %d), head matches\n",
			res.SnapshotHeight, res.Imported, res.SnapshotHeight, head.Number)
	} else {
		fmt.Printf("late joiner: full catch-up, %d blocks re-validated, head matches\n", res.Imported)
	}

	fmt.Println("\nnode status:")
	st := miner.node.CurrentStatus()
	fmt.Printf("  miner:      height=%d mined=%d validated=%d engine=%s persistent=%v\n",
		st.Height, st.MinedBlocks, st.ValidatedBlocks, st.Engine, st.Persistent)
	for i := 0; i < cl.Len(); i++ {
		fst := cl.Node(i).CurrentStatus()
		fmt.Printf("  follower %d: height=%d mined=%d validated=%d engine=%s\n",
			i+1, fst.Height, fst.MinedBlocks, fst.ValidatedBlocks, fst.Engine)
	}
	lst := late.CurrentStatus()
	fmt.Printf("  late:       height=%d chainBase=%d (pruned below base)\n", lst.Height, lst.ChainBase)
	return nil
}
