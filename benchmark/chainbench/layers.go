package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"time"

	"contractstm/internal/api/client"
	"contractstm/internal/chain"
	"contractstm/internal/cluster"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/gas"
	"contractstm/internal/importer"
	"contractstm/internal/mempool"
	"contractstm/internal/miner"
	"contractstm/internal/node"
	"contractstm/internal/persist"
	"contractstm/internal/runtime"
	"contractstm/internal/sched"
	"contractstm/internal/storage"
	"contractstm/internal/txpool"
	"contractstm/internal/validator"
	"contractstm/internal/workload"
)

// This file is the traced run: the per-layer probes of phases B–D and
// G, and the metrics computed from them. Nothing here runs with
// -trace 0.

// probe times f, records it as a span and keeps the sample under key.
func (r *run) probe(key, spanName, parent string, id uint64, f func() error) error {
	start := time.Now()
	err := f()
	end := time.Now()
	if err != nil {
		return fmt.Errorf("%s: %w", spanName, err)
	}
	r.trace.add(spanName, parent, id, start, end)
	r.sample(key, end.Sub(start).Seconds())
	return nil
}

func (r *run) sample(key string, v float64) {
	r.layerMu.Lock()
	r.layer[key] = append(r.layer[key], v)
	r.layerMu.Unlock()
}

// calibrate runs a fixed compute loop; its time between phases shows
// how much the host's speed drifted during the run.
func (r *run) calibrate() {
	if r.trace == nil {
		return
	}
	start := time.Now()
	runtime.SpinBurn(1000)(gas.Gas(10_000))
	r.sample("host.calib", time.Since(start).Seconds())
}

// blockPath is what a block passes through between the pool and the
// disk, as public functions; probeBlockPath calls each on its own.
type blockPath struct {
	log *persist.Log
	buf []byte
}

func (r *run) newBlockPath(name string) (*blockPath, error) {
	log, err := persist.Open(filepath.Join(r.dataRoot, name), durable)
	if err != nil {
		return nil, err
	}
	return &blockPath{log: log}, nil
}

// probeBlockPath replays b's trip through admission, selection, the
// codec and the WAL: Pool.Admit per call, SelectBatch, AppendBlockWire,
// UnmarshalBlock and Log.Append, each a span under parent.
func (r *run) probeBlockPath(bp *blockPath, prefix, parent string, id uint64, b chain.Block) error {
	pool := mempool.New(mempool.Config{Now: time.Now})
	if err := r.probe(prefix+"mempool.admit", "mempool.admit", "", id, func() error {
		for _, c := range b.Calls {
			if d := pool.Admit(c, 0); !d.Verdict.Admitted() {
				return fmt.Errorf("verdict %v", d.Verdict)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := r.probe(prefix+"mempool.select", "mempool.select", parent, id, func() error {
		_, err := pool.SelectBatch(txpool.PolicyFIFO, len(b.Calls))
		return err
	}); err != nil {
		return err
	}
	if err := r.probe(prefix+"chain.encode", "chain.encode", parent, id, func() error {
		var err error
		bp.buf, err = chain.AppendBlockWire(bp.buf[:0], b)
		return err
	}); err != nil {
		return err
	}
	r.sample(prefix+"chain.block_bytes", float64(len(bp.buf)))
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	if err := r.probe(prefix+"chain.decode", "chain.decode", "", id, func() error {
		_, err := chain.UnmarshalBlock(bp.buf)
		return err
	}); err != nil {
		return err
	}
	goruntime.ReadMemStats(&after)
	r.sample(prefix+"chain.decode_allocs", float64(after.Mallocs-before.Mallocs))
	// The WAL checks only that heights are consecutive, so the probe
	// log takes any block renumbered to its tail.
	b.Header.Number = bp.log.Height() + 1
	return r.probe(prefix+"persist.append", "persist.append", parent, id, func() error { return bp.log.Append(b) })
}

// probeLayers is the traced run's layer attribution for one phase-B
// round: each public function a block passes through is called on its
// own, from the same reset state, and recorded as a span of the round.
func (r *run) probeLayers(wl *workload.Workload, runner runtime.Runner, parent chain.Header,
	calls []contract.Call, specRes miner.Result, id uint64) error {
	opts := engine.Options{Workers: r.workers}

	// The paper's baseline: the speculative engine on one worker.
	wl.Reset()
	if err := r.probe("mine.speculative_1worker", "miner.mine.speculative_1worker", "", id, func() error {
		_, err := miner.Mine(engine.SpeculativeEngine{}, runner, wl.World, parent, calls, engine.Options{Workers: 1})
		return err
	}); err != nil {
		return err
	}

	// ExecuteBlock alone per engine: Mine minus this is the seal.
	for _, kind := range engine.Kinds() {
		if kind == engine.KindOCC && int(id)%r.spec.occEvery != 0 {
			continue
		}
		name := kind.String()
		wl.Reset()
		var res engine.Result
		if err := r.probe("execute."+name, "engine.execute."+name, "miner.mine."+name, id, func() error {
			var err error
			res, err = engine.MustNew(kind).ExecuteBlock(runner, wl.World, calls, opts)
			return err
		}); err != nil {
			return err
		}
		r.sample("retries."+name, 1000*float64(res.Stats.Retries)/float64(len(calls)))
		r.sample("rounds."+name, float64(res.Stats.Rounds))
		if kind == engine.KindSpeculative {
			// The world holds a block's post-state: the per-block storage
			// work of a seal (state root) and of a node's pre-block copy.
			if err := r.probe("storage.state_root", "storage.state_root", "miner.mine.speculative", id, func() error {
				_, err := wl.World.StateRoot()
				return err
			}); err != nil {
				return err
			}
			_ = r.probe("storage.snapshot", "storage.snapshot", "", id, func() error { wl.World.Snapshot(); return nil })
			pm, err := r.probeSchedule(res, len(calls), id)
			if err != nil {
				return err
			}
			r.sample("sched.edges", float64(pm.Edges))
			// The longest chain as a share of the block: 1/n for a
			// conflict-free block, 1 for a fully serial one.
			r.sample("sched.critical_path_share", float64(pm.CriticalPathLen)/float64(len(calls)))
		}
	}

	blk := specRes.Block
	var pre validator.Prechecked
	if err := r.probe("validator.precheck", "validator.precheck", "validator.validate", id, func() error {
		var err error
		pre, err = validator.Precheck(blk)
		return err
	}); err != nil {
		return err
	}
	wl.Reset()
	if err := r.probe("validator.replay", "validator.replay", "validator.validate", id, func() error {
		_, err := validator.ValidatePrechecked(runner, wl.World, blk, pre, validator.Config{Workers: r.workers})
		return err
	}); err != nil {
		return err
	}
	return r.probeBlockPath(r.execPath, "", "", id, blk)
}

// probeSchedule times the schedule derivation (happens-before graph
// plus topological order) from an execution's lock profiles and returns
// the graph's shape.
func (r *run) probeSchedule(res engine.Result, n int, id uint64) (sched.ParallelismMetrics, error) {
	var graph *sched.Graph
	if err := r.probe("sched.build_schedule", "sched.build_schedule", "engine.execute.speculative", id, func() error {
		var err error
		_, graph, err = sched.BuildSchedule(n, res.Profiles)
		return err
	}); err != nil {
		return sched.ParallelismMetrics{}, err
	}
	return sched.Metrics(graph)
}

// phaseLoaded is the open-loop run: one request per millisecond is
// sent at its due time whether or not earlier ones have answered, while
// a miner goroutine drains the pool, and each receipt is timed from the
// moment its request was due. It returns how many calls it submitted.
func (r *run) phaseLoaded(p *pair, base int) (int, error) {
	const interval = time.Millisecond
	calls := p.wl.Calls[base:]
	if len(calls) > r.spec.loadTxs {
		calls = calls[:r.spec.loadTxs]
	}
	if len(calls) == 0 {
		return 0, nil
	}
	sdk := client.New(p.leaderSrv.URL, client.WithHTTPClient(p.hc))
	ctx := context.Background()

	due := make([]time.Time, len(calls))
	late := make([]float64, len(calls))
	errs := make([]error, len(calls))
	var wg sync.WaitGroup
	submitted := make(chan struct{})
	minerDone := make(chan error, 1)
	go func() {
		// Mine whenever anything is queued; stop once every request has
		// been answered and the pool is empty.
		for {
			_, err := p.leader.MineOne(r.spec.blockSize)
			switch {
			case err == nil:
			case errors.Is(err, txpool.ErrEmpty):
				select {
				case <-submitted:
					if p.leader.PoolLen() == 0 {
						minerDone <- p.leader.Flush()
						return
					}
				default:
					time.Sleep(interval)
				}
			default:
				minerDone <- err
				return
			}
		}
	}()
	start := time.Now().Add(10 * time.Millisecond)
	for i := range calls {
		due[i] = start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due[i]))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			late[i] = time.Since(due[i]).Seconds()
			errs[i] = submit(ctx, sdk, calls[i])
		}(i)
	}
	wg.Wait()
	close(submitted)
	if err := <-minerDone; err != nil {
		return len(calls), err
	}
	for i, err := range errs {
		r.rep.check(err == nil, "loaded run: submit call %d: %v", base+i, err)
		if err != nil {
			return len(calls), err
		}
	}
	events, err := p.await(p.leader.Height())
	if err != nil {
		return len(calls), err
	}
	for _, ev := range events {
		for _, idx := range ev.idxs {
			r.sample("load.receipt", ev.at.Sub(due[int(idx)-base]).Seconds())
		}
	}
	for _, l := range late {
		r.sample("load.late", l)
	}
	r.checkFollower(p)
	return len(calls), nil
}

// probeReads times sequential balance reads on the idle follower.
func (r *run) probeReads(p *pair) error {
	sdk := client.New(p.followerSrv.URL, client.WithHTTPClient(p.hc))
	addr := p.wl.Calls[0].Sender
	for i := 0; i < 200; i++ {
		if err := r.probe("api.read", "api.read", "", uint64(i), func() error {
			_, err := sdk.Balance(context.Background(), addr)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// pacedReader issues 200 balance reads per second against the follower
// while it imports blocks: BalanceAt and AcceptBlock share execMu, so a
// read that lands beside an import waits for it.
type pacedReader struct {
	stopc chan struct{}
	done  chan struct{}
}

func (r *run) startPacedReader(p *pair) *pacedReader {
	pr := &pacedReader{stopc: make(chan struct{}), done: make(chan struct{})}
	sdk := client.New(p.followerSrv.URL, client.WithHTTPClient(p.hc))
	addr := p.wl.Calls[0].Sender
	go func() {
		defer close(pr.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-pr.stopc:
				return
			case <-tick.C:
				start := time.Now()
				if _, err := sdk.Balance(context.Background(), addr); err != nil {
					r.rep.check(false, "paced read: %v", err)
					return
				}
				r.sample("api.read_beside_import", time.Since(start).Seconds())
			}
		}
	}()
	return pr
}

func (pr *pacedReader) stop() {
	close(pr.stopc)
	<-pr.done
}

// shadow is the traced phase D's third world, kept at the leader's
// state block by block so that each layer of a round can be called on
// its own right after the round.
type shadow struct {
	wl   *workload.Workload
	path *blockPath
}

// attributeRound splits one receipt round into its layers. The round's
// spans on the live path (last submit, MineOne, send to follower, the
// follower's import, the event) are already recorded; here the block's
// work is replayed through the same public functions on a shadow world
// — select, snapshot, Mine, encode, WAL append — and recorded as
// children of the round, so the self time of "receipt" is what no layer
// accounts for.
func (r *run) attributeRound(p *pair, b chain.Block, ev blockEvent) error {
	id := b.Header.Number
	if r.shadow == nil {
		wl, err := generate(r.spec, r.seed)
		if err != nil {
			return err
		}
		path, err := r.newBlockPath("receipt-probe-wal")
		if err != nil {
			return err
		}
		r.shadow = &shadow{wl: wl, path: path}
	}
	sh := r.shadow
	p.mu.Lock()
	accept, ok := p.accepts[id]
	p.mu.Unlock()
	if ok {
		r.sample("receipt/node.accept", accept[1].Sub(accept[0]).Seconds())
		r.trace.add("api.sse", "receipt", id, accept[1], ev.at)
		r.sample("receipt/api.sse", ev.at.Sub(accept[1]).Seconds())
	}

	if err := r.probeBlockPath(sh.path, "receipt/", "receipt", id, b); err != nil {
		return err
	}
	runner := r.nodeRunner()
	var snap storage.Snapshot
	_ = r.probe("receipt/storage.snapshot", "storage.snapshot", "receipt", id, func() error {
		snap = sh.wl.World.Snapshot()
		return nil
	})
	parent, _ := p.leader.BlockAt(id - 1)
	if err := r.probe("receipt/miner.mine", "miner.mine", "receipt", id, func() error {
		_, err := miner.Mine(engine.SpeculativeEngine{}, runner, sh.wl.World, parent.Header, b.Calls, engine.Options{Workers: r.workers})
		return err
	}); err != nil {
		return err
	}
	// Two speculative runs of one block may order its conflicts
	// differently; the shadow follows the leader's published schedule.
	sh.wl.World.Restore(snap)
	_, err := validator.Validate(runner, sh.wl.World, b, validator.Config{Workers: r.workers})
	r.rep.check(err == nil, "shadow world rejected block %d: %v", id, err)
	return err
}

// memSource serves prefetched blocks to the importer.
type memSource struct{ blocks []chain.Block }

func (s memSource) Block(_ context.Context, h uint64) (chain.Block, error) {
	if h == 0 || h > uint64(len(s.blocks)) {
		return chain.Block{}, io.EOF
	}
	return s.blocks[h-1], nil
}

func (s memSource) Blocks(_ context.Context, from uint64, count int) ([]chain.Block, error) {
	if from == 0 || from > uint64(len(s.blocks)) {
		return nil, io.EOF
	}
	end := from - 1 + uint64(count)
	if end > uint64(len(s.blocks)) {
		end = uint64(len(s.blocks))
	}
	return s.blocks[from-1 : end], nil
}

// probeSync splits phase F into its two layers: fetching ranges over
// HTTP, and importing already-fetched blocks.
func (r *run) probeSync(p *pair, src *node.Node, peer *cluster.Peer) error {
	ctx := context.Background()
	head := src.Head().Header.Number
	var all []chain.Block
	for from := uint64(1); from <= head; {
		var got []chain.Block
		if err := r.probe("cluster.fetch", "cluster.fetch", "", from, func() error {
			var err error
			got, err = peer.Blocks(ctx, from, 16)
			return err
		}); err != nil {
			return err
		}
		if len(got) == 0 {
			return fmt.Errorf("peer served no blocks from %d", from)
		}
		all = append(all, got...)
		from += uint64(len(got))
	}
	for i := 0; i < 3; i++ {
		n, err := r.freshFollower(p)
		if err != nil {
			return err
		}
		if err := r.probe("importer.run", "importer.run", "", uint64(i), func() error {
			_, err := importer.Run(ctx, n, memSource{all}, 1, head, importer.Config{})
			return err
		}); err != nil {
			return err
		}
		r.rep.check(n.Head().Header.Hash() == src.Head().Header.Hash(), "importer.Run ended at another head than its source")
	}
	return nil
}

// layerMetrics computes the per-layer metrics from the traced run's
// samples and prints the receipt-path accounting.
func (r *run) layerMetrics(w io.Writer) {
	sp, t, c, l := r.spec, r.execTimes, r.chainTimes, r.layer
	txs := float64(sp.blockSize)
	us := func(key string) float64 { return 1e6 * fast(l[key]) }
	ms := func(key string) float64 { return 1e3 * fast(l[key]) }
	set := r.rep.set

	set("api.submit_us_p50", "us", 1e6*median(c.submit))
	set("api.submit_tx_per_s", "tx/s", txs/fast(c.ingestWall))
	set("api.cpu_us_per_tx_ingest", "us", fast(c.ingestCPU))
	set("api.read_us_p50", "us", us("api.read"))
	idle := median(l["api.read"])
	stall := 0.0
	for _, v := range l["api.read_beside_import"] {
		if v > idle {
			stall += v - idle
		}
	}
	set("api.read_stall_ms_mean", "ms", 1e3*stall/float64(len(l["api.read_beside_import"])))
	set("api.sse_lag_ms_p50", "ms", ms("receipt/api.sse"))

	set("mempool.admit_us", "us", us("mempool.admit")/txs)
	set("mempool.select_us_per_block", "us", us("mempool.select"))

	for _, kind := range engine.Kinds() {
		name := kind.String()
		set("engine."+name+".exec_us_per_tx", "us", us("execute."+name)/txs)
	}
	set("engine.speculative.retries_per_ktx", "count", mean(l["retries.speculative"]))
	set("engine.occ.retries_per_ktx", "count", mean(l["retries.occ"]))
	set("engine.occ.rounds_per_block", "count", mean(l["rounds.occ"]))
	serial := fast(t.serial)
	set("engine.speculative.speedup", "x", serial/fast(t.spec))
	set("engine.occ.speedup", "x", serial/fast(t.occ))
	set("engine.speculative.speedup_vs_1worker", "x", fast(l["mine.speculative_1worker"])/fast(t.spec))

	set("sched.edges_per_block", "count", mean(l["sched.edges"]))
	set("sched.critical_path_share", "%", 100*mean(l["sched.critical_path_share"]))
	set("sched.build_us_per_block", "us", us("sched.build_schedule"))

	set("miner.seal_us_per_block", "us", 1e6*(fast(t.spec)-fast(l["execute.speculative"])))
	set("storage.state_root_ms", "ms", ms("storage.state_root"))
	set("storage.snapshot_ms", "ms", ms("storage.snapshot"))
	set("storage.state_kb", "KB", r.stateKB)

	set("chain.encode_us_per_block", "us", us("chain.encode"))
	set("chain.decode_us_per_block", "us", us("chain.decode"))
	set("chain.decode_allocs_per_block", "count", median(l["chain.decode_allocs"]))
	set("chain.block_bytes_per_tx", "B", median(l["chain.block_bytes"])/txs)

	set("persist.append_us_per_block", "us", us("persist.append"))
	st := r.walStatus
	set("persist.fsync_us_mean", "us", float64(st.WalFsyncMicros)/float64(st.WalFsyncs))
	set("persist.group_size_mean", "count", float64(st.WalAppends)/float64(st.WalFsyncs))
	set("persist.wal_bytes_per_tx", "B", float64(st.WalBytesWritten)/float64(sp.blocks*sp.blockSize))

	set("validator.precheck_us_per_block", "us", us("validator.precheck"))
	set("validator.replay_us_per_block", "us", us("validator.replay"))
	set("validator.speedup", "x", serial/fast(t.validate))

	self := r.trace.selfTimes()
	set("node.mineone_ms_per_block", "ms", ms("receipt/node.mine_one"))
	set("node.accept_ms_per_block", "ms", ms("receipt/node.accept"))
	// A residual is a difference of spans, so its fastest decile is the
	// rounds whose replayed children ran slowest, not a floor: median.
	set("node.glue_ms_per_block", "ms", 1e3*median(self["receipt"]))
	set("node.cpu_us_per_tx_drain", "us", fast(c.drainCPU))

	set("cluster.fetch_ms_per_range", "ms", ms("cluster.fetch"))
	set("importer.run_tx_per_s", "tx/s", float64(c.chainTxs)/fast(l["importer.run"]))

	set("load.receipt_p50_ms", "ms", 1e3*percentile(l["load.receipt"], 50))
	set("load.receipt_p95_ms", "ms", 1e3*percentile(l["load.receipt"], 95))
	set("load.generator_late_ms_p95", "ms", 1e3*percentile(l["load.late"], 95))
	set("host.calib_ms", "ms", ms("host.calib"))

	traced, untraced := txs/fast(c.commit), txs/fast(r.untracedCommit)
	set("trace.commit_overhead_pct", "%", 100*(untraced-traced)/untraced)

	// The receipt path, layer by layer, in medians over the traced
	// rounds (medians add up; the metrics above are fastest-decile
	// means, which do not). The residual is the median self time of the
	// round's span: what none of its children covers.
	receipt := 1e3 * median(c.receipt)
	fmt.Fprintf(w, "receipt path (traced run, median ms per %d-tx round):\n", receiptRoundSize)
	sum := 0.0
	ms = func(key string) float64 { return 1e3 * median(l[key]) }
	for _, part := range []string{"api.submit_last", "mempool.select", "storage.snapshot", "miner.mine", "chain.encode", "persist.append", "node.accept", "api.sse"} {
		v := ms("receipt/" + part)
		sum += v
		fmt.Fprintf(w, "  %-18s %8.3f\n", part, v)
	}
	fmt.Fprintf(w, "  %-18s %8.3f\n  %-18s %8.3f\n  %-18s %8.3f (the node's glue; commit %.0f tx/s traced, %.0f untraced)\n",
		"layers sum", sum, "receipt traced", receipt, "residual", 1e3*median(self["receipt"]), traced, untraced)
}
