package main

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	goruntime "runtime"
	"sync"
	"syscall"
	"time"

	"contractstm/internal/api/client"
	"contractstm/internal/cluster"
	"contractstm/internal/contract"
	"contractstm/internal/importer"
	"contractstm/internal/node"
	"contractstm/internal/txpool"
)

// commitWindow is how many consecutive full blocks make one commit
// (and one drain-CPU) sample.
const commitWindow = 5

// chainTimes are the samples of phases C–F, pooled over reps.
type chainTimes struct {
	// commit holds the time per block over every run of commitWindow
	// consecutive full durable blocks, in seconds; drainCPU the process
	// CPU per transaction over the same windows, in microseconds.
	commit, drainCPU []float64
	// Per ingest segment (one block's worth of submits): process CPU per
	// transaction in microseconds, and wall-clock seconds.
	ingestCPU, ingestWall []float64
	// Per rep: bytes allocated over ingest + drain, and live heap after.
	allocPerTx, liveHeap []float64
	submit               []float64
	receipt              []float64
	recover, sync        []float64
	chainTxs             int
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phaseChain runs phases A and C on every rep's fresh pair and E and F
// on the last rep's chain, then phase D (and the traced run's probes)
// on a pair of its own.
func (r *run) phaseChain() error {
	var t chainTimes
	for rep := 0; rep < r.spec.reps; rep++ {
		p, err := r.newPair("cluster.send_block")
		if err != nil {
			return err
		}
		start := time.Now()
		err = r.phaseIngestDrain(p, &t, rep)
		r.timePhase("C", start)
		if err == nil && rep == r.spec.reps-1 {
			err = r.recoverAndSync(p, &t)
		}
		p.close()
		if err != nil {
			return err
		}
		goruntime.GC()
	}

	p, err := r.newPair("receipt")
	if err != nil {
		return err
	}
	err = r.receiptPhases(p, &t)
	p.close()
	if err != nil {
		return err
	}
	for len(r.setups) < r.spec.setups {
		p, err := r.newPair("")
		if err != nil {
			return err
		}
		p.close()
	}

	r.chainTimes = t
	if r.trace == nil {
		txs := float64(r.spec.blockSize)
		r.rep.set("commit_tx_per_s", "tx/s", txs/fast(t.commit))
		r.rep.set("receipt_ms", "ms", 1e3*fast(t.receipt))
		r.rep.set("recover_tx_per_s", "tx/s", float64(t.chainTxs)/fast(t.recover))
		r.rep.set("sync_tx_per_s", "tx/s", float64(t.chainTxs)/fast(t.sync))
		r.rep.set("cpu_us_per_tx", "us", fast(t.ingestCPU)+fast(t.drainCPU))
		r.rep.set("alloc_kb_per_tx", "KB", median(t.allocPerTx))
		r.rep.set("live_heap_mb", "MB", median(t.liveHeap))
		r.rep.set("setup_s", "s", fast(r.setups))
	}
	return nil
}

// recoverAndSync runs phases E and F on a drained pair's chain.
func (r *run) recoverAndSync(p *pair, t *chainTimes) error {
	t.chainTxs = r.spec.blocks * r.spec.blockSize
	goruntime.GC()
	start := time.Now()
	src, err := r.phaseRecover(p, t)
	r.timePhase("E", start)
	if err != nil {
		return fmt.Errorf("phase E (recover): %w", err)
	}
	defer src.Kill()
	goruntime.GC()
	start = time.Now()
	err = r.phaseSync(p, src, t)
	r.timePhase("F", start)
	if err != nil {
		return fmt.Errorf("phase F (sync): %w", err)
	}
	return nil
}

// receiptPhases runs phase D, and on a traced run the loaded run and
// the read probes, on a fresh pair.
func (r *run) receiptPhases(p *pair, t *chainTimes) error {
	start := time.Now()
	submitted, err := r.phaseReceipts(p, t)
	r.timePhase("D", start)
	if r.shadow != nil {
		defer r.shadow.path.log.Close()
	}
	if err != nil {
		return fmt.Errorf("phase D (receipt rounds): %w", err)
	}
	r.calibrate()
	if r.trace != nil {
		start = time.Now()
		n, err := r.phaseLoaded(p, submitted)
		submitted += n
		if err != nil {
			return fmt.Errorf("phase G (loaded run): %w", err)
		}
		if err := r.probeReads(p); err != nil {
			return fmt.Errorf("phase G (reads): %w", err)
		}
		r.timePhase("G", start)
	}
	p.tallyReceipts(submitted)
	return nil
}

// phaseIngestDrain is phase C on one fresh pair: nproc closed-loop SDK
// clients submit the rep's calls while the miner is idle; then the
// leader drains the pool and every durable block goes to the follower.
// The two never overlap: run together on two cores they collapse each
// other's rate and triple its spread.
func (r *run) phaseIngestDrain(p *pair, t *chainTimes, rep int) error {
	sp := r.spec
	calls := p.wl.Calls[:sp.blocks*sp.blockSize]
	// A traced run measures its tracing overhead against one untraced
	// rep: not the first, which also warms the process up.
	untraced := r.trace != nil && sp.reps > 1 && rep == (sp.reps-1)/2
	r.trace.pause(untraced)
	defer r.trace.pause(false)

	goruntime.GC()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)

	// Ingest one block's worth of calls at a time: a segment is the
	// unit of the ingest rate and of its CPU cost.
	for seg := 0; seg < len(calls); seg += sp.blockSize {
		cpu0, start := cpuTime(), time.Now()
		if err := r.ingest(p, calls, seg, seg+sp.blockSize, t); err != nil {
			return fmt.Errorf("phase C (ingest): %w", err)
		}
		t.ingestWall = append(t.ingestWall, time.Since(start).Seconds())
		t.ingestCPU = append(t.ingestCPU, float64((cpuTime()-cpu0).Microseconds())/float64(sp.blockSize))
	}

	var reader *pacedReader
	if r.trace != nil && rep == sp.reps-1 {
		reader = r.startPacedReader(p)
	}
	height, err := r.drain(p, sp.blockSize)
	if err != nil {
		return fmt.Errorf("phase C (drain): %w", err)
	}
	events, err := p.await(height)
	if err != nil {
		return fmt.Errorf("phase C (drain): %w", err)
	}
	if reader != nil {
		reader.stop()
	}
	goruntime.ReadMemStats(&after)

	stamps := make([]time.Time, len(events))
	cpus := make([]float64, len(events))
	for i, ev := range events {
		stamps[i] = ev.at
		cpus[i] = float64(ev.cpu.Microseconds())
	}
	full := func(i int) bool { return events[i].txs == sp.blockSize }
	gaps := intervals(stamps, full)
	var cpuGaps []float64
	for i := 1; i < len(cpus); i++ {
		if full(i-1) && full(i) {
			cpuGaps = append(cpuGaps, (cpus[i]-cpus[i-1])/float64(sp.blockSize))
		}
	}
	// The first intervals of a fresh pair fill the pipeline window.
	if len(gaps) > 2*drainWarmup {
		gaps, cpuGaps = gaps[drainWarmup:], cpuGaps[drainWarmup:]
	}
	if untraced {
		r.untracedCommit = windows(gaps, commitWindow)
	} else {
		t.commit = append(t.commit, windows(gaps, commitWindow)...)
	}
	t.drainCPU = append(t.drainCPU, windows(cpuGaps, commitWindow)...)

	t.allocPerTx = append(t.allocPerTx, float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(len(calls)))
	goruntime.GC()
	goruntime.ReadMemStats(&after)
	t.liveHeap = append(t.liveHeap, float64(after.HeapAlloc)/(1<<20))

	r.checkFollower(p)
	p.tallyReceipts(len(calls))
	r.walStatus = p.leader.CurrentStatus()
	r.calibrate()
	return nil
}

// ingest submits calls[from:to] over HTTP from nproc closed-loop SDK
// clients and waits for all of them.
func (r *run) ingest(p *pair, calls []contract.Call, from, to int, t *chainTimes) error {
	ctx := context.Background()
	clients := goruntime.NumCPU()
	lat := make([][]float64, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sdk := client.New(p.leaderSrv.URL, client.WithHTTPClient(p.hc))
			for i := from + c; i < to; i += clients {
				start := time.Now()
				err := submit(ctx, sdk, calls[i])
				end := time.Now()
				if err != nil {
					errs[c] = fmt.Errorf("submit call %d: %w", i, err)
					return
				}
				lat[c] = append(lat[c], end.Sub(start).Seconds())
				if i%64 == 0 {
					r.trace.add("api.submit", "", uint64(i), start, end)
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		r.rep.check(err == nil, "%v", err)
		if err != nil {
			return err
		}
		t.submit = append(t.submit, lat[c]...)
	}
	return nil
}

// drainWarmup is how many leading commit intervals each rep discards.
const drainWarmup = 2

// drain mines until the pool is empty and every sealed block has its
// durability verdict, and returns the leader's height.
func (r *run) drain(p *pair, blockSize int) (uint64, error) {
	for {
		start := time.Now()
		b, err := p.leader.MineOne(blockSize)
		if errors.Is(err, txpool.ErrEmpty) {
			break
		}
		if err != nil {
			return 0, err
		}
		r.trace.add("node.mine_one", "", b.Header.Number, start, time.Now())
	}
	if err := p.leader.Flush(); err != nil {
		return 0, err
	}
	return p.leader.Height(), nil
}

// checkFollower verifies that the follower holds the leader's head and
// that both worlds actually hash to the state root it commits to.
func (r *run) checkFollower(p *pair) {
	lh, fh := p.leader.Head().Header, p.follower.Head().Header
	r.rep.check(lh.Hash() == fh.Hash(), "follower head %d %s != leader head %d %s",
		fh.Number, fh.Hash().Short(), lh.Number, lh.Hash().Short())
	lroot, lerr := p.wl.World.StateRoot()
	froot, ferr := p.fwl.World.StateRoot()
	r.rep.check(lerr == nil && ferr == nil && lroot == lh.StateRoot && froot == lh.StateRoot,
		"state roots diverge at height %d: leader %s follower %s header %s",
		lh.Number, lroot.Short(), froot.Short(), lh.StateRoot.Short())
}

// phaseReceipts is phase D: one round at a time, submit 64 transactions
// over HTTP, mine them, and time from sending the last POST to the event
// that carries its receipt — the latency of a confirmation with nothing
// queued ahead of it. It returns how many transactions it submitted.
func (r *run) phaseReceipts(p *pair, t *chainTimes) (int, error) {
	sdk := client.New(p.leaderSrv.URL, client.WithHTTPClient(p.hc))
	ctx := context.Background()
	rounds := r.spec.receiptRounds
	if r.trace != nil {
		// The traced run leaves calls for the loaded run.
		rounds = rounds * 6 / 10
		if rounds < 2 {
			rounds = 2
		}
	}
	submitted := 0
	for round := 0; round < rounds; round++ {
		calls := p.wl.Calls[round*receiptRoundSize : (round+1)*receiptRoundSize]
		var sent, lastDone time.Time
		for i, c := range calls {
			if i == len(calls)-1 {
				sent = time.Now()
			}
			err := submit(ctx, sdk, c)
			r.rep.check(err == nil, "submit call %d: %v", submitted, err)
			if err != nil {
				return submitted, err
			}
			submitted++
		}
		lastDone = time.Now()
		mineStart := time.Now()
		b, err := p.leader.MineOne(receiptRoundSize)
		if err != nil {
			return submitted, err
		}
		mineEnd := time.Now()
		events, err := p.await(b.Header.Number)
		if err != nil {
			return submitted, err
		}
		ev := events[len(events)-1]
		want := (round+1)*receiptRoundSize - 1
		r.rep.check(ev.number == b.Header.Number && ev.maxIdx == want && ev.txs == receiptRoundSize,
			"round %d: event for block %d (%d txs, last call %d) does not carry call %d of block %d",
			round, ev.number, ev.txs, ev.maxIdx, want, b.Header.Number)
		if round >= warmupUnits || rounds <= warmupUnits {
			t.receipt = append(t.receipt, ev.at.Sub(sent).Seconds())
		}
		if r.trace != nil {
			r.trace.add("receipt", "", b.Header.Number, sent, ev.at)
			r.trace.add("api.submit_last", "receipt", b.Header.Number, sent, lastDone)
			r.sample("receipt/api.submit_last", lastDone.Sub(sent).Seconds())
			r.trace.add("node.mine_one", "", b.Header.Number, mineStart, mineEnd)
			r.sample("receipt/node.mine_one", mineEnd.Sub(mineStart).Seconds())
			if err := r.attributeRound(p, b, ev); err != nil {
				return submitted, err
			}
		}
	}
	r.checkFollower(p)
	return submitted, nil
}

// phaseRecover is phase E: crash the leader, then reopen its data dir
// several times. Each reopen replays the whole WAL through the
// validator; the last recovered node stays up as phase F's source.
func (r *run) phaseRecover(p *pair, t *chainTimes) (*node.Node, error) {
	if err := p.leader.Flush(); err != nil {
		return nil, err
	}
	head := p.leader.Head().Header
	p.leaderSrv.Close()
	p.leaderSrv = nil
	p.leader.Kill()
	p.leader = nil

	var n *node.Node
	for i := 0; i < r.spec.reopens; i++ {
		if n != nil {
			n.Kill()
		}
		p.wl.Reset()
		start := time.Now()
		var err error
		if n, err = node.New(p.leaderCfg); err != nil {
			r.rep.check(false, "reopen %d: %v", i, err)
			return nil, err
		}
		t.recover = append(t.recover, time.Since(start).Seconds())
		got := n.Head().Header
		r.rep.check(got.Number == head.Number && got.Hash() == head.Hash() && n.RecoveredBlocks() == int(head.Number),
			"reopen %d recovered %d blocks to height %d %s, durable head was %d %s",
			i, n.RecoveredBlocks(), got.Number, got.Hash().Short(), head.Number, head.Hash().Short())
	}
	return n, nil
}

// freshFollower returns an in-memory node at genesis on the pair's
// follower world, importing through the staged pipeline.
func (r *run) freshFollower(p *pair) (*node.Node, error) {
	p.fwl.Reset()
	return node.New(node.Config{
		World: p.fwl.World, Workers: r.workers, Runner: r.nodeRunner(), ImportMode: node.ImportOn,
	})
}

// phaseSync is phase F: a fresh in-memory node catches up from the
// recovered leader over HTTP through the staged import pipeline.
func (r *run) phaseSync(p *pair, src *node.Node, t *chainTimes) error {
	p.followerSrv.Close()
	p.followerSrv = nil
	p.follower.Kill()
	p.follower = nil
	srv := httptest.NewServer(src.Handler())
	defer srv.Close()
	want := src.Head().Header
	peer := cluster.NewPeer(srv.URL, p.hc)
	for i := 0; i < r.spec.reopens; i++ {
		n, err := r.freshFollower(p)
		if err != nil {
			return err
		}
		start := time.Now()
		imported, err := cluster.SyncWith(context.Background(), n, peer, importer.Config{})
		t.sync = append(t.sync, time.Since(start).Seconds())
		got := n.Head().Header
		r.rep.check(err == nil && imported == int(want.Number) && got.Hash() == want.Hash() && n.ImportDivergences() == 0,
			"sync %d imported %d blocks to %d %s, source head %d %s (err %v)",
			i, imported, got.Number, got.Hash().Short(), want.Number, want.Hash().Short(), err)
		if err != nil {
			return err
		}
	}
	if r.trace != nil {
		return r.probeSync(p, src, peer)
	}
	return nil
}
