package txpool_test

import (
	"errors"
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/mempool"
	"contractstm/internal/miner"
	"contractstm/internal/runtime"
	"contractstm/internal/txpool"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

// TestPipelineRequeueBatchOrdering is the pipeline-abort regression test:
// when several in-flight selections are aborted, RequeueBatch must restore
// every call to its original arrival position — regardless of the order
// the aborts land in, and without letting calls submitted after a
// selection slip ahead of it.
func TestPipelineRequeueBatchOrdering(t *testing.T) {
	pool := newPool()
	for i := uint64(0); i < 4; i++ { // a0..a3
		pool.SubmitTrusted(mempool.TxOf(call(i, 1, "f")))
	}
	selA, err := pool.SelectBatch(txpool.PolicyFIFO, 4)
	if err != nil {
		t.Fatalf("select A: %v", err)
	}
	pool.SubmitTrusted(mempool.TxOf(call(50, 1, "f")))  // x arrives while block A executes
	pool.SubmitTrusted(mempool.TxOf(call(51, 1, "f")))  // y
	selB, err := pool.SelectBatch(txpool.PolicyFIFO, 2) // block B takes x, y
	if err != nil {
		t.Fatalf("select B: %v", err)
	}
	pool.SubmitTrusted(mempool.TxOf(call(60, 1, "f"))) // z arrives while both are in flight

	// The pipeline aborts: block B's requeue lands BEFORE block A's.
	pool.RequeueBatch(selB)
	pool.RequeueBatch(selA)

	drained := selectCalls(t, pool, txpool.PolicyFIFO, 7)
	want := []uint64{0, 1, 2, 3, 50, 51, 60}
	if len(drained) != len(want) {
		t.Fatalf("drained %d calls, want %d", len(drained), len(want))
	}
	for i, w := range want {
		if drained[i].Sender != types.AddressFromUint64(w) {
			t.Fatalf("position %d: got %s, want sender %d", i, drained[i].Sender, w)
		}
	}
	pool.RequeueBatch(mempool.Selection{}) // no-op
	if pool.Len() != 0 {
		t.Fatalf("empty requeue changed len to %d", pool.Len())
	}
}

// hotCall builds a transfer-shaped call with an address argument.
func hotCall(sender, target, arg uint64) contract.Call {
	c := call(sender, target, "transfer")
	c.Args = []any{types.AddressFromUint64(arg), uint64(1)}
	return c
}

// TestLockHintDefersSharedHotHints: after a conflict pair sharing a
// sender hint is reported, the policy keeps two calls with that hot
// sender out of one block — while calls on unscored hints flow freely.
func TestLockHintDefersSharedHotHints(t *testing.T) {
	pool := newPool()
	hot := uint64(7)
	// Feedback: two calls from the hot sender conflicted in a past block.
	pool.ReportConflictPairs([][2]contract.Call{
		{hotCall(hot, 1, 100), hotCall(hot, 1, 101)},
	})

	pool.SubmitTrusted(mempool.TxOf(hotCall(hot, 1, 200)))
	pool.SubmitTrusted(mempool.TxOf(hotCall(hot, 1, 201))) // same hot sender: must be deferred
	pool.SubmitTrusted(mempool.TxOf(hotCall(8, 1, 202)))
	pool.SubmitTrusted(mempool.TxOf(hotCall(9, 1, 203)))

	sel, err := pool.SelectBatch(txpool.PolicyLockHint, 3)
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	if len(sel.Calls) != 3 {
		t.Fatalf("selected %d, want 3", len(sel.Calls))
	}
	hotCount := 0
	for _, c := range sel.Calls {
		if c.Sender == types.AddressFromUint64(hot) {
			hotCount++
		}
	}
	if hotCount != 1 {
		t.Fatalf("block holds %d hot-sender calls, want exactly 1", hotCount)
	}
	// The deferred duplicate is still queued, not dropped.
	if pool.Len() != 1 {
		t.Fatalf("pool len = %d, want 1", pool.Len())
	}
}

// TestLockHintUnscoredHintsNeverThrottle: with no conflict feedback the
// lock-hint policy is plain FIFO — hot hints need evidence before they
// cost anyone anything.
func TestLockHintUnscoredHintsNeverThrottle(t *testing.T) {
	pool := newPool()
	for i := 0; i < 4; i++ {
		pool.SubmitTrusted(mempool.TxOf(hotCall(7, 1, uint64(200+i)))) // same sender four times
	}
	sel, err := pool.SelectBatch(txpool.PolicyLockHint, 4)
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	if len(sel.Calls) != 4 {
		t.Fatalf("selected %d, want 4 (no feedback, no throttling)", len(sel.Calls))
	}
}

// TestLockHintSpeedsUpHotCold closes the feedback loop end to end on the
// workload the policy was built for: Zipf-skewed hot cross-traffic
// (workload.KindHotCold) mined with the speculative engine on simulated
// time. Hot transfers sharing a block serialize on each other's balance
// locks (and occasionally deadlock), stretching the block's critical
// path. After the first block's happens-before pairs are reported, the
// lock-hint policy keeps hot accounts from sharing a block, so the run's
// summed makespan drops below FIFO — and at or below the spread policy,
// whose sender-only hints cannot see that A→B and B→A collide, and whose
// blanket per-function cap throttles the cold majority into its FIFO
// fallback. Like TestSpreadReducesMinerRetries, this models a standing
// backlog (a mempool much deeper than a block): deferral only postpones
// contention, so draining a finite queue to empty pays it all back in the
// tail either way. Everything is deterministic (SimRunner, fixed seed),
// so the comparison is exact, not statistical.
func TestLockHintSpeedsUpHotCold(t *testing.T) {
	const (
		blockSize = 40
		blocks    = 4
	)
	makespan := make(map[txpool.Policy]uint64)
	retries := make(map[txpool.Policy]int)
	for _, policy := range []txpool.Policy{txpool.PolicyFIFO, txpool.PolicySpread, txpool.PolicyLockHint} {
		wl, err := workload.Generate(workload.Params{
			Kind: workload.KindHotCold, Transactions: 10 * blockSize,
			ConflictPercent: 60, Seed: 11,
		})
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		pool := newPool(wl.Calls...)
		eng := engine.MustNew(engine.KindSpeculative)
		root, err := wl.World.StateRoot()
		if err != nil {
			t.Fatalf("state root: %v", err)
		}
		parent := chain.GenesisHeader(root)
		for b := 0; b < blocks; b++ {
			sel, err := pool.SelectBatch(policy, blockSize)
			if err != nil {
				t.Fatalf("select: %v", err)
			}
			res, err := miner.Mine(eng, runtime.NewSimRunner(), wl.World, parent, sel.Calls,
				engine.Options{Workers: 8})
			if err != nil {
				t.Fatalf("mine: %v", err)
			}
			var conflicted []contract.Call
			for _, id := range res.Stats.RetriedTxs {
				conflicted = append(conflicted, sel.Calls[id])
			}
			pool.ReportConflicts(conflicted)
			if len(res.Stats.ConflictPairs) > 0 {
				pairs := make([][2]contract.Call, 0, len(res.Stats.ConflictPairs))
				for _, pr := range res.Stats.ConflictPairs {
					pairs = append(pairs, [2]contract.Call{sel.Calls[pr[0]], sel.Calls[pr[1]]})
				}
				pool.ReportConflictPairs(pairs)
			}
			makespan[policy] += res.Makespan
			retries[policy] += res.Stats.Retries
			parent = res.Block.Header
		}
	}
	t.Logf("HotCold makespan: fifo=%d spread=%d lockhint=%d (retries %d/%d/%d)",
		makespan[txpool.PolicyFIFO], makespan[txpool.PolicySpread], makespan[txpool.PolicyLockHint],
		retries[txpool.PolicyFIFO], retries[txpool.PolicySpread], retries[txpool.PolicyLockHint])
	if makespan[txpool.PolicyLockHint] >= makespan[txpool.PolicyFIFO] {
		t.Fatalf("lockhint makespan %d did not beat fifo %d",
			makespan[txpool.PolicyLockHint], makespan[txpool.PolicyFIFO])
	}
	if makespan[txpool.PolicyLockHint] > makespan[txpool.PolicySpread] {
		t.Fatalf("lockhint makespan %d lost to spread %d",
			makespan[txpool.PolicyLockHint], makespan[txpool.PolicySpread])
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want txpool.Policy
	}{{"fifo", txpool.PolicyFIFO}, {"spread", txpool.PolicySpread}, {"lockhint", txpool.PolicyLockHint}} {
		got, err := txpool.ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := txpool.ParsePolicy("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := newPool().SelectBatch(txpool.PolicyFIFO, 4); !errors.Is(err, txpool.ErrEmpty) {
		t.Fatal("empty pool did not report ErrEmpty")
	}
}
