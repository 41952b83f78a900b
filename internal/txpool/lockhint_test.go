package txpool

import (
	"errors"
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/miner"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

// TestPipelineRequeueBatchOrdering is the pipeline-abort regression test:
// when several in-flight selections are aborted, RequeueBatch must restore
// every call to its original arrival position — regardless of the order
// the aborts land in, and without letting calls submitted after a
// selection slip ahead of it.
func TestPipelineRequeueBatchOrdering(t *testing.T) {
	pool := New()
	for i := uint64(0); i < 4; i++ { // a0..a3
		pool.Submit(call(i, 1, "f"))
	}
	selA, err := pool.SelectBatch(PolicyFIFO, 4)
	if err != nil {
		t.Fatalf("select A: %v", err)
	}
	pool.Submit(call(50, 1, "f"))                // x arrives while block A executes
	pool.Submit(call(51, 1, "f"))                // y
	selB, err := pool.SelectBatch(PolicyFIFO, 2) // block B takes x, y
	if err != nil {
		t.Fatalf("select B: %v", err)
	}
	pool.Submit(call(60, 1, "f")) // z arrives while both are in flight

	// The pipeline aborts: block B's requeue lands BEFORE block A's (the
	// interleaving legacy Requeue got wrong — it would leave B ahead of A).
	pool.RequeueBatch(selB)
	pool.RequeueBatch(selA)

	drained, err := pool.Select(PolicyFIFO, 7)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	want := []uint64{0, 1, 2, 3, 50, 51, 60}
	if len(drained) != len(want) {
		t.Fatalf("drained %d calls, want %d", len(drained), len(want))
	}
	for i, w := range want {
		if drained[i].Sender != types.AddressFromUint64(w) {
			t.Fatalf("position %d: got %s, want sender %d", i, drained[i].Sender, w)
		}
	}
	pool.RequeueBatch(Selection{}) // no-op
	if pool.Len() != 0 {
		t.Fatalf("empty requeue changed len to %d", pool.Len())
	}
}

// TestPipelineRequeueAfterLegacyRequeue: the legacy front-requeue and the
// seq-merging batch requeue must compose — a legacy entry jumps ahead of
// everything queued *or in flight* at requeue time (it takes sequence
// numbers below both the queue minimum and any selected batch's seqs),
// so a batch merged back afterwards lands behind it, intact — never
// interleaved through it.
func TestPipelineRequeueAfterLegacyRequeue(t *testing.T) {
	pool := New()
	for i := uint64(0); i < 3; i++ {
		pool.Submit(call(i, 1, "f"))
	}
	sel, err := pool.SelectBatch(PolicyFIFO, 2) // takes 0, 1
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	pool.Requeue([]contract.Call{call(90, 1, "f")}) // legacy: jumps the queue
	pool.RequeueBatch(sel)
	drained, err := pool.Select(PolicyFIFO, 4)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	want := []uint64{90, 0, 1, 2}
	for i, w := range want {
		if drained[i].Sender != types.AddressFromUint64(w) {
			t.Fatalf("position %d: got %s, want sender %d", i, drained[i].Sender, w)
		}
	}
}

// TestPipelineRequeueNeverSplitsBatch: repeated legacy requeues while a
// selection is in flight must not mint sequence numbers colliding with
// the batch's — a batch merged back later stays contiguous instead of
// having legacy entries interleaved through its middle.
func TestPipelineRequeueNeverSplitsBatch(t *testing.T) {
	pool := New()
	for i := uint64(0); i < 3; i++ {
		pool.Submit(call(i, 1, "f")) // queue: 0, 1, 2
	}
	sel, err := pool.SelectBatch(PolicyFIFO, 2) // in flight: seqs 0, 1
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	pool.Requeue([]contract.Call{call(80, 1, "f")}) // would collide at seq 1 pre-fix
	pool.Requeue([]contract.Call{call(81, 1, "f")}) // ...and at seq 0
	pool.RequeueBatch(sel)
	drained, err := pool.Select(PolicyFIFO, 5)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	want := []uint64{81, 80, 0, 1, 2} // batch contiguous, legacy jumpers ahead
	for i, w := range want {
		if drained[i].Sender != types.AddressFromUint64(w) {
			got := make([]string, len(drained))
			for j, c := range drained {
				got[j] = c.Sender.Short()
			}
			t.Fatalf("position %d: drained %v, want senders %v", i, got, want)
		}
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
	pool := New()
	hot := uint64(7)
	// Feedback: two calls from the hot sender conflicted in a past block.
	pool.ReportConflictPairs([][2]contract.Call{
		{hotCall(hot, 1, 100), hotCall(hot, 1, 101)},
	})

	pool.Submit(hotCall(hot, 1, 200))
	pool.Submit(hotCall(hot, 1, 201)) // same hot sender: must be deferred
	pool.Submit(hotCall(8, 1, 202))
	pool.Submit(hotCall(9, 1, 203))

	sel, err := pool.SelectBatch(PolicyLockHint, 3)
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
	pool := New()
	for i := 0; i < 4; i++ {
		pool.Submit(hotCall(7, 1, uint64(200+i))) // same sender four times
	}
	sel, err := pool.SelectBatch(PolicyLockHint, 4)
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	if len(sel.Calls) != 4 {
		t.Fatalf("selected %d, want 4 (no feedback, no throttling)", len(sel.Calls))
	}
}

// TestLockHintScoreStaysBounded mirrors the conflict-score bound: a pool
// fed an unbounded stream of distinct conflict pairs holds a capped map.
func TestLockHintScoreStaysBounded(t *testing.T) {
	pool := New()
	for i := uint64(0); i < 4*maxConflictEntries; i += 2 {
		pool.ReportConflictPairs([][2]contract.Call{
			{hotCall(i, 1, i), hotCall(i, 1, i+1)},
		})
	}
	if got := pool.hintEntries(); got > maxConflictEntries {
		t.Fatalf("hint map grew to %d entries, cap is %d", got, maxConflictEntries)
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
	makespan := make(map[Policy]uint64)
	retries := make(map[Policy]int)
	for _, policy := range []Policy{PolicyFIFO, PolicySpread, PolicyLockHint} {
		wl, err := workload.Generate(workload.Params{
			Kind: workload.KindHotCold, Transactions: 10 * blockSize,
			ConflictPercent: 60, Seed: 11,
		})
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		pool := New()
		pool.SubmitAll(wl.Calls)
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
		makespan[PolicyFIFO], makespan[PolicySpread], makespan[PolicyLockHint],
		retries[PolicyFIFO], retries[PolicySpread], retries[PolicyLockHint])
	if makespan[PolicyLockHint] >= makespan[PolicyFIFO] {
		t.Fatalf("lockhint makespan %d did not beat fifo %d",
			makespan[PolicyLockHint], makespan[PolicyFIFO])
	}
	if makespan[PolicyLockHint] > makespan[PolicySpread] {
		t.Fatalf("lockhint makespan %d lost to spread %d",
			makespan[PolicyLockHint], makespan[PolicySpread])
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{{"fifo", PolicyFIFO}, {"spread", PolicySpread}, {"lockhint", PolicyLockHint}} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := (&Pool{}).SelectBatch(PolicyFIFO, 4); !errors.Is(err, ErrEmpty) {
		t.Fatal("empty pool did not report ErrEmpty")
	}
}
