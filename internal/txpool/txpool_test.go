package txpool

import (
	"errors"
	"sync"
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/miner"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

func call(sender, target uint64, fn string) contract.Call {
	return contract.Call{
		Sender:   types.AddressFromUint64(sender),
		Contract: types.AddressFromUint64(target),
		Function: fn,
		GasLimit: 100_000,
	}
}

func TestFIFOPreservesOrder(t *testing.T) {
	p := New()
	for i := uint64(0); i < 5; i++ {
		p.Submit(call(i, 100, "f"))
	}
	got, err := p.Select(PolicyFIFO, 3)
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("selected %d", len(got))
	}
	for i, c := range got {
		if c.Sender != types.AddressFromUint64(uint64(i)) {
			t.Fatalf("order broken at %d: %v", i, c.Sender)
		}
	}
	if p.Len() != 2 {
		t.Fatalf("remaining = %d", p.Len())
	}
}

func TestSelectEmpty(t *testing.T) {
	p := New()
	if _, err := p.Select(PolicyFIFO, 10); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
	if _, err := p.Select(PolicyFIFO, 0); err == nil {
		t.Fatal("zero block size accepted")
	}
}

func TestSelectFewerThanBlockSize(t *testing.T) {
	p := New()
	p.Submit(call(1, 100, "f"))
	got, err := p.Select(PolicyFIFO, 10)
	if err != nil || len(got) != 1 {
		t.Fatalf("got %d, %v", len(got), err)
	}
	if p.Len() != 0 {
		t.Fatal("pool not drained")
	}
}

func TestSpreadDefersCollidingSenders(t *testing.T) {
	p := New()
	// Ten submissions from ONE sender plus five distinct senders.
	for i := 0; i < 10; i++ {
		p.Submit(call(7, 100, "vote"))
	}
	for i := uint64(20); i < 25; i++ {
		p.Submit(call(i, 100, "vote"))
	}
	got, err := p.Select(PolicySpread, 6)
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	if len(got) != 6 {
		t.Fatalf("selected %d", len(got))
	}
	// At most one call from the hot sender in this block.
	hot := 0
	for _, c := range got {
		if c.Sender == types.AddressFromUint64(7) {
			hot++
		}
	}
	if hot != 1 {
		t.Fatalf("hot sender appears %d times, want 1", hot)
	}
	// Nothing lost: the deferred ones are still queued.
	if p.Len() != 15-6 {
		t.Fatalf("remaining = %d, want 9", p.Len())
	}
}

func TestSpreadFallsBackWhenAllCollide(t *testing.T) {
	p := New()
	for i := 0; i < 8; i++ {
		p.Submit(call(7, 100, "vote"))
	}
	got, err := p.Select(PolicySpread, 4)
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	if len(got) != 4 {
		t.Fatalf("all-colliding pool must still fill the block: got %d", len(got))
	}
}

func TestSpreadDrainsEverythingAcrossBlocks(t *testing.T) {
	p := New()
	for i := 0; i < 30; i++ {
		p.Submit(call(uint64(i%3), 100, "f")) // 3 hot senders
	}
	total := 0
	for p.Len() > 0 {
		got, err := p.Select(PolicySpread, 5)
		if err != nil {
			t.Fatalf("select: %v", err)
		}
		if len(got) == 0 {
			t.Fatal("empty block with work queued")
		}
		total += len(got)
	}
	if total != 30 {
		t.Fatalf("drained %d, want 30", total)
	}
}

func TestConcurrentSubmit(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p.Submit(call(uint64(g*1000+i), 100, "f"))
			}
		}(g)
	}
	wg.Wait()
	if p.Len() != 400 {
		t.Fatalf("len = %d", p.Len())
	}
}

func TestSpreadReducesMinerRetries(t *testing.T) {
	// The paper's §7.3 claim, measured in the realistic regime: a mempool
	// backlog much larger than a block. The miner assembles three
	// 40-transaction blocks from a 360-transaction conflict-heavy backlog;
	// the adaptive spread policy (fed by the miner's retry reports) must
	// cut speculative retries versus FIFO selection. Note spreading only
	// *postpones* contention — over a full drain of a fixed finite backlog
	// the conflicts dominate the tail either way, which is why this models
	// a standing backlog instead.
	wl, err := workload.Generate(workload.Params{
		Kind: workload.KindAuction, Transactions: 360, ConflictPercent: 60, Seed: 5,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	parent := chain.GenesisHeader(types.HashString("txpool-test"))

	mineBlocks := func(policy Policy, blocks int) (retries, mined int) {
		wl.Reset()
		pool := New()
		pool.SubmitAll(wl.Calls)
		for b := 0; b < blocks; b++ {
			calls, err := pool.Select(policy, 40)
			if err != nil {
				t.Fatalf("select: %v", err)
			}
			res, err := miner.Mine(engine.SpeculativeEngine{}, runtime.NewSimRunner(), wl.World, parent, calls,
				engine.Options{Workers: 3})
			if err != nil {
				t.Fatalf("mine: %v", err)
			}
			// Conflict feedback: the adaptive cap only engages for
			// functions the miner observed retrying.
			var conflicted []contract.Call
			for _, id := range res.Stats.RetriedTxs {
				conflicted = append(conflicted, calls[id])
			}
			pool.ReportConflicts(conflicted)
			retries += res.Stats.Retries
			mined += len(calls)
		}
		return retries, mined
	}

	fifoRetries, fifoMined := mineBlocks(PolicyFIFO, 3)
	spreadRetries, spreadMined := mineBlocks(PolicySpread, 3)
	if fifoMined != 120 || spreadMined != 120 {
		t.Fatalf("mined %d/%d, want 120 each", fifoMined, spreadMined)
	}
	if spreadRetries >= fifoRetries {
		t.Fatalf("adaptive spread should cut retries: spread=%d fifo=%d", spreadRetries, fifoRetries)
	}
	t.Logf("retries over 3 blocks: fifo=%d spread=%d", fifoRetries, spreadRetries)
}

func TestPolicyStrings(t *testing.T) {
	if PolicyFIFO.String() == "" || PolicySpread.String() == "" || Policy(9).String() == "" {
		t.Fatal("empty policy string")
	}
}

// TestSubmitAllAtomic submits batches concurrently with FIFO drains and
// checks every drained batch is contiguous: because SubmitAll holds the
// lock across the whole batch, no other submitter's calls can interleave
// inside it.
func TestSubmitAllAtomic(t *testing.T) {
	const (
		submitters = 8
		batches    = 20
		batchLen   = 16
	)
	pool := New()
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch := make([]contract.Call, batchLen)
				for i := range batch {
					// Sender encodes (submitter, batch); the batch's calls
					// must come out adjacent in the drained stream.
					batch[i] = call(uint64(s)<<32|uint64(b), uint64(i), "f")
				}
				pool.SubmitAll(batch)
			}
		}(s)
	}
	wg.Wait()
	total := submitters * batches * batchLen
	if pool.Len() != total {
		t.Fatalf("pool holds %d, want %d", pool.Len(), total)
	}
	var drained []contract.Call
	for pool.Len() > 0 {
		calls, err := pool.Select(PolicyFIFO, 64)
		if err != nil {
			t.Fatalf("Select: %v", err)
		}
		drained = append(drained, calls...)
	}
	for i := 0; i < len(drained); i += batchLen {
		owner := drained[i].Sender
		for j := 1; j < batchLen; j++ {
			if drained[i+j].Sender != owner {
				t.Fatalf("batch starting at %d interleaved: %s then %s", i, owner, drained[i+j].Sender)
			}
		}
	}
}

// TestConflictScoreStaysBounded feeds sustained conflict reports with
// ever-new (contract, function) pairs and checks the score map neither
// grows past its cap nor keeps stale entries alive forever.
func TestConflictScoreStaysBounded(t *testing.T) {
	pool := New()
	for round := 0; round < 200; round++ {
		batch := make([]contract.Call, 50)
		for i := range batch {
			batch[i] = call(1, uint64(round*1000+i), "hot")
		}
		pool.ReportConflicts(batch)
		if n := pool.conflictEntries(); n > maxConflictEntries {
			t.Fatalf("round %d: %d conflict entries, cap %d", round, n, maxConflictEntries)
		}
	}
	if n := pool.conflictEntries(); n == 0 || n > maxConflictEntries {
		t.Fatalf("final conflict entries = %d, want (0, %d]", n, maxConflictEntries)
	}
	// Decay drains a score that stops being reported: a single entry
	// reported once disappears after enough unrelated traffic.
	fresh := New()
	fresh.ReportConflicts([]contract.Call{call(7, 7, "once")})
	for i := 0; i < conflictDecayEvery; i++ {
		fresh.ReportConflicts([]contract.Call{call(8, 8, "noise")})
	}
	fresh.mu.Lock()
	_, alive := fresh.conflictScore[funcHint{contract: types.AddressFromUint64(7), function: "once"}]
	fresh.mu.Unlock()
	if alive {
		t.Fatal("stale conflict score survived decay")
	}
}

// TestRequeuePreservesOrderAtFront checks a failed mining attempt's calls
// go back to the queue head in their original relative order, ahead of
// anything submitted meanwhile.
func TestRequeuePreservesOrderAtFront(t *testing.T) {
	pool := New()
	for i := uint64(0); i < 6; i++ {
		pool.Submit(call(i, 1, "f"))
	}
	selected, err := pool.Select(PolicyFIFO, 4)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	pool.Submit(call(100, 1, "f")) // arrives while the block executes
	pool.Requeue(selected)         // ...and the mining attempt fails
	if pool.Len() != 7 {
		t.Fatalf("pool len = %d, want 7", pool.Len())
	}
	drained, err := pool.Select(PolicyFIFO, 7)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	wantSenders := []uint64{0, 1, 2, 3, 4, 5, 100}
	for i, want := range wantSenders {
		if drained[i].Sender != types.AddressFromUint64(want) {
			t.Fatalf("position %d: got %s, want sender %d", i, drained[i].Sender, want)
		}
	}
	pool.Requeue(nil) // no-op
	if pool.Len() != 0 {
		t.Fatalf("empty requeue changed len to %d", pool.Len())
	}
}
