package validator

import (
	"testing"

	"contractstm/internal/engine"
	"contractstm/internal/miner"
	"contractstm/internal/runtime"
	"contractstm/internal/workload"
)

// TestValidateAllocCeiling fails when validating one block — the cost
// every follower pays per imported block — starts to allocate more. The
// block is the representative one (see workload.HotPathParams), mined
// by the OCC engine. The ceiling is 1.1 times the plain count, 370. The
// race detector makes sync.Pool drop a quarter of what is put back, so
// under -race the ceiling stays the earlier 618, against a highest count
// of 594 in ten runs.
func TestValidateAllocCeiling(t *testing.T) {
	wl, err := workload.Generate(workload.HotPathParams)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	res, err := miner.Mine(engine.MustNew(engine.KindOCC), runtime.NewSimRunner(), wl.World, genesis(), wl.Calls, engine.Options{Workers: 3})
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	ceiling := 407.0
	if raceDetector {
		ceiling = 618
	}
	allocs := testing.AllocsPerRun(5, func() {
		wl.Reset()
		if _, err := Validate(runtime.NewSimRunner(), wl.World, res.Block, Config{Workers: 3}); err != nil {
			t.Fatalf("validate: %v", err)
		}
	})
	t.Logf("%.0f allocs per block, ceiling %.0f", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("Validate allocates %.0f times per block, ceiling %.0f", allocs, ceiling)
	}
}

// TestValidateTransferAllocs holds validating a block of token transfers
// to at most four allocations per transfer plus a per-block constant:
// the write path logs its undo records by value, takes its root and
// contract environment from pools and keeps the caller's map keys on the
// stack. The block is BenchmarkValidateTokenBlock's: 500 transfers,
// mined in parallel. It measures 2,100 allocations, 4.0 per transfer
// (4,020 for 1,000 transfers, 434 for 100) and 100 per block on top; the
// four per transfer are the trie's copy-on-write of the two balances a
// transfer writes, the boxed counter and, for a recipient the state has
// never seen, its key. The per-block allowance is 200; under -race each
// transfer may cost racePerTx more, for the pools' random drops.
func TestValidateTransferAllocs(t *testing.T) {
	const transfers, perTransfer, perBlock = 500, 4, 200
	wl, err := workload.Generate(workload.Params{Kind: workload.KindToken, Transactions: transfers, ConflictPercent: 15, Seed: 1})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	runner := runtime.NewOSRunner(runtime.SpinBurn(0))
	res, err := miner.Mine(engine.SpeculativeEngine{}, runner, wl.World, genesis(), wl.Calls, engine.Options{Workers: 2})
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		wl.Reset()
		if _, err := Validate(runner, wl.World, res.Block, Config{Workers: 2}); err != nil {
			t.Fatalf("validate: %v", err)
		}
	})
	ceiling := float64((perTransfer+racePerTx)*transfers + perBlock)
	t.Logf("%.0f allocs for %d transfers, ceiling %.0f", allocs, transfers, ceiling)
	if allocs > ceiling {
		t.Errorf("validating %d transfers allocates %.0f times, ceiling %d per transfer + %d = %.0f",
			transfers, allocs, perTransfer+racePerTx, perBlock, ceiling)
	}
}
