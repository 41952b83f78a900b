package main

import (
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/engine"
	"contractstm/internal/miner"
	"contractstm/internal/runtime"
	"contractstm/internal/sched"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

func mineFor(t *testing.T, kind workload.Kind, conflict int) chain.Block {
	t.Helper()
	wl, err := workload.Generate(workload.Params{
		Kind: kind, Transactions: 40, ConflictPercent: conflict, Seed: 9,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	res, err := miner.Mine(engine.SpeculativeEngine{}, runtime.NewSimRunner(), wl.World,
		chain.GenesisHeader(types.HashString("reward")), wl.Calls, engine.Options{Workers: 3})
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	return res.Block
}

func TestParallelScheduleEarnsFullBonus(t *testing.T) {
	b := mineFor(t, workload.KindBallot, 0) // edge-free schedule
	br, err := Compute(b, DefaultParams())
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if br.Parallelism != 1 {
		t.Fatalf("parallelism = %f, want 1", br.Parallelism)
	}
	if br.Bonus != DefaultParams().ParallelismBonus {
		t.Fatalf("bonus = %d, want full %d", br.Bonus, DefaultParams().ParallelismBonus)
	}
	if br.Total != br.Base+br.Bonus {
		t.Fatalf("total = %d", br.Total)
	}
}

func TestSerializedScheduleForfeitsBonus(t *testing.T) {
	// The §4 slowdown attack: add every consecutive edge of S to H. The
	// block stays valid (see validator tests) but earns no bonus.
	b := mineFor(t, workload.KindBallot, 0)
	order := b.Schedule.Order
	for i := 1; i < len(order); i++ {
		b.Schedule.Edges = append(b.Schedule.Edges, sched.Edge{From: order[i-1], To: order[i]})
	}
	br, err := Compute(b, DefaultParams())
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if br.Parallelism != 0 || br.Bonus != 0 {
		t.Fatalf("serialized schedule still earns: %+v", br)
	}
	if br.Total != DefaultParams().BaseSubsidy {
		t.Fatalf("total = %d, want base only", br.Total)
	}
}

func TestBonusMonotoneInConflict(t *testing.T) {
	// More real conflict → longer critical path → smaller bonus.
	low, err := Compute(mineFor(t, workload.KindAuction, 10), DefaultParams())
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	high, err := Compute(mineFor(t, workload.KindAuction, 90), DefaultParams())
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if high.Bonus >= low.Bonus {
		t.Fatalf("bonus not monotone: high-conflict %d >= low-conflict %d", high.Bonus, low.Bonus)
	}
}

func TestFees(t *testing.T) {
	b := mineFor(t, workload.KindBallot, 0)
	p := DefaultParams()
	p.FeePerGas = 1
	br, err := Compute(b, p)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	var gasUsed uint64
	for _, r := range b.Receipts {
		gasUsed += uint64(r.GasUsed)
	}
	if br.Fees != types.Amount(gasUsed) {
		t.Fatalf("fees = %d, want %d", br.Fees, gasUsed)
	}
}

func TestEmptyAndMalformedBlocks(t *testing.T) {
	empty := chain.Block{}
	br, err := Compute(empty, DefaultParams())
	if err != nil {
		t.Fatalf("Compute(empty): %v", err)
	}
	if br.Total != DefaultParams().BaseSubsidy {
		t.Fatalf("empty block total = %d", br.Total)
	}
	bad := mineFor(t, workload.KindBallot, 0)
	bad.Schedule.Edges = append(bad.Schedule.Edges, sched.Edge{From: 0, To: 999})
	if _, err := Compute(bad, DefaultParams()); err == nil {
		t.Fatal("malformed schedule rewarded")
	}
}

func TestSingleTxBlockFullyParallel(t *testing.T) {
	wl, err := workload.Generate(workload.Params{
		Kind: workload.KindBallot, Transactions: 1, ConflictPercent: 0, Seed: 1,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	res, err := miner.Mine(engine.SpeculativeEngine{}, runtime.NewSimRunner(), wl.World,
		chain.GenesisHeader(types.HashString("reward")), wl.Calls, engine.Options{Workers: 3})
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	br, err := Compute(res.Block, DefaultParams())
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if br.Parallelism != 1 {
		t.Fatalf("single-tx parallelism = %f", br.Parallelism)
	}
}
