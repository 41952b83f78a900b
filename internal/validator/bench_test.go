package validator

import (
	"testing"

	"contractstm/internal/engine"
	"contractstm/internal/miner"
	"contractstm/internal/runtime"
	"contractstm/internal/workload"
)

// BenchmarkValidateTokenBlock validates one mined block of 500 token
// transfers at 15 % conflict on two OS threads that spin no gas: the block
// chainbench's ingest_smalltx workload imports, with no node around it.
func BenchmarkValidateTokenBlock(b *testing.B) {
	wl, err := workload.Generate(workload.Params{Kind: workload.KindToken, Transactions: 500, ConflictPercent: 15, Seed: 1})
	if err != nil {
		b.Fatalf("generate: %v", err)
	}
	runner := runtime.NewOSRunner(runtime.SpinBurn(0))
	res, err := miner.Mine(engine.SpeculativeEngine{}, runner, wl.World, genesis(), wl.Calls, engine.Options{Workers: 2})
	if err != nil {
		b.Fatalf("mine: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		wl.Reset()
		b.StartTimer()
		if _, err := Validate(runner, wl.World, res.Block, Config{Workers: 2}); err != nil {
			b.Fatalf("validate: %v", err)
		}
	}
}
