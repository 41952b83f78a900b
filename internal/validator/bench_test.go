package validator

import (
	"strconv"
	"testing"

	"contractstm/internal/engine"
	"contractstm/internal/miner"
	"contractstm/internal/runtime"
	"contractstm/internal/workload"
)

// BenchmarkValidateTokenBlock validates one mined block of 500 token
// transfers at 15 % conflict on OS threads that spin no gas: the block
// chainbench's ingest_smalltx workload imports, with no node around it.
// Its sub-benchmarks split Validate into its phases — Precheck (the
// commitments and the schedule checks), the replay at one and two
// workers, and the state root after a replay — and time the whole of
// Validate at two workers, so one command shows where a block's time
// goes:
//
//	go test -run '^$' -bench BenchmarkValidateTokenBlock -cpu 1,2 ./internal/validator/
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
	blk := res.Block
	pre, err := Precheck(blk)
	if err != nil {
		b.Fatalf("precheck: %v", err)
	}
	replay := func(b *testing.B, workers int) {
		if _, err := engine.Replay(runner, wl.World, blk.Calls, blk.Profiles, pre.prog, workers); err != nil {
			b.Fatalf("replay: %v", err)
		}
	}

	b.Run("Precheck", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Precheck(blk); err != nil {
				b.Fatalf("precheck: %v", err)
			}
		}
	})
	for _, workers := range []int{1, 2} {
		b.Run("Replay/W="+strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				wl.Reset()
				b.StartTimer()
				replay(b, workers)
			}
		})
	}
	b.Run("StateRoot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			wl.Reset()
			replay(b, 2)
			b.StartTimer()
			if _, err := wl.World.StateRoot(); err != nil {
				b.Fatalf("state root: %v", err)
			}
		}
	})
	b.Run("Validate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			wl.Reset()
			b.StartTimer()
			if _, err := Validate(runner, wl.World, blk, Config{Workers: 2}); err != nil {
				b.Fatalf("validate: %v", err)
			}
		}
	})
}
