// Repository-level benchmarks: one per table and figure of the paper's
// evaluation (§7), plus ablations for the design choices DESIGN.md calls
// out. Each benchmark runs the full protocol (serial baseline, 3-worker
// speculative miner, 3-worker fork-join validator) on deterministic
// simulated time and reports the paper's metric — speedup over serial — as
// custom benchmark metrics (miner-x, validator-x).
//
// cmd/blockbench regenerates the same data as formatted tables.
package contractstm_test

import (
	"fmt"
	"testing"

	"contractstm/internal/bench"
	"contractstm/internal/chain"
	"contractstm/internal/engine"
	"contractstm/internal/miner"
	"contractstm/internal/runtime"
	"contractstm/internal/stm"
	"contractstm/internal/types"
	"contractstm/internal/validator"
	"contractstm/internal/workload"
)

// benchCfg is the evaluation configuration: 3 workers, like the paper.
func benchCfg() bench.Config { return bench.Config{Workers: 3} }

// sweepSizes returns the block-size sweep, trimmed under -short.
func sweepSizes(b *testing.B) []int {
	if testing.Short() {
		return []int{10, 50, 200}
	}
	return bench.BlockSizes
}

// sweepConflicts returns the conflict sweep, trimmed under -short.
func sweepConflicts(b *testing.B) []int {
	if testing.Short() {
		return []int{0, 50, 100}
	}
	return bench.ConflictPercents
}

func reportPoint(b *testing.B, m bench.Measurement) {
	b.ReportMetric(m.MinerSpeedup, "miner-x")
	b.ReportMetric(m.ValidatorSpeedup, "validator-x")
	b.ReportMetric(float64(m.Retries), "retries")
	b.ReportMetric(float64(m.CriticalPath), "critpath")
}

func measurePoint(b *testing.B, p workload.Params, cfg bench.Config) bench.Measurement {
	b.Helper()
	b.ReportAllocs()
	var m bench.Measurement
	var err error
	for i := 0; i < b.N; i++ {
		m, err = bench.Measure(p, cfg)
		if err != nil {
			b.Fatalf("measure: %v", err)
		}
	}
	return m
}

// BenchmarkFig1 regenerates Figure 1: for each of the four benchmarks, the
// speedup-vs-block-size series (15% conflict) and the speedup-vs-conflict
// series (200 transactions).
func BenchmarkFig1(b *testing.B) {
	for _, kind := range workload.Kinds() {
		kind := kind
		b.Run(kind.String()+"/BlockSize", func(b *testing.B) {
			for _, n := range sweepSizes(b) {
				n := n
				b.Run(fmt.Sprintf("tx=%d", n), func(b *testing.B) {
					m := measurePoint(b, workload.Params{
						Kind: kind, Transactions: n,
						ConflictPercent: bench.SweepConflictFixed, Seed: bench.DefaultSeed,
					}, benchCfg())
					reportPoint(b, m)
				})
			}
		})
		b.Run(kind.String()+"/Conflict", func(b *testing.B) {
			for _, c := range sweepConflicts(b) {
				c := c
				b.Run(fmt.Sprintf("pct=%d", c), func(b *testing.B) {
					m := measurePoint(b, workload.Params{
						Kind: kind, Transactions: bench.SweepTransactionsFixed,
						ConflictPercent: c, Seed: bench.DefaultSeed,
					}, benchCfg())
					reportPoint(b, m)
				})
			}
		})
	}
}

// BenchmarkEngineComparison runs every paper benchmark under every
// execution engine (serial, speculative, OCC) on the block-size sweep —
// the extensible-substrate counterpart of Figure 1. The serial baseline is
// shared, so the per-engine miner-x metrics are directly comparable.
func BenchmarkEngineComparison(b *testing.B) {
	for _, kind := range workload.Kinds() {
		for _, ek := range engine.Kinds() {
			kind, ek := kind, ek
			b.Run(fmt.Sprintf("%v/%v", kind, ek), func(b *testing.B) {
				cfg := benchCfg()
				cfg.Engine = ek
				for _, n := range sweepSizes(b) {
					n := n
					b.Run(fmt.Sprintf("tx=%d", n), func(b *testing.B) {
						m := measurePoint(b, workload.Params{
							Kind: kind, Transactions: n,
							ConflictPercent: bench.SweepConflictFixed, Seed: bench.DefaultSeed,
						}, cfg)
						reportPoint(b, m)
						b.ReportMetric(float64(m.Rounds), "rounds")
					})
				}
			})
		}
	}
}

// BenchmarkTable1 regenerates Table 1: per-benchmark average speedups over
// both sweeps, plus the paper's headline overall averages (paper: miner
// 1.33x, validator 1.69x).
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	sizes, conflicts := sweepSizes(b), sweepConflicts(b)
	var table bench.Table1
	for i := 0; i < b.N; i++ {
		var err error
		_, table, err = bench.RunAll(benchCfg(), sizes, conflicts)
		if err != nil {
			b.Fatalf("RunAll: %v", err)
		}
	}
	b.ReportMetric(table.OverallMiner, "miner-x")
	b.ReportMetric(table.OverallValidator, "validator-x")
	for _, row := range table.Rows {
		b.ReportMetric(row.MinerConflictAvg, row.Kind.String()+"-miner-conflict-x")
		b.ReportMetric(row.ValidatorBlockSizeAvg, row.Kind.String()+"-validator-blocksize-x")
	}
}

// BenchmarkAppendixB regenerates Appendix B: absolute running times (mean
// over measured runs) for the serial miner, parallel miner and validator.
// The mean virtual-time per variant is exposed as metrics for one
// representative point per benchmark; cmd/blockbench -appendixb prints the
// full charts.
func BenchmarkAppendixB(b *testing.B) {
	for _, kind := range workload.Kinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			m := measurePoint(b, workload.Params{
				Kind: kind, Transactions: bench.SweepTransactionsFixed,
				ConflictPercent: bench.SweepConflictFixed, Seed: bench.DefaultSeed,
			}, benchCfg())
			b.ReportMetric(m.SerialTime.Mean(), "serial-gastime")
			b.ReportMetric(m.MinerTime.Mean(), "miner-gastime")
			b.ReportMetric(m.ValidatorTime.Mean(), "validator-gastime")
		})
	}
}

// BenchmarkAblationLazyVsEager compares the paper's primary eager design
// (§3) against its sketched lazy alternative on the Mixed workload.
func BenchmarkAblationLazyVsEager(b *testing.B) {
	for _, tc := range []struct {
		name   string
		policy stm.Policy
	}{{"Eager", stm.PolicyEager}, {"Lazy", stm.PolicyLazy}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			cfg := benchCfg()
			cfg.Policy = tc.policy
			m := measurePoint(b, workload.Params{
				Kind: workload.KindMixed, Transactions: bench.SweepTransactionsFixed,
				ConflictPercent: 30, Seed: bench.DefaultSeed,
			}, cfg)
			reportPoint(b, m)
		})
	}
}

// BenchmarkAblationNoIncrementMode shows what Ballot's conflict curve
// would look like without commutative increment locks: vote-count updates
// become exclusive and every vote for one proposal serializes. This is the
// mechanism behind the paper's observation that Ballot "suffers little
// from the extra data conflict".
func BenchmarkAblationNoIncrementMode(b *testing.B) {
	for _, tc := range []struct {
		name        string
		noIncrement bool
	}{{"WithIncrementMode", false}, {"ExclusiveOnly", true}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var minerX, validatorX float64
			for i := 0; i < b.N; i++ {
				wl, err := workload.Generate(workload.Params{
					Kind: workload.KindBallot, Transactions: bench.SweepTransactionsFixed,
					ConflictPercent: bench.SweepConflictFixed, Seed: bench.DefaultSeed,
				})
				if err != nil {
					b.Fatalf("generate: %v", err)
				}
				wl.World.Store().SetNoIncrement(tc.noIncrement)
				parent := chain.GenesisHeader(types.HashString("bench-genesis"))
				runner := func() runtime.Runner {
					return runtime.NewSimRunnerInterference(bench.DefaultInterferencePerMille)
				}
				serial, err := miner.Mine(engine.SpeculativeEngine{}, runner(), wl.World, parent, wl.Calls, engine.Options{Workers: 1})
				if err != nil {
					b.Fatalf("serial: %v", err)
				}
				wl.Reset()
				mres, err := miner.Mine(engine.SpeculativeEngine{}, runner(), wl.World, parent, wl.Calls, engine.Options{Workers: 3})
				if err != nil {
					b.Fatalf("mine: %v", err)
				}
				wl.Reset()
				vres, err := validator.Validate(runner(), wl.World, mres.Block, validator.Config{Workers: 3})
				if err != nil {
					b.Fatalf("validate: %v", err)
				}
				minerX = float64(serial.Makespan) / float64(mres.Makespan)
				validatorX = float64(serial.Makespan) / float64(vres.Makespan)
			}
			b.ReportMetric(minerX, "miner-x")
			b.ReportMetric(validatorX, "validator-x")
		})
	}
}

// BenchmarkAblationCoarseLocks reproduces §3's argument against
// region-granularity locking: "a more traditional implementation of
// speculative actions might associate locks with memory regions … such a
// coarse-grained approach could lead to many false conflicts". With
// object-level locks, every Ballot vote conflicts with every other vote
// even though they commute.
func BenchmarkAblationCoarseLocks(b *testing.B) {
	for _, tc := range []struct {
		name   string
		coarse bool
	}{{"AbstractLocks", false}, {"RegionLocks", true}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var minerX, validatorX float64
			for i := 0; i < b.N; i++ {
				wl, err := workload.Generate(workload.Params{
					Kind: workload.KindBallot, Transactions: bench.SweepTransactionsFixed,
					ConflictPercent: bench.SweepConflictFixed, Seed: bench.DefaultSeed,
				})
				if err != nil {
					b.Fatalf("generate: %v", err)
				}
				wl.World.Store().SetCoarseLocks(tc.coarse)
				parent := chain.GenesisHeader(types.HashString("bench-genesis"))
				runner := func() runtime.Runner {
					return runtime.NewSimRunnerInterference(bench.DefaultInterferencePerMille)
				}
				serial, err := miner.Mine(engine.SpeculativeEngine{}, runner(), wl.World, parent, wl.Calls, engine.Options{Workers: 1})
				if err != nil {
					b.Fatalf("serial: %v", err)
				}
				wl.Reset()
				mres, err := miner.Mine(engine.SpeculativeEngine{}, runner(), wl.World, parent, wl.Calls, engine.Options{Workers: 3})
				if err != nil {
					b.Fatalf("mine: %v", err)
				}
				wl.Reset()
				vres, err := validator.Validate(runner(), wl.World, mres.Block, validator.Config{Workers: 3})
				if err != nil {
					b.Fatalf("validate: %v", err)
				}
				minerX = float64(serial.Makespan) / float64(mres.Makespan)
				validatorX = float64(serial.Makespan) / float64(vres.Makespan)
			}
			b.ReportMetric(minerX, "miner-x")
			b.ReportMetric(validatorX, "validator-x")
		})
	}
}

// BenchmarkValidatorThreadScaling exercises §4's claim that "the validator
// can exploit whatever degree of parallelism it has available": the same
// mined block validated with 1..6 workers.
func BenchmarkValidatorThreadScaling(b *testing.B) {
	wl, err := workload.Generate(workload.Params{
		Kind: workload.KindMixed, Transactions: bench.SweepTransactionsFixed,
		ConflictPercent: bench.SweepConflictFixed, Seed: bench.DefaultSeed,
	})
	if err != nil {
		b.Fatalf("generate: %v", err)
	}
	parent := chain.GenesisHeader(types.HashString("bench-genesis"))
	runner := func() runtime.Runner {
		return runtime.NewSimRunnerInterference(bench.DefaultInterferencePerMille)
	}
	serial, err := miner.Mine(engine.SpeculativeEngine{}, runner(), wl.World, parent, wl.Calls, engine.Options{Workers: 1})
	if err != nil {
		b.Fatalf("serial: %v", err)
	}
	wl.Reset()
	mres, err := miner.Mine(engine.SpeculativeEngine{}, runner(), wl.World, parent, wl.Calls, engine.Options{Workers: 3})
	if err != nil {
		b.Fatalf("mine: %v", err)
	}
	for _, workers := range []int{1, 2, 3, 4, 6} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var speedup float64
			for i := 0; i < b.N; i++ {
				wl.Reset()
				vres, err := validator.Validate(runner(), wl.World, mres.Block, validator.Config{Workers: workers})
				if err != nil {
					b.Fatalf("validate: %v", err)
				}
				speedup = float64(serial.Makespan) / float64(vres.Makespan)
			}
			b.ReportMetric(speedup, "validator-x")
		})
	}
}

// BenchmarkMinerRealTime measures actual wall-clock mining throughput on
// OS threads (no virtual time): transactions per second of the real
// speculative runtime. On a single-core host this shows overheads, not
// speedups; it exists so multi-core users can observe real parallelism.
func BenchmarkMinerRealTime(b *testing.B) {
	wl, err := workload.Generate(workload.Params{
		Kind: workload.KindMixed, Transactions: 100,
		ConflictPercent: bench.SweepConflictFixed, Seed: bench.DefaultSeed,
	})
	if err != nil {
		b.Fatalf("generate: %v", err)
	}
	parent := chain.GenesisHeader(types.HashString("bench-genesis"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		wl.Reset()
		b.StartTimer()
		if _, err := miner.Mine(engine.SpeculativeEngine{}, runtime.NewOSRunner(nil), wl.World, parent, wl.Calls, engine.Options{Workers: 3}); err != nil {
			b.Fatalf("mine: %v", err)
		}
	}
}
