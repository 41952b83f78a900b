package runtime_test

import (
	"slices"
	"sync/atomic"
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/engine"
	"contractstm/internal/miner"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
	"contractstm/internal/validator"
	"contractstm/internal/workload"
)

// probeRunner wraps a runner and records, for every Run, when its latest
// worker entered the body (on the runner's clock, which starts when Run
// does) and the makespan Run reported.
type probeRunner struct {
	inner         runtime.Runner
	starts, spans []float64 // µs
}

func (p *probeRunner) Run(workers int, body func(runtime.Thread)) (uint64, error) {
	var latest atomic.Uint64
	span, err := p.inner.Run(workers, func(th runtime.Thread) {
		for now := th.Now(); ; {
			seen := latest.Load()
			if now <= seen || latest.CompareAndSwap(seen, now) {
				break
			}
		}
		body(th)
	})
	p.starts = append(p.starts, float64(latest.Load())/1e3)
	p.spans = append(p.spans, float64(span)/1e3)
	return span, err
}

// quantile returns the q-quantile of vs (nearest rank; vs is sorted).
func quantile(vs []float64, q float64) float64 {
	slices.Sort(vs)
	return vs[int(q*float64(len(vs)-1)+0.5)]
}

// BenchmarkWorkerStart is the resident-worker probe: each iteration
// validates the 500-transfer token block 500 times on two OS threads
// that spin no gas, and reports how long after Run's start the later of
// the replay's two workers entered its body (p10, p50, p90) and the
// replay's span (p50). A start delay that is a large share of the span is
// what a pool kept across calls would save.
//
//	go test -run '^$' -bench BenchmarkWorkerStart -benchtime 1x ./internal/runtime/
func BenchmarkWorkerStart(b *testing.B) {
	const calls = 500
	wl, err := workload.Generate(workload.Params{Kind: workload.KindToken, Transactions: 500, ConflictPercent: 15, Seed: 1})
	if err != nil {
		b.Fatalf("generate: %v", err)
	}
	osr := runtime.NewOSRunner(runtime.SpinBurn(0))
	res, err := miner.Mine(engine.SpeculativeEngine{}, osr, wl.World, chain.GenesisHeader(types.HashString("probe")), wl.Calls, engine.Options{Workers: 2})
	if err != nil {
		b.Fatalf("mine: %v", err)
	}
	probe := &probeRunner{inner: osr}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < calls; c++ {
			b.StopTimer()
			wl.Reset()
			b.StartTimer()
			if _, err := validator.Validate(probe, wl.World, res.Block, validator.Config{Workers: 2}); err != nil {
				b.Fatalf("validate: %v", err)
			}
		}
	}
	b.ReportMetric(quantile(probe.starts, 0.1), "start_p10_us")
	b.ReportMetric(quantile(probe.starts, 0.5), "start_p50_us")
	b.ReportMetric(quantile(probe.starts, 0.9), "start_p90_us")
	b.ReportMetric(quantile(probe.spans, 0.5), "replay_p50_us")
}
