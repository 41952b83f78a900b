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
// by the OCC engine. The ceiling is 1.1 times the count under -race
// (1462, the highest of five runs; 1390 without).
func TestValidateAllocCeiling(t *testing.T) {
	wl, err := workload.Generate(workload.HotPathParams)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	res, err := miner.Mine(engine.MustNew(engine.KindOCC), runtime.NewSimRunner(), wl.World, genesis(), wl.Calls, engine.Options{Workers: 3})
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	const ceiling = 1609
	allocs := testing.AllocsPerRun(5, func() {
		wl.Reset()
		if _, err := Validate(runtime.NewSimRunner(), wl.World, res.Block, Config{Workers: 3}); err != nil {
			t.Fatalf("validate: %v", err)
		}
	})
	t.Logf("%.0f allocs per block, ceiling %d", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("Validate allocates %.0f times per block, ceiling %d", allocs, ceiling)
	}
}
