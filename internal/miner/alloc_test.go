package miner

import (
	"testing"

	"contractstm/internal/engine"
	"contractstm/internal/runtime"
	"contractstm/internal/workload"
)

// TestMineAllocCeilings fails when producing one block — the
// representative one, workload.HotPathParams — starts to allocate more:
// reset the world, execute with the engine, compute the state root, seal.
// Time is judged elsewhere (benchmark/); allocations are deterministic
// and are judged here.
func TestMineAllocCeilings(t *testing.T) {
	for _, c := range []struct {
		kind    engine.Kind
		ceiling float64
	}{
		{engine.KindSerial, 6000},
		{engine.KindSpeculative, 7000},
		{engine.KindOCC, 10000},
	} {
		eng := engine.MustNew(c.kind)
		wl := mustGen(t, workload.HotPathParams)
		opts := engine.Options{Workers: 3}
		allocs := testing.AllocsPerRun(5, func() {
			wl.Reset()
			if _, err := Mine(eng, runtime.NewSimRunner(), wl.World, genesis(), wl.Calls, opts); err != nil {
				t.Fatalf("%v: mine: %v", c.kind, err)
			}
		})
		t.Logf("%v: %.0f allocs per block, ceiling %.0f", c.kind, allocs, c.ceiling)
		if allocs > c.ceiling {
			t.Errorf("%v: Mine allocates %.0f times per block, ceiling %.0f", c.kind, allocs, c.ceiling)
		}
	}
}
