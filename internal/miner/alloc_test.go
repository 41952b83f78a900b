package miner

import (
	"testing"

	"contractstm/internal/engine"
	"contractstm/internal/runtime"
	"contractstm/internal/validator"
	"contractstm/internal/workload"
)

// TestMineAllocCeilings fails when producing one block — the
// representative one, workload.HotPathParams — starts to allocate more:
// reset the world, execute with the engine, compute the state root, seal.
// Time is judged elsewhere (benchmark/); allocations are deterministic
// and are judged here. Each ceiling is 1.1 times the measured count
// (2862 / 2581 / 5185), or the count under -race where that is larger
// (2939 / 2600 / 5900, the highest of five runs: the race detector makes
// sync.Pool drop items).
// The speculative miner must also allocate no more than the serial one:
// its lock table is pooled, and H is read off the table.
func TestMineAllocCeilings(t *testing.T) {
	perBlock := make(map[engine.Kind]float64)
	for _, c := range []struct {
		kind    engine.Kind
		ceiling float64
	}{
		{engine.KindSerial, 3233},
		{engine.KindSpeculative, 2860},
		{engine.KindOCC, 6490},
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
		perBlock[c.kind] = allocs
	}
	if spec, serial := perBlock[engine.KindSpeculative], perBlock[engine.KindSerial]; spec > serial {
		t.Errorf("speculative Mine allocates %.0f times per block, serial %.0f", spec, serial)
	}
}

// TestBlockAllocsIndependentOfStateSize: what a block costs depends on
// what it touches, not on how much state there is. The same 100 token
// transfers are mined, and validated from a snapshot that is then
// restored, over a world of 2 k accounts and over one of 32 k; the
// allocation counts must agree within a tenth. (The larger world's trie is
// one level deeper, so a few more nodes are copied per written key;
// anything that walks the state — a sort, a deep copy, a rebuild — shows as
// a ratio near 16.) Allocation counts are deterministic: this needs no
// clock.
func TestBlockAllocsIndependentOfStateSize(t *testing.T) {
	const blockSize = 100
	perBlock := func(accounts int) float64 {
		wl := mustGen(t, workload.Params{Kind: workload.KindToken, Transactions: accounts, Seed: 9})
		calls := wl.Calls[:blockSize]
		eng, opts := engine.MustNew(engine.KindSpeculative), engine.Options{Workers: 3}
		// Once unmeasured: the first root of a new world hashes all of it.
		res, err := Mine(eng, runtime.NewSimRunner(), wl.World, genesis(), calls, opts)
		if err != nil {
			t.Fatalf("%d accounts: mine: %v", accounts, err)
		}
		return testing.AllocsPerRun(5, func() {
			wl.Reset()
			if _, err := Mine(eng, runtime.NewSimRunner(), wl.World, genesis(), calls, opts); err != nil {
				t.Fatalf("%d accounts: mine: %v", accounts, err)
			}
			wl.Reset()
			pre := wl.World.Snapshot()
			if _, err := validator.Validate(runtime.NewSimRunner(), wl.World, res.Block, validator.Config{Workers: 3}); err != nil {
				t.Fatalf("%d accounts: validate: %v", accounts, err)
			}
			wl.World.Restore(pre)
		})
	}
	small, large := perBlock(2_000), perBlock(32_000)
	t.Logf("%.0f allocs per block over 2k accounts, %.0f over 32k", small, large)
	if large > 1.1*small || small > 1.1*large {
		t.Errorf("a block allocates %.0f times over 2k accounts and %.0f over 32k: per-block cost follows state size", small, large)
	}
}
