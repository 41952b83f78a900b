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
// and are judged here. Each ceiling is 1.1 times the plain count: serial
// 352, speculative 499 and OCC 1217. The race detector makes sync.Pool
// drop a quarter of what is put back, so under -race each engine has a
// ceiling of its own, 1.1 times the highest of five runs (serial 573,
// speculative 686, OCC 1693). Each count is the mean of 20 blocks, which keeps
// the pool's random drops under -race from deciding the
// serial-versus-speculative comparison below.
// The serial miner must also allocate no more than the speculative one:
// every engine settles into the same pooled lock table and reads H off
// it, and only the speculative one pays for held locks, waiters and
// retries on top.
func TestMineAllocCeilings(t *testing.T) {
	perBlock := make(map[engine.Kind]float64)
	for _, c := range []struct {
		kind             engine.Kind
		plain, underRace float64
	}{
		{engine.KindSerial, 387, 630},
		{engine.KindSpeculative, 549, 755},
		{engine.KindOCC, 1339, 1863},
	} {
		ceiling := c.plain
		if raceDetector {
			ceiling = c.underRace
		}
		eng := engine.MustNew(c.kind)
		wl := mustGen(t, workload.HotPathParams)
		opts := engine.Options{Workers: 3}
		allocs := testing.AllocsPerRun(20, func() {
			wl.Reset()
			if _, err := Mine(eng, runtime.NewSimRunner(), wl.World, genesis(), wl.Calls, opts); err != nil {
				t.Fatalf("%v: mine: %v", c.kind, err)
			}
		})
		t.Logf("%v: %.0f allocs per block, ceiling %.0f", c.kind, allocs, ceiling)
		if allocs > ceiling {
			t.Errorf("%v: Mine allocates %.0f times per block, ceiling %.0f", c.kind, allocs, ceiling)
		}
		perBlock[c.kind] = allocs
	}
	if spec, serial := perBlock[engine.KindSpeculative], perBlock[engine.KindSerial]; serial > spec {
		t.Errorf("serial Mine allocates %.0f times per block, speculative %.0f", serial, spec)
	}
}

// TestBlockAllocsIndependentOfStateSize: what a block costs depends on
// what it touches, not on how much state there is. The same 100 token
// transfers are mined, and validated from a snapshot that is then
// restored, over a world of 2 k accounts and over one of 32 k, and the
// difference in allocations is bounded by the keys the block writes.
//
// The bound: the transfers are between disjoint pairs, so the block writes
// keysWritten = 2 × 100 balances, and it writes them twice, once mining
// and once validating. Each write path-copies the trie nodes above its key
// that the pass has not copied yet. The larger world's trie is one level
// deeper, so it copies at most one more node per written key and pass, and
// a node copy is at most two allocations (the node and its entries; a node
// with children is one). So large − small ≤ 2 × 2 × keysWritten = 800;
// it measures ~500. Anything that walks the state — a sort, a deep copy, a
// rebuild — costs allocations in proportion to the 30 k extra accounts and
// makes large − small tens of thousands. Allocation counts are
// deterministic: this needs no clock.
func TestBlockAllocsIndependentOfStateSize(t *testing.T) {
	const blockSize, passes, keysWritten = 100, 2, 2 * 100
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
	bound := float64(2 * passes * keysWritten)
	t.Logf("%.0f allocs per block over 2k accounts, %.0f over 32k: %+.0f, bound %.0f", small, large, large-small, bound)
	if large-small > bound || small-large > bound {
		t.Errorf("a block allocates %.0f times over 2k accounts and %.0f over 32k, more than %.0f apart: per-block cost follows state size",
			small, large, bound)
	}
}
