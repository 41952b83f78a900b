package engine_test

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"contractstm/internal/engine"
	"contractstm/internal/gas"
	"contractstm/internal/runtime"
	"contractstm/internal/workload"
)

// The serializability soak mines blocks shaped like chainbench's
// bigstate_reads workload — 100 token transfers at 5 % conflict, over a
// world generated for 16,000 transactions — with every engine at two
// workers on real OS threads, and checks each block the way the paper
// states it: replaying the calls serially in the block's order S from
// the same parent state reaches the block's state root.
const (
	soakBlockSize = 100
	soakWorldTxs  = 16_000
	soakWorlds    = 2
)

// soakWorld is soak world i, generated once per process. Its gas limits
// are made unique, as chainbench makes them, so no two calls encode alike.
var soakWorld = func() func(i int) (*workload.Workload, error) {
	var once [soakWorlds]sync.Once
	var wls [soakWorlds]*workload.Workload
	var errs [soakWorlds]error
	return func(i int) (*workload.Workload, error) {
		once[i].Do(func() {
			wls[i], errs[i] = workload.Generate(workload.Params{
				Kind: workload.KindToken, Transactions: soakWorldTxs, ConflictPercent: 5, Seed: int64(921 + i),
			})
			if errs[i] == nil {
				for j := range wls[i].Calls {
					wls[i].Calls[j].GasLimit = 1_000_000 + gas.Gas(j)
				}
			}
		})
		return wls[i], errs[i]
	}
}()

// soakSeed mines the block seed names with each engine and checks it
// against a serial replay of its S. The seed picks a world, a window of
// soakBlockSize of its calls starting at any call, and the order of the
// window's calls, so every seed is a block of its own. A failure names
// the seed.
func soakSeed(t *testing.T, seed uint64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0))
	wl, err := soakWorld(rng.IntN(soakWorlds))
	if err != nil {
		t.Fatalf("seed %d: generate: %v", seed, err)
	}
	at := rng.IntN(soakWorldTxs - soakBlockSize + 1)
	calls := slices.Clone(wl.Calls[at : at+soakBlockSize])
	rng.Shuffle(len(calls), func(i, j int) { calls[i], calls[j] = calls[j], calls[i] })
	for _, ek := range engine.Kinds() {
		wl.Reset()
		res, err := engine.MustNew(ek).ExecuteBlock(runtime.NewOSRunner(nil), wl.World, calls, engine.Options{Workers: 2})
		if err != nil {
			t.Fatalf("seed %d, %v: ExecuteBlock: %v", seed, ek, err)
		}
		root, err := wl.World.StateRoot()
		if err != nil {
			t.Fatalf("seed %d, %v: state root: %v", seed, ek, err)
		}
		wl.Reset()
		if _, err := engine.RunOrdered(runtime.NewOSRunner(nil), wl.World, calls, res.Schedule.Order); err != nil {
			t.Fatalf("seed %d, %v: RunOrdered: %v", seed, ek, err)
		}
		replay, err := wl.World.StateRoot()
		if err != nil {
			t.Fatalf("seed %d, %v: replay state root: %v", seed, ek, err)
		}
		if root != replay {
			t.Fatalf("seed %d, %v: block state root %s, serial replay of its S %s", seed, ek, root.Short(), replay.Short())
		}
	}
}

// TestSerializableSoak runs the soak's first soakSeeds seeds, about a
// second on two cores; FuzzSerializableSoak is the long budget.
func TestSerializableSoak(t *testing.T) {
	const soakSeeds = 200
	for seed := uint64(0); seed < soakSeeds; seed++ {
		soakSeed(t, seed)
	}
}

// FuzzSerializableSoak soaks seeds the fuzzer picks: run it with
// go test -run '^$' -fuzz FuzzSerializableSoak -fuzztime 2m ./internal/engine/
func FuzzSerializableSoak(f *testing.F) {
	f.Add(uint64(0))
	f.Fuzz(func(t *testing.T, seed uint64) { soakSeed(t, seed) })
}
