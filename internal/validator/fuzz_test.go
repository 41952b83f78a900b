package validator

import (
	"math/rand"
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/miner"
	"contractstm/internal/sched"
	"contractstm/internal/stm"
	"contractstm/internal/types"
	"contractstm/internal/workload"

	"contractstm/internal/runtime"
)

// mutateBlock applies one random structural mutation to a block and
// reports whether the mutation is guaranteed to be semantics-preserving
// (in which case the validator must ACCEPT). All mutations re-seal the
// header so the cheap commitment check cannot mask the semantic checks.
func mutateBlock(rng *rand.Rand, b chain.Block) (chain.Block, bool) {
	preserving := false
	switch rng.Intn(7) {
	case 0: // flip a receipt's reverted flag
		if len(b.Receipts) > 0 {
			i := rng.Intn(len(b.Receipts))
			b.Receipts[i].Reverted = !b.Receipts[i].Reverted
		}
	case 1: // perturb a receipt's gas
		if len(b.Receipts) > 0 {
			i := rng.Intn(len(b.Receipts))
			b.Receipts[i].GasUsed += 1
		}
	case 2: // drop a profile entry
		for _, i := range rng.Perm(len(b.Profiles)) {
			if len(b.Profiles[i].Entries) > 0 {
				b.Profiles[i].Entries = b.Profiles[i].Entries[1:]
				break
			}
		}
	case 3: // add a phantom lock to a profile
		if len(b.Profiles) > 0 {
			i := rng.Intn(len(b.Profiles))
			b.Profiles[i].Entries = append(b.Profiles[i].Entries, stm.ProfileEntry{
				Lock:    stm.LockID{Scope: "phantom", Key: "x"},
				Mode:    stm.ModeExclusive,
				Counter: uint64(rng.Intn(5) + 1),
			})
		}
	case 4: // drop all happens-before edges
		if len(b.Schedule.Edges) > 0 {
			b.Schedule.Edges = nil
		} else {
			preserving = true // nothing to drop: block unchanged
		}
	case 5: // over-serialize: add every consecutive edge of S (valid!)
		order := b.Schedule.Order
		for i := 1; i < len(order); i++ {
			b.Schedule.Edges = append(b.Schedule.Edges,
				sched.Edge{From: order[i-1], To: order[i]})
		}
		preserving = true
	case 6: // forge the state root
		// The re-seal below keeps the forged root.
		b.Header.StateRoot = types.HashString("forged")
	}
	b, _ = chain.Seal(chain.GenesisHeader(types.HashString("fuzz-genesis")),
		b.Calls, b.Receipts, b.Schedule, b.Profiles, b.Header.StateRoot)
	return b, preserving
}

// TestValidatorMetamorphicTamperFuzz: for random workloads and random
// block mutations, the validator must accept semantics-preserving
// mutations and — the security property — never accept a mutated block
// whose re-execution state differs from the honest one.
func TestValidatorMetamorphicTamperFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	iterations := 30
	if testing.Short() {
		iterations = 10
	}
	accepted, rejected := 0, 0
	for it := 0; it < iterations; it++ {
		p := workload.Params{
			Kind:            workload.Kinds()[rng.Intn(4)],
			Transactions:    8 + rng.Intn(30),
			ConflictPercent: rng.Intn(101),
			Seed:            rng.Int63n(100000),
		}
		wl, err := workload.Generate(p)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		res, err := minerMine(t, wl)
		if err != nil {
			t.Fatalf("mine: %v", err)
		}
		honestRoot := res.Header.StateRoot

		mutated, preserving := mutateBlock(rng, res)
		wl.Reset()
		_, err = Validate(runtime.NewSimRunner(), wl.World, mutated, Config{Workers: 3})
		if preserving {
			if err != nil {
				t.Fatalf("it=%d %+v: semantics-preserving mutation rejected: %v", it, p, err)
			}
			accepted++
			continue
		}
		if err == nil {
			// Acceptance of a mutation is only sound if the resulting
			// state equals the honest one (e.g. the mutation was a no-op
			// for this block).
			root, rerr := wl.World.StateRoot()
			if rerr != nil {
				t.Fatalf("state root: %v", rerr)
			}
			if root != honestRoot {
				t.Fatalf("it=%d %+v: tampered block accepted with divergent state", it, p)
			}
			accepted++
			continue
		}
		rejected++
	}
	if rejected == 0 {
		t.Fatal("fuzz never exercised a rejection")
	}
	t.Logf("accepted=%d rejected=%d", accepted, rejected)
}

// minerMine mines the workload on the fuzz genesis and returns the block.
func minerMine(t *testing.T, wl *workload.Workload) (chain.Block, error) {
	t.Helper()
	res, err := miner.MineParallel(runtime.NewSimRunner(), wl.World,
		chain.GenesisHeader(types.HashString("fuzz-genesis")), wl.Calls, miner.Config{Workers: 3})
	if err != nil {
		return chain.Block{}, err
	}
	return res.Block, nil
}
