package sched_test

import (
	"slices"
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/engine"
	"contractstm/internal/miner"
	"contractstm/internal/runtime"
	"contractstm/internal/sched"
	"contractstm/internal/types"
	"contractstm/internal/validator"
	"contractstm/internal/workload"
)

// TestHonestBlocksTakeTheFastPath: every engine builds H with the grouping
// rule over the same histories the race check walks, so the validator
// never leaves the check's fast path on an honest block — on every
// workload kind, at low to high conflict, mined on simulated and OS
// threads. A block whose H lacks one of the rule's edges but implies it
// through others is still race free: the check takes the pairwise fallback
// and the block is accepted.
func TestHonestBlocksTakeTheFastPath(t *testing.T) {
	genesis := chain.GenesisHeader(types.HashString("fast-path-genesis"))
	runners := []struct {
		name string
		new  func() runtime.Runner
	}{
		{"sim", func() runtime.Runner { return runtime.NewSimRunner() }},
		{"os", func() runtime.Runner { return runtime.NewOSRunner(nil) }},
	}
	validate := func(wl *workload.Workload, b chain.Block, r runtime.Runner) (fellBack bool, err error) {
		wl.Reset()
		before := sched.RaceFallbacks()
		_, err = validator.Validate(r, wl.World, b, validator.Config{Workers: 3})
		return sched.RaceFallbacks() != before, err
	}
	implied := 0
	for _, r := range runners {
		for _, kind := range engine.Kinds() {
			for _, wk := range workload.Kinds() {
				for _, conflict := range []int{5, 30, 60} {
					p := workload.Params{Kind: wk, Transactions: 60, ConflictPercent: conflict, Seed: int64(conflict)}
					wl, err := workload.Generate(p)
					if err != nil {
						t.Fatalf("generate: %v", err)
					}
					res, err := miner.Mine(engine.MustNew(kind), r.new(), wl.World, genesis, wl.Calls, engine.Options{Workers: 3})
					if err != nil {
						t.Fatalf("%s %v %+v: mine: %v", r.name, kind, p, err)
					}
					fellBack, err := validate(wl, res.Block, r.new())
					if err != nil {
						t.Fatalf("%s %v %+v: honest block rejected: %v", r.name, kind, p, err)
					}
					if fellBack {
						t.Errorf("%s %v %+v: honest block left the fast path", r.name, kind, p)
					}

					// Chain S with its consecutive edges, then drop one of
					// the rule's edges whose ends S does not hold adjacent:
					// the chain implies it.
					b := res.Block
					dropped, ok := impliedRuleEdge(b)
					if !ok {
						continue
					}
					implied++
					edges := slices.DeleteFunc(serialized(b), func(e sched.Edge) bool { return e == dropped })
					s := sched.Schedule{Order: b.Schedule.Order, Edges: edges}
					b, _ = chain.Seal(genesis, b.Calls, b.Receipts, s, b.Profiles, b.Header.StateRoot)
					fellBack, err = validate(wl, b, r.new())
					if err != nil {
						t.Errorf("%s %v %+v: block without the implied edge %v rejected: %v", r.name, kind, p, dropped, err)
					}
					if !fellBack {
						t.Errorf("%s %v %+v: block without the implied edge %v stayed on the fast path", r.name, kind, p, dropped)
					}
				}
			}
		}
	}
	if implied == 0 {
		t.Fatal("fixture: no mined block has a rule edge between transactions S holds apart")
	}
	t.Logf("%d blocks validated again without an implied edge", implied)
}

// serialized returns b's edges plus an edge between every two consecutive
// transactions of S.
func serialized(b chain.Block) []sched.Edge {
	edges := slices.Clone(b.Schedule.Edges)
	for i := 1; i < len(b.Schedule.Order); i++ {
		edges = append(edges, sched.Edge{From: b.Schedule.Order[i-1], To: b.Schedule.Order[i]})
	}
	return edges
}

// impliedRuleEdge returns an edge of b's H whose ends are not adjacent in
// S, so that S's consecutive edges imply it.
func impliedRuleEdge(b chain.Block) (sched.Edge, bool) {
	pos := make([]int, len(b.Schedule.Order))
	for i, tx := range b.Schedule.Order {
		pos[tx] = i
	}
	for _, e := range b.Schedule.Edges {
		if pos[e.To]-pos[e.From] > 1 {
			return e, true
		}
	}
	return sched.Edge{}, false
}
