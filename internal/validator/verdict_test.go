package validator

import (
	"math/rand"
	"strings"
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/runtime"
	"contractstm/internal/sched"
	"contractstm/internal/workload"
)

// verdictClass names which of the validator's checks refused a block
// ("accept" for none). Validate flattens causes with %v, so the class is
// read from the message.
//
// A trace mismatch counts as a race. Two conflicting transactions that H
// leaves unordered really do race in the replay, and where a contract's
// lock set depends on what it reads (an auction bid writes highestBid only
// if it is the higher one) the loser's trace can come out different from
// its published profile; Validate compares traces with profiles before it
// looks for races, so the same missing edge is refused by one check or the
// other depending on how the race fell. Accept/reject is the invariant.
func verdictClass(err error) string {
	if err == nil {
		return "accept"
	}
	if strings.Contains(err.Error(), "trace does not match") {
		return sched.ErrRace.Error()
	}
	for _, class := range []string{
		sched.ErrRace.Error(), sched.ErrBadOrder.Error(), "receipt mismatch", "final state",
	} {
		if strings.Contains(err.Error(), class) {
			return class
		}
	}
	return err.Error()
}

// cloneBlock copies the slices the mutants below edit.
func cloneBlock(b chain.Block) chain.Block {
	b.Receipts = append(b.Receipts[:0:0], b.Receipts...)
	b.Schedule.Order = append(b.Schedule.Order[:0:0], b.Schedule.Order...)
	b.Schedule.Edges = append(b.Schedule.Edges[:0:0], b.Schedule.Edges...)
	return b
}

// TestVerdictIsScheduleIndependent: the order in which the fork-join
// executor starts ready tasks is a choice among orders H allows, so it must
// never show in a verdict. Honest blocks and three kinds of mutant — one
// happens-before edge dropped, two adjacent entries of S swapped, one
// receipt's GasUsed perturbed — get the same accept/reject, and on reject
// the same failing check, at every pool size on both runners; an accepted
// mutant (the edge was implied transitively, the swap was of unordered
// transactions) reaches the header's state root.
func TestVerdictIsScheduleIndependent(t *testing.T) {
	runners := []struct {
		name string
		new  func() runtime.Runner
	}{
		{"sim", func() runtime.Runner { return runtime.NewSimRunner() }},
		{"os", func() runtime.Runner { return runtime.NewOSRunner(nil) }},
	}
	for _, p := range []workload.Params{
		{Kind: workload.KindHotCold, Transactions: 60, ConflictPercent: 60},
		{Kind: workload.KindMixed, Transactions: 60, ConflictPercent: 30},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			p.Seed = seed
			w, honest := mineBlock(t, p)
			rng := rand.New(rand.NewSource(seed))

			type mutant struct {
				name  string
				block chain.Block
			}
			mutants := []mutant{{"honest", honest}}
			for k := 0; k < 6 && len(honest.Schedule.Edges) > 0; k++ {
				m := cloneBlock(honest)
				e := rng.Intn(len(m.Schedule.Edges))
				m.Schedule.Edges = append(m.Schedule.Edges[:e], m.Schedule.Edges[e+1:]...)
				dropped := honest.Schedule.Edges[e]
				mutants = append(mutants, mutant{"drop edge " + dropped.From.String() + "->" + dropped.To.String(), reseal(m)})
			}
			for k := 0; k < 6; k++ {
				m := cloneBlock(honest)
				i := rng.Intn(len(m.Schedule.Order) - 1)
				m.Schedule.Order[i], m.Schedule.Order[i+1] = m.Schedule.Order[i+1], m.Schedule.Order[i]
				mutants = append(mutants, mutant{"swap S at " + m.Schedule.Order[i].String(), reseal(m)})
			}
			for k := 0; k < 2; k++ {
				m := cloneBlock(honest)
				i := rng.Intn(len(m.Receipts))
				m.Receipts[i].GasUsed++
				mutants = append(mutants, mutant{"receipt gas of " + m.Receipts[i].Tx.String(), reseal(m)})
			}

			classes := map[string]int{}
			for _, m := range mutants {
				name, block := m.name, m.block
				want := ""
				for _, r := range runners {
					for workers := 1; workers <= 4; workers++ {
						w.Reset()
						_, err := Validate(r.new(), w.World, block, Config{Workers: workers})
						got := verdictClass(err)
						if want == "" {
							want = got
							classes[got]++
						}
						if got != want {
							t.Errorf("%s seed %d, %s: %s at %d workers on %s, %s at 1 worker on sim (%v)",
								p.Kind, seed, name, got, workers, r.name, want, err)
						}
						if err != nil {
							continue
						}
						if root, rerr := w.World.StateRoot(); rerr != nil || root != honest.Header.StateRoot {
							t.Errorf("%s seed %d, %s: accepted at %d workers on %s with root %s (%v), header %s",
								p.Kind, seed, name, workers, r.name, root.Short(), rerr, honest.Header.StateRoot.Short())
						}
					}
				}
			}
			t.Logf("%s seed %d: %d edges, verdicts %v", p.Kind, seed, len(honest.Schedule.Edges), classes)
		}
	}
}
