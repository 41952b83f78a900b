package validator

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/engine"
	"contractstm/internal/miner"
	"contractstm/internal/runtime"
	"contractstm/internal/sched"
	"contractstm/internal/stm"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

// verdictClass names which of the validator's checks refused a block
// ("accept" for none). Validate flattens causes with %v, so the class is
// read from the message. A trace mismatch names the first deviating
// transaction the replay happened to finish, so only its class is
// schedule-independent; every other message is too.
func verdictClass(err error) string {
	if err == nil {
		return "accept"
	}
	for _, class := range []string{
		sched.ErrRace.Error(), sched.ErrBadOrder.Error(), "not strictly ascending",
		"trace does not match", "receipt mismatch", "final state",
	} {
		if strings.Contains(err.Error(), class) {
			return class
		}
	}
	return err.Error()
}

// refusedBeforeRaceCheck reports whether class is a check Precheck makes
// before it looks for races, which can refuse a racy block first.
func refusedBeforeRaceCheck(class string) bool {
	return class == sched.ErrBadOrder.Error() || class == "not strictly ascending" ||
		strings.Contains(class, chain.ErrBadCommitment.Error()) ||
		strings.Contains(class, sched.ErrMalformed.Error()) ||
		strings.Contains(class, "labelled")
}

// cloneBlock copies every slice the mutators edit.
func cloneBlock(b chain.Block) chain.Block {
	b.Receipts = slices.Clone(b.Receipts)
	b.Schedule.Order = slices.Clone(b.Schedule.Order)
	b.Schedule.Edges = slices.Clone(b.Schedule.Edges)
	b.Profiles = slices.Clone(b.Profiles)
	for i := range b.Profiles {
		b.Profiles[i].Entries = slices.Clone(b.Profiles[i].Entries)
	}
	return b
}

// mutator edits a copy of an honest block. apply reports false when the
// block offers nothing to edit (no edges, no profile entries, ...).
// preserving mutants must be accepted; refused ones must not be, since
// they publish a profile, receipt or root that the honest replay — the
// only one their schedule allows — contradicts.
type mutator struct {
	name       string
	times      int
	preserving bool
	refused    bool
	apply      func(rng *rand.Rand, b *chain.Block) bool
}

// mutators is the verdict test's generator: every kind of edit a miner
// could publish, each drawn the given number of times per block.
var mutators = []mutator{
	{name: "drop an edge", times: 4, apply: func(rng *rand.Rand, b *chain.Block) bool {
		if len(b.Schedule.Edges) == 0 {
			return false
		}
		e := rng.Intn(len(b.Schedule.Edges))
		b.Schedule.Edges = slices.Delete(b.Schedule.Edges, e, e+1)
		return true
	}},
	{name: "drop every edge", times: 1, apply: func(rng *rand.Rand, b *chain.Block) bool {
		if len(b.Schedule.Edges) == 0 {
			return false
		}
		b.Schedule.Edges = nil
		return true
	}},
	// Reversing an edge and re-sorting S reaches the race check and the
	// replay whenever the reversed H is acyclic; otherwise S, left as it
	// was, is not a topological order of it.
	{name: "reverse an edge", times: 2, apply: func(rng *rand.Rand, b *chain.Block) bool {
		if len(b.Schedule.Edges) == 0 {
			return false
		}
		e := &b.Schedule.Edges[rng.Intn(len(b.Schedule.Edges))]
		e.From, e.To = e.To, e.From
		if g, err := sched.GraphFromEdges(len(b.Calls), b.Schedule.Edges); err == nil {
			if order, err := sched.TopoSort(g); err == nil {
				b.Schedule.Order = order
			}
		}
		return true
	}},
	{name: "swap adjacent entries of S", times: 3, apply: func(rng *rand.Rand, b *chain.Block) bool {
		if len(b.Schedule.Order) < 2 {
			return false
		}
		i := rng.Intn(len(b.Schedule.Order) - 1)
		b.Schedule.Order[i], b.Schedule.Order[i+1] = b.Schedule.Order[i+1], b.Schedule.Order[i]
		return true
	}},
	{name: "over-serialize: every consecutive edge of S", times: 1, preserving: true, apply: func(rng *rand.Rand, b *chain.Block) bool {
		order := b.Schedule.Order
		for i := 1; i < len(order); i++ {
			b.Schedule.Edges = append(b.Schedule.Edges, sched.Edge{From: order[i-1], To: order[i]})
		}
		return true
	}},
	// Counters only order the grouping rule's walk; H is published, so two
	// swapped counters leave the block valid, through the pairwise check
	// when the swapped uses conflict.
	{name: "swap two counters on one lock", times: 2, preserving: true, apply: func(rng *rand.Rand, b *chain.Block) bool {
		type at struct{ p, e int }
		uses := map[stm.LockID][]at{}
		var contended []stm.LockID
		for p, prof := range b.Profiles {
			for e, en := range prof.Entries {
				uses[en.Lock] = append(uses[en.Lock], at{p, e})
				if len(uses[en.Lock]) == 2 {
					contended = append(contended, en.Lock)
				}
			}
		}
		if len(contended) == 0 {
			return false
		}
		us := uses[contended[rng.Intn(len(contended))]]
		i := rng.Intn(len(us))
		j := (i + 1 + rng.Intn(len(us)-1)) % len(us)
		a, c := &b.Profiles[us[i].p].Entries[us[i].e], &b.Profiles[us[j].p].Entries[us[j].e]
		a.Counter, c.Counter = c.Counter, a.Counter
		return true
	}},
	{name: "drop a profile entry", times: 1, refused: true, apply: func(rng *rand.Rand, b *chain.Block) bool {
		for _, i := range rng.Perm(len(b.Profiles)) {
			if len(b.Profiles[i].Entries) > 0 {
				b.Profiles[i].Entries = b.Profiles[i].Entries[1:]
				return true
			}
		}
		return false
	}},
	{name: "change a profile entry's mode", times: 1, refused: true, apply: func(rng *rand.Rand, b *chain.Block) bool {
		for _, i := range rng.Perm(len(b.Profiles)) {
			if es := b.Profiles[i].Entries; len(es) > 0 {
				e := &es[rng.Intn(len(es))]
				e.Mode = e.Mode%stm.ModeExclusive + 1
				return true
			}
		}
		return false
	}},
	// A duplicate in place of the next entry keeps the profile's length,
	// so only the canonical-form check tells it from the trace.
	{name: "duplicate a profile entry", times: 1, refused: true, apply: func(rng *rand.Rand, b *chain.Block) bool {
		for _, i := range rng.Perm(len(b.Profiles)) {
			if es := b.Profiles[i].Entries; len(es) > 1 {
				e := 1 + rng.Intn(len(es)-1)
				es[e] = es[e-1]
				return true
			}
		}
		return false
	}},
	{name: "add a phantom lock to a profile", times: 1, refused: true, apply: func(rng *rand.Rand, b *chain.Block) bool {
		if len(b.Profiles) == 0 {
			return false
		}
		i := rng.Intn(len(b.Profiles))
		b.Profiles[i].Entries = append(b.Profiles[i].Entries, stm.ProfileEntry{
			Lock: stm.LockID{Scope: "phantom", Key: "x"}, Mode: stm.ModeExclusive, Counter: uint64(rng.Intn(5) + 1),
		})
		return true
	}},
	{name: "flip a receipt's reverted flag", times: 1, refused: true, apply: func(rng *rand.Rand, b *chain.Block) bool {
		if len(b.Receipts) == 0 {
			return false
		}
		i := rng.Intn(len(b.Receipts))
		b.Receipts[i].Reverted = !b.Receipts[i].Reverted
		return true
	}},
	{name: "perturb a receipt's gas", times: 1, refused: true, apply: func(rng *rand.Rand, b *chain.Block) bool {
		if len(b.Receipts) == 0 {
			return false
		}
		b.Receipts[rng.Intn(len(b.Receipts))].GasUsed++
		return true
	}},
	{name: "splice in another transaction's receipt", times: 1, apply: func(rng *rand.Rand, b *chain.Block) bool {
		if len(b.Receipts) < 2 {
			return false
		}
		i, j := rng.Intn(len(b.Receipts)), rng.Intn(len(b.Receipts)-1)
		if j >= i {
			j++
		}
		r := b.Receipts[j]
		r.Tx = b.Receipts[i].Tx
		b.Receipts[i] = r
		return true
	}},
	{name: "forge the state root", times: 1, refused: true, apply: func(rng *rand.Rand, b *chain.Block) bool {
		b.Header.StateRoot = types.HashString("forged")
		return true
	}},
}

// racy is the race oracle, by brute force: whether two profile entries of
// different transactions name one lock in conflicting modes while neither
// transaction reaches the other by a depth-first search over the block's
// edges.
func racy(b chain.Block) bool {
	n := len(b.Calls)
	succs := make([][]int, n)
	for _, e := range b.Schedule.Edges {
		succs[e.From] = append(succs[e.From], int(e.To))
	}
	reach := make([][]bool, n)
	for from := range reach {
		seen := make([]bool, n)
		stack := []int{from}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range succs[v] {
				if !seen[s] {
					seen[s] = true
					stack = append(stack, s)
				}
			}
		}
		reach[from] = seen
	}
	for i := range b.Profiles {
		for j := i + 1; j < len(b.Profiles); j++ {
			for _, a := range b.Profiles[i].Entries {
				for _, c := range b.Profiles[j].Entries {
					if a.Lock == c.Lock && !stm.Compatible(a.Mode, c.Mode) && !reach[i][j] && !reach[j][i] {
						return true
					}
				}
			}
		}
	}
	return false
}

// verdictParams draws one block to mutate: any workload kind, size and
// conflict level, mined by any engine.
func verdictParams(rng *rand.Rand) (workload.Params, engine.Kind) {
	kinds := workload.AllKinds()
	return workload.Params{
		Kind:            kinds[rng.Intn(len(kinds))],
		Transactions:    10 + rng.Intn(50),
		ConflictPercent: rng.Intn(101),
		Seed:            rng.Int63n(100000),
	}, engine.Kinds()[rng.Intn(len(engine.Kinds()))]
}

// checkVerdicts mines the block p describes with kind, applies mutators to
// copies of it, and holds the validator's verdict on every mutant to four
// rules:
//
//   - it is one class at every pool size on both runners: the order in
//     which the fork-join executor starts ready tasks is a choice among
//     orders H allows, and the replay stops at the first deviating trace,
//     so neither may show in a verdict;
//   - a preserving mutant is accepted, a refused one is not;
//   - an accepted mutant reaches the header's state root;
//   - a race is reported exactly when the oracle finds one, unless a check
//     Precheck makes before the race check refused the block first.
//
// It returns the classes seen, by count.
func checkVerdicts(t *testing.T, p workload.Params, kind engine.Kind, rng *rand.Rand, mutators []mutator) map[string]int {
	t.Helper()
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	res, err := miner.Mine(engine.MustNew(kind), runtime.NewSimRunner(), w.World, genesis(), w.Calls, engine.Options{Workers: 3})
	if err != nil {
		t.Fatalf("%+v on %v: mine: %v", p, kind, err)
	}
	honest := res.Block

	type mutant struct {
		mutator
		block chain.Block
	}
	mutants := []mutant{{mutator{name: "honest", preserving: true}, honest}}
	for _, m := range mutators {
		for k := 0; k < m.times; k++ {
			b := cloneBlock(honest)
			if m.apply(rng, &b) {
				mutants = append(mutants, mutant{m, reseal(b)})
			}
		}
	}

	runners := []struct {
		name string
		new  func() runtime.Runner
	}{
		{"sim", func() runtime.Runner { return runtime.NewSimRunner() }},
		{"os", func() runtime.Runner { return runtime.NewOSRunner(nil) }},
	}
	classes := map[string]int{}
	for _, m := range mutants {
		want := ""
		for _, r := range runners {
			for workers := 1; workers <= 4; workers++ {
				w.Reset()
				_, err := Validate(r.new(), w.World, m.block, Config{Workers: workers})
				got := verdictClass(err)
				if want == "" {
					want = got
					classes[got]++
				}
				if got != want {
					t.Errorf("%+v on %v, %s: %s at %d workers on %s, %s at 1 worker on sim (%v)",
						p, kind, m.name, got, workers, r.name, want, err)
				}
				if err != nil {
					continue
				}
				if root, rerr := w.World.StateRoot(); rerr != nil || root != honest.Header.StateRoot {
					t.Errorf("%+v on %v, %s: accepted at %d workers on %s with root %s (%v), header %s",
						p, kind, m.name, workers, r.name, root.Short(), rerr, honest.Header.StateRoot.Short())
				}
			}
		}
		if m.preserving && want != "accept" {
			t.Errorf("%+v on %v, %s: preserving mutant refused: %s", p, kind, m.name, want)
		}
		if m.refused && want == "accept" {
			t.Errorf("%+v on %v, %s: accepted", p, kind, m.name)
		}
		race := want == sched.ErrRace.Error()
		if oracle := racy(m.block); race != oracle && !(oracle && refusedBeforeRaceCheck(want)) {
			t.Errorf("%+v on %v, %s: verdict %q, race oracle %v", p, kind, m.name, want, oracle)
		}
	}
	return classes
}

// TestVerdictIsScheduleIndependent drives checkVerdicts over blocks drawn
// from a fixed seed: every engine, every workload kind, sizes from 10 to
// 59 transactions and conflict from 0 to 100 %.
func TestVerdictIsScheduleIndependent(t *testing.T) {
	blocks := 12
	if testing.Short() {
		blocks = 4
	}
	rng := rand.New(rand.NewSource(4242))
	total := map[string]int{}
	for i := 0; i < blocks; i++ {
		p, kind := verdictParams(rng)
		for class, k := range checkVerdicts(t, p, kind, rng, mutators) {
			total[class] += k
		}
	}
	for _, class := range []string{"accept", sched.ErrRace.Error(), "trace does not match", "receipt mismatch", "final state"} {
		if total[class] == 0 {
			t.Errorf("no mutant drew the verdict %q", class)
		}
	}
	t.Logf("verdicts over %d blocks: %v", blocks, total)
}

// TestValidatorMetamorphicTamperFuzz draws many more blocks than
// TestVerdictIsScheduleIndependent and one random mutator for each: a
// preserving mutant must be accepted, a refused one must not be, and —
// the security property — no mutant is accepted with a state other than
// the honest one. checkVerdicts holds each verdict to those rules.
func TestValidatorMetamorphicTamperFuzz(t *testing.T) {
	iterations := 30
	if testing.Short() {
		iterations = 10
	}
	rng := rand.New(rand.NewSource(2424))
	total, rejected := map[string]int{}, 0
	for it := 0; it < iterations; it++ {
		p, kind := verdictParams(rng)
		m := mutators[rng.Intn(len(mutators))]
		m.times = 1
		for class, k := range checkVerdicts(t, p, kind, rng, []mutator{m}) {
			total[class] += k
			if class != "accept" {
				rejected += k
			}
		}
	}
	if rejected == 0 {
		t.Errorf("fuzz never exercised a rejection: %v", total)
	}
	t.Logf("verdicts over %d blocks: %v", iterations, total)
}

// FuzzVerdict is TestVerdictIsScheduleIndependent with the block and the
// mutant drawn from the fuzzer's inputs.
func FuzzVerdict(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, which uint8) {
		rng := rand.New(rand.NewSource(seed))
		p, kind := verdictParams(rng)
		m := mutators[int(which)%len(mutators)]
		m.times = 1
		checkVerdicts(t, p, kind, rng, []mutator{m})
	})
}
