package sched

import (
	"errors"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"contractstm/internal/stm"
	"contractstm/internal/types"
)

func lock(k string) stm.LockID { return stm.LockID{Scope: "t", Key: k} }

func prof(tx int, entries ...stm.ProfileEntry) stm.Profile {
	return stm.Profile{Tx: types.TxID(tx), Entries: entries}
}

func entry(k string, m stm.Mode, c uint64) stm.ProfileEntry {
	return stm.ProfileEntry{Lock: lock(k), Mode: m, Counter: c}
}

func TestBuildHappensBeforeChainsExclusives(t *testing.T) {
	// Three txs hold lock "a" exclusively with counters 1,2,3: must chain
	// 0 -> 1 -> 2 with no shortcut edge required.
	_, g, err := BuildSchedule(3, []stm.Profile{
		prof(0, entry("a", stm.ModeExclusive, 1)),
		prof(1, entry("a", stm.ModeExclusive, 2)),
		prof(2, entry("a", stm.ModeExclusive, 3)),
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if got := g.Succs(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("succs(0) = %v, want [1]", got)
	}
	if got := g.Succs(1); len(got) != 1 || got[0] != 2 {
		t.Errorf("succs(1) = %v, want [2]", got)
	}
}

func TestBuildHappensBeforeNoEdgesBetweenCompatible(t *testing.T) {
	// Shared(1), Shared(2): no edges. Increment(1), Increment(2) on another
	// lock: no edges either.
	_, g, err := BuildSchedule(4, []stm.Profile{
		prof(0, entry("r", stm.ModeShared, 1)),
		prof(1, entry("r", stm.ModeShared, 2)),
		prof(2, entry("i", stm.ModeIncrement, 1)),
		prof(3, entry("i", stm.ModeIncrement, 2)),
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if g.EdgeCount() != 0 {
		t.Fatalf("edges = %v, want none", g.Edges())
	}
}

func TestBuildHappensBeforeReaderWriterGroups(t *testing.T) {
	// writer(1), reader(2), reader(3), writer(4):
	// w0 -> r1, w0 -> ... edges: w0->r1, w0->r2? No: r1 and r2 form a group
	// with edges from w0 each; w3 gets edges from both readers.
	_, g, err := BuildSchedule(4, []stm.Profile{
		prof(0, entry("a", stm.ModeExclusive, 1)),
		prof(1, entry("a", stm.ModeShared, 2)),
		prof(2, entry("a", stm.ModeShared, 3)),
		prof(3, entry("a", stm.ModeExclusive, 4)),
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	wantEdges := map[Edge]bool{
		{From: 0, To: 1}: true,
		{From: 0, To: 2}: true,
		{From: 1, To: 3}: true,
		{From: 2, To: 3}: true,
	}
	got := g.Edges()
	if len(got) != len(wantEdges) {
		t.Fatalf("edges = %v, want %v", got, wantEdges)
	}
	for _, e := range got {
		if !wantEdges[e] {
			t.Fatalf("unexpected edge %v", e)
		}
	}
}

func TestBuildHappensBeforeSharedThenIncrementConflict(t *testing.T) {
	// Shared and increment modes conflict: must be ordered.
	_, g, err := BuildSchedule(2, []stm.Profile{
		prof(0, entry("a", stm.ModeShared, 1)),
		prof(1, entry("a", stm.ModeIncrement, 2)),
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if g.EdgeCount() != 1 {
		t.Fatalf("edges = %v, want one", g.Edges())
	}
}

func TestBuildHappensBeforeDuplicateCounterRejected(t *testing.T) {
	_, _, err := BuildSchedule(2, []stm.Profile{
		prof(0, entry("a", stm.ModeExclusive, 1)),
		prof(1, entry("a", stm.ModeExclusive, 1)),
	})
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

func TestBuildHappensBeforeOutOfRangeTx(t *testing.T) {
	_, _, err := BuildSchedule(1, []stm.Profile{prof(5, entry("a", stm.ModeShared, 1))})
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

func TestTopoSortDeterministicAndValid(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(3, 1)
	g.AddEdge(1, 0)
	g.AddEdge(4, 0)
	order1, err := TopoSort(g)
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	order2, _ := TopoSort(g)
	for i := range order1 {
		if order1[i] != order2[i] {
			t.Fatal("TopoSort not deterministic")
		}
	}
	if err := VerifyOrder(g, order1); err != nil {
		t.Fatalf("VerifyOrder on own output: %v", err)
	}
	// Smallest-first tie-break: 2, 3, 4 are sources; 2 first.
	if order1[0] != 2 {
		t.Fatalf("order = %v, want 2 first", order1)
	}
}

func TestTopoSortCyclic(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	if _, err := TopoSort(g); !errors.Is(err, ErrCyclic) {
		t.Fatalf("err = %v, want ErrCyclic", err)
	}
}

func TestVerifyOrderRejectsBadOrders(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1)
	cases := []struct {
		name  string
		order []types.TxID
		want  error
	}{
		{"reversed edge", []types.TxID{1, 0, 2}, ErrBadOrder},
		{"wrong length", []types.TxID{0, 1}, ErrMalformed},
		{"duplicate", []types.TxID{0, 0, 1}, ErrMalformed},
		{"out of range", []types.TxID{0, 1, 7}, ErrMalformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := VerifyOrder(g, tc.order); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestCriticalPath(t *testing.T) {
	// 0 -> 1 -> 2 and 3 independent; unit weights: critical path 3.
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	unit := []uint64{1, 1, 1, 1}
	cp, err := CriticalPath(g, unit)
	if err != nil || cp != 3 {
		t.Fatalf("CriticalPath = (%d,%v), want 3", cp, err)
	}
	// Weighted: the independent tx 3 dominates.
	cp, err = CriticalPath(g, []uint64{1, 1, 1, 10})
	if err != nil || cp != 10 {
		t.Fatalf("weighted CriticalPath = (%d,%v), want 10", cp, err)
	}
}

func TestReachabilityAndOrdered(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	reach, err := Reachability(g)
	if err != nil {
		t.Fatalf("Reachability: %v", err)
	}
	if !Ordered(reach, 0, 2) {
		t.Error("0 should reach 2 transitively")
	}
	if !Ordered(reach, 2, 0) {
		t.Error("Ordered must be symmetric in its arguments")
	}
	if Ordered(reach, 0, 3) {
		t.Error("3 is independent of 0")
	}
}

func TestCheckProfileRacesDetectsUnorderedConflict(t *testing.T) {
	g := NewGraph(2) // no edges
	profiles := []stm.Profile{
		prof(0, entry("a", stm.ModeExclusive, 1)),
		prof(1, entry("a", stm.ModeShared, 2)),
	}
	if err := CheckProfileRaces(g, profiles); !errors.Is(err, ErrRace) {
		t.Fatalf("err = %v, want ErrRace", err)
	}
	// Adding the ordering edge fixes it.
	g.AddEdge(0, 1)
	if err := CheckProfileRaces(g, profiles); err != nil {
		t.Fatalf("ordered conflict flagged: %v", err)
	}
}

func TestCheckProfileRacesAllowsCompatibleUnordered(t *testing.T) {
	g := NewGraph(2)
	profiles := []stm.Profile{
		prof(0, entry("a", stm.ModeIncrement, 1)),
		prof(1, entry("a", stm.ModeIncrement, 2)),
	}
	if err := CheckProfileRaces(g, profiles); err != nil {
		t.Fatalf("compatible unordered accesses flagged: %v", err)
	}
}

// TestCheckProfileRacesFastPathAndFallback: H built from the profiles takes
// the fast path; an H that is race free only through a transitive path, or
// only against the counters, takes the pairwise check and is accepted;
// the pairwise check still refuses a real race.
func TestCheckProfileRacesFastPathAndFallback(t *testing.T) {
	profiles := []stm.Profile{
		prof(0, entry("a", stm.ModeExclusive, 1)),
		prof(1, entry("a", stm.ModeExclusive, 2)),
		prof(2, entry("a", stm.ModeShared, 3)),
		prof(3, entry("a", stm.ModeShared, 4)),
	}
	check := func(name string, g *Graph, wantFallback bool, want error) {
		t.Helper()
		before := raceFallbacks.Load()
		err := CheckProfileRaces(g, profiles)
		if !errors.Is(err, want) {
			t.Errorf("%s: err = %v, want %v", name, err, want)
		}
		if fell := raceFallbacks.Load() != before; fell != wantFallback {
			t.Errorf("%s: fallback = %v, want %v", name, fell, wantFallback)
		}
	}
	_, built, err := BuildSchedule(4, profiles)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	check("built from the profiles", built, false, nil)

	// 0→1, 1→2, 1→3 plus a redundant 0→2: still a superset of the rule's H.
	super := NewGraph(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {1, 3}, {0, 2}} {
		super.AddEdge(e[0], e[1])
	}
	check("superset of the rule's edges", super, false, nil)

	// The rule draws 0→1, 1→2, 1→3. Replace 1→3 by 2→3: 1⇝3 through 2,
	// and the shared pair 2, 3 is compatible either way.
	implied := NewGraph(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		implied.AddEdge(e[0], e[1])
	}
	check("implied transitively", implied, true, nil)

	// Against the counters: 1→0 orders the two writers the other way.
	reversed := NewGraph(4)
	for _, e := range [][2]int{{1, 0}, {0, 2}, {0, 3}} {
		reversed.AddEdge(e[0], e[1])
	}
	check("against counter order", reversed, true, nil)

	// Drop 1→3 outright: the writer 1 and the reader 3 race.
	dropped := NewGraph(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		dropped.AddEdge(e[0], e[1])
	}
	check("dropped", dropped, true, ErrRace)
}

// TestCheckProfileRacesMatchesPairwiseOracle: on random profiles and random
// acyclic H, the check refuses exactly when some conflicting pair of uses of
// one lock is unordered, as found by a depth-first search over H.
func TestCheckProfileRacesMatchesPairwiseOracle(t *testing.T) {
	modes := []stm.Mode{stm.ModeShared, stm.ModeIncrement, stm.ModeExclusive}
	propFn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		counters := map[string]uint64{}
		profiles := make([]stm.Profile, n)
		for i := range profiles {
			p := prof(i)
			for _, k := range []string{"a", "b", "c"} {
				if rng.Intn(2) == 0 {
					counters[k]++
					p.Entries = append(p.Entries, entry(k, modes[rng.Intn(len(modes))], counters[k]))
				}
			}
			profiles[i] = p
		}
		// H: the rule's edges, each kept with probability 3/4, plus a few
		// random forward edges.
		_, built, err := BuildSchedule(n, profiles)
		if err != nil {
			return false
		}
		g := NewGraph(n)
		for _, e := range built.Edges() {
			if rng.Intn(4) != 0 {
				g.AddEdge(int(e.From), int(e.To))
			}
		}
		for k := rng.Intn(n); k > 0; k-- {
			a, b := rng.Intn(n), rng.Intn(n)
			if a < b {
				g.AddEdge(a, b)
			}
		}
		reaches := func(from, to int) bool {
			seen := make([]bool, n)
			stack := []int{from}
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, s := range g.succs[v] {
					if s == to {
						return true
					}
					if !seen[s] {
						seen[s] = true
						stack = append(stack, s)
					}
				}
			}
			return false
		}
		race := false
		for i := range profiles {
			for j := i + 1; j < n; j++ {
				for _, a := range profiles[i].Entries {
					for _, b := range profiles[j].Entries {
						if a.Lock == b.Lock && !stm.Compatible(a.Mode, b.Mode) && !reaches(i, j) && !reaches(j, i) {
							race = true
						}
					}
				}
			}
		}
		err = CheckProfileRaces(g, profiles)
		return errors.Is(err, ErrRace) == race && (race || err == nil)
	}
	if err := quick.Check(propFn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckProfileRacesFastPathAllocs: the fast path allocates the same
// number of times for a block of 100 transactions as for one of 500 — its
// storage is a few slabs sized by the profile entries, not a slice per lock
// or per use. Each transaction takes its own lock and, every fourth one, a
// contended one.
func TestCheckProfileRacesFastPathAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		profiles := make([]stm.Profile, n)
		var hot uint64
		for i := range profiles {
			p := prof(i, entry("own"+strconv.Itoa(i), stm.ModeExclusive, 1))
			if i%4 == 0 {
				hot++
				p.Entries = append([]stm.ProfileEntry{entry("hot", stm.ModeExclusive, hot)}, p.Entries...)
			}
			profiles[i] = p
		}
		_, g, err := BuildSchedule(n, profiles)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		before := raceFallbacks.Load()
		got := testing.AllocsPerRun(10, func() {
			if err := CheckProfileRaces(g, profiles); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		})
		if raceFallbacks.Load() != before {
			t.Fatalf("n=%d: left the fast path", n)
		}
		return got
	}
	small, large := allocs(100), allocs(500)
	t.Logf("allocations: %.0f at n=100, %.0f at n=500", small, large)
	if small != large {
		t.Errorf("fast path allocates %.0f times at n=100 and %.0f at n=500, want the same", small, large)
	}
}

func TestBuildScheduleAndConstructValidatorRoundTrip(t *testing.T) {
	profiles := []stm.Profile{
		prof(0, entry("a", stm.ModeExclusive, 1)),
		prof(1, entry("a", stm.ModeExclusive, 2), entry("b", stm.ModeExclusive, 1)),
		prof(2, entry("b", stm.ModeExclusive, 2)),
		prof(3), // independent
	}
	s, g, err := BuildSchedule(4, profiles)
	if err != nil {
		t.Fatalf("BuildSchedule: %v", err)
	}
	if err := VerifyOrder(g, s.Order); err != nil {
		t.Fatalf("own order invalid: %v", err)
	}
	prog, g2, err := ConstructValidator(4, s)
	if err != nil {
		t.Fatalf("ConstructValidator: %v", err)
	}
	if g2.EdgeCount() != g.EdgeCount() {
		t.Fatalf("round-trip edge count %d != %d", g2.EdgeCount(), g.EdgeCount())
	}
	for tx, want := range []int{0, 1, 1, 0} {
		if got := prog.Joins(tx); got != want {
			t.Errorf("tx%d joins %d tasks, want %d", tx, got, want)
		}
	}
}

func TestConstructValidatorRejectsTamperedSchedules(t *testing.T) {
	s := Schedule{
		Order: []types.TxID{0, 1},
		Edges: []Edge{{From: 1, To: 0}}, // contradicts the order
	}
	if _, _, err := ConstructValidator(2, s); !errors.Is(err, ErrBadOrder) {
		t.Fatalf("err = %v, want ErrBadOrder", err)
	}
	for _, e := range []Edge{{From: 0, To: 9}, {From: 1, To: 1}} {
		s = Schedule{Order: []types.TxID{0, 1}, Edges: []Edge{e}}
		if _, _, err := ConstructValidator(2, s); !errors.Is(err, ErrMalformed) {
			t.Fatalf("edge %v: err = %v, want ErrMalformed", e, err)
		}
	}
	// Cyclic H: also rejected (cycle makes VerifyOrder fail for any order).
	s = Schedule{Order: []types.TxID{0, 1}, Edges: []Edge{{From: 0, To: 1}, {From: 1, To: 0}}}
	if _, _, err := ConstructValidator(2, s); err == nil {
		t.Fatal("cyclic schedule accepted")
	}
}

func TestMetrics(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	m, err := Metrics(g)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if m.Transactions != 4 || m.Edges != 1 || m.CriticalPathLen != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.MaxWidth != 2 {
		t.Fatalf("MaxWidth = %f, want 2", m.MaxWidth)
	}
	// Not rounded: 5 transactions over a critical path of 2.
	g = NewGraph(5)
	g.AddEdge(0, 1)
	if m, err = Metrics(g); err != nil || m.MaxWidth != 2.5 {
		t.Fatalf("MaxWidth = %f (%v), want 2.5", m.MaxWidth, err)
	}
}

// Property: schedules built from random single-lock exclusive profiles are
// always valid chains: topological order sorted by counter.
func TestScheduleChainProperty(t *testing.T) {
	propFn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		perm := rng.Perm(n)
		profiles := make([]stm.Profile, n)
		for i := 0; i < n; i++ {
			profiles[i] = prof(i, entry("a", stm.ModeExclusive, uint64(perm[i]+1)))
		}
		s, g, err := BuildSchedule(n, profiles)
		if err != nil {
			return false
		}
		if err := VerifyOrder(g, s.Order); err != nil {
			return false
		}
		// Order must equal counters ascending.
		for i := 1; i < n; i++ {
			if perm[s.Order[i-1]] >= perm[s.Order[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(propFn, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: for random DAGs (edges only low->high), TopoSort output always
// satisfies VerifyOrder and Reachability agrees with edge transitivity for
// direct edges.
func TestTopoSortProperty(t *testing.T) {
	propFn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := NewGraph(n)
		for i := 0; i < n*2; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a < b {
				g.AddEdge(a, b)
			}
		}
		order, err := TopoSort(g)
		if err != nil {
			return false
		}
		if err := VerifyOrder(g, order); err != nil {
			return false
		}
		reach, err := Reachability(g)
		if err != nil {
			return false
		}
		for from, ss := range g.succs {
			for _, to := range ss {
				if !Ordered(reach, from, to) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(propFn, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
