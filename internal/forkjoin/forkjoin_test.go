package forkjoin

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"contractstm/internal/gas"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
)

// noop is a body for tests that only care whether Run finishes.
func noop(runtime.Thread, int) {}

// program compiles preds, where preds[i] are the tasks i joins. Every
// test DAG built this way points from lower to higher indices, so index
// order is a topological order.
func program(preds [][]int) *Program {
	order := make([]types.TxID, len(preds))
	for i := range order {
		order[i] = types.TxID(i)
	}
	return Compile(order, successors(preds))
}

// successors inverts preds: successors(preds)[p] lists every i with p in
// preds[i], once per occurrence.
func successors(preds [][]int) [][]int {
	succs := make([][]int, len(preds))
	for i, ps := range preds {
		for _, p := range ps {
			succs[p] = append(succs[p], i)
		}
	}
	return succs
}

// chain returns the preds of a linear chain 0 -> 1 -> ... -> n-1.
func chain(n int) [][]int {
	preds := make([][]int, n)
	for i := 1; i < n; i++ {
		preds[i] = []int{i - 1}
	}
	return preds
}

// randomDAG returns n tasks where each earlier task precedes a later one
// with probability 1/oneIn.
func randomDAG(rng *rand.Rand, n, oneIn int) [][]int {
	preds := make([][]int, n)
	for i := range preds {
		for j := 0; j < i; j++ {
			if rng.Intn(oneIn) == 0 {
				preds[i] = append(preds[i], j)
			}
		}
	}
	return preds
}

// finishOrder runs preds on SimRunner with the given per-task cost and
// returns the makespan and the order in which tasks finished.
func finishOrder(t *testing.T, workers int, preds [][]int, cost func(i int) gas.Gas) (uint64, []int) {
	t.Helper()
	var mu sync.Mutex
	var order []int
	ms, err := Run(runtime.NewSimRunner(), workers, program(preds), func(th runtime.Thread, i int) {
		th.Work(cost(i))
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return ms, order
}

func unit(int) gas.Gas { return 1 }

func TestChainExecutesInOrder(t *testing.T) {
	ms, order := finishOrder(t, 3, chain(10), func(int) gas.Gas { return 10 })
	if len(order) != 10 {
		t.Fatalf("ran %d tasks, want 10", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v, want strict sequence", order)
		}
	}
	// A chain has no parallelism: makespan == sum of work.
	if ms != 100 {
		t.Fatalf("makespan = %d, want 100", ms)
	}
}

func TestIndependentTasksRunInParallel(t *testing.T) {
	ms, _ := finishOrder(t, 3, make([][]int, 9), func(int) gas.Gas { return 100 })
	// 9 tasks x 100 on 3 workers: perfect packing = 300.
	if ms != 300 {
		t.Fatalf("makespan = %d, want 300 (perfect 3-way packing)", ms)
	}
}

func TestDiamondDependencies(t *testing.T) {
	// 0 -> {1, 2} -> 3.
	_, order := finishOrder(t, 2, [][]int{nil, {0}, {0}, {1, 2}}, func(int) gas.Gas { return 10 })
	if len(order) != 4 || order[0] != 0 || order[3] != 3 {
		t.Fatalf("finish order = %v: 0 must be first, 3 last", order)
	}
}

// TestCombStartsTheChainFirst is the shape that defeats breadth-first
// draining: a chain of c tasks beside m independent ones. Taking the m
// first leaves one worker to run the chain alone (about m/W + c); taking
// the chain's head first is optimal.
func TestCombStartsTheChainFirst(t *testing.T) {
	for _, tc := range []struct{ c, m int }{{96, 104}, {10, 90}, {50, 10}, {1, 7}, {30, 0}} {
		// The independent tasks come first, so index order alone would
		// start them first.
		preds := make([][]int, tc.m, tc.m+tc.c)
		for i := 0; i < tc.c; i++ {
			if i == 0 {
				preds = append(preds, nil)
			} else {
				preds = append(preds, []int{tc.m + i - 1})
			}
		}
		for workers := 2; workers <= 4; workers++ {
			ms, _ := finishOrder(t, workers, preds, unit)
			want := uint64(max(tc.c, (tc.c+tc.m+workers-1)/workers))
			if ms != want {
				t.Errorf("chain %d + %d independent on %d workers: makespan %d, want %d",
					tc.c, tc.m, workers, ms, want)
			}
		}
	}
}

// TestRespectsEveryEdgeUnderLoad checks, over seeded random DAGs of unit
// tasks, that every task runs once, every edge is respected, the makespan
// is within Graham's list-scheduling bound n/W + CP(1-1/W), and a second
// run gives the same makespan.
func TestRespectsEveryEdgeUnderLoad(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(120)
		preds := randomDAG(rng, n, 2+rng.Intn(30))
		workers := 1 + rng.Intn(4)

		ms, order := finishOrder(t, workers, preds, unit)
		position := make([]int, n)
		ran := make([]int, n)
		for pos, i := range order {
			position[i] = pos
			ran[i]++
		}
		cp := 0
		depth := make([]int, n) // longest chain ending at i; preds have lower indices
		for i, ps := range preds {
			if ran[i] != 1 {
				t.Fatalf("seed %d: task %d ran %d times", seed, i, ran[i])
			}
			depth[i] = 1
			for _, p := range ps {
				if position[p] >= position[i] {
					t.Fatalf("seed %d: edge %d->%d violated", seed, p, i)
				}
				depth[i] = max(depth[i], depth[p]+1)
			}
			cp = max(cp, depth[i])
		}
		if bound := float64(n)/float64(workers) + float64(cp)*(1-1/float64(workers)); float64(ms) > bound {
			t.Errorf("seed %d: n=%d cp=%d workers=%d: makespan %d above Graham's bound %.1f",
				seed, n, cp, workers, ms, bound)
		}
		if again, _ := finishOrder(t, workers, preds, unit); again != ms {
			t.Errorf("seed %d: makespans %d then %d", seed, ms, again)
		}
	}
}

func TestRunOnOSThreads(t *testing.T) {
	const n = 200
	preds := make([][]int, n)
	for i := 2; i < n; i++ {
		preds[i] = []int{i - 2}
	}
	var mu sync.Mutex
	var order []int
	if _, err := Run(runtime.NewOSRunner(nil), 4, program(preds), func(_ runtime.Thread, i int) {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != n {
		t.Fatalf("ran %d tasks, want %d", len(order), n)
	}
	position := make([]int, n)
	for pos, i := range order {
		position[i] = pos
	}
	for i := 2; i < n; i++ {
		if position[i-2] >= position[i] {
			t.Fatalf("edge %d->%d violated", i-2, i)
		}
	}
}

func TestEmptyTaskList(t *testing.T) {
	ms, err := Run(runtime.NewSimRunner(), 2, program(nil), noop)
	if err != nil {
		t.Fatalf("Run(empty): %v", err)
	}
	if ms != 0 {
		t.Fatalf("makespan = %d, want 0", ms)
	}
}

func TestDuplicatePredsCountedOnce(t *testing.T) {
	ran := false
	_, err := Run(runtime.NewSimRunner(), 1, program([][]int{nil, {0, 0, 0}}), func(_ runtime.Thread, i int) {
		if i == 1 {
			ran = true
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("task with duplicate preds never became ready")
	}
}

func TestDeterministicMakespan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	preds := randomDAG(rng, 40, 10)
	costs := make([]gas.Gas, len(preds))
	for i := range costs {
		costs[i] = gas.Gas(1 + rng.Intn(20))
	}
	cost := func(i int) gas.Gas { return costs[i] }
	ms1, order1 := finishOrder(t, 3, preds, cost)
	ms2, order2 := finishOrder(t, 3, preds, cost)
	if ms1 != ms2 {
		t.Fatalf("nondeterministic makespans: %d vs %d", ms1, ms2)
	}
	for i := range order1 {
		if order1[i] != order2[i] {
			t.Fatalf("nondeterministic finish order: %v vs %v", order1, order2)
		}
	}
}

// Property: random DAGs with forward edges always complete all tasks, and
// more workers never increase the simulated makespan.
func TestMoreWorkersNeverSlower(t *testing.T) {
	propFn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		preds := randomDAG(rng, 5+rng.Intn(40), 6)
		costs := make([]gas.Gas, len(preds))
		for i := range costs {
			costs[i] = gas.Gas(1 + rng.Intn(10))
		}
		body := func(th runtime.Thread, i int) { th.Work(costs[i]) }
		prog := program(preds)
		ms1, err1 := Run(runtime.NewSimRunner(), 1, prog, body)
		ms3, err3 := Run(runtime.NewSimRunner(), 3, prog, body)
		if err1 != nil || err3 != nil {
			t.Logf("seed %d: errors %v, %v", seed, err1, err3)
			return false
		}
		if ms3 > ms1 {
			t.Logf("seed %d: 3 workers took %d, 1 worker %d", seed, ms3, ms1)
		}
		return ms3 <= ms1
	}
	if err := quick.Check(propFn, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// oracle ranks preds the way Run did before programs were compiled:
// invert the lists, order the tasks by Kahn's algorithm, take bottom levels
// in reverse, and counting-sort by level descending, index ascending. It
// returns nil when preds has a cycle.
func oracle(preds [][]int) *Program {
	n := len(preds)
	g := &Program{start: make([]int, n+1), joins: make([]int, n), rank: make([]int, n), byRank: make([]int, n)}
	for i, ps := range preds {
		g.joins[i] = len(ps)
		for _, p := range ps {
			g.start[p+1]++
		}
	}
	for p := 0; p < n; p++ {
		g.start[p+1] += g.start[p]
	}
	g.succs = make([]int, g.start[n])
	fill := append([]int(nil), g.start[:n]...)
	for i, ps := range preds {
		for _, p := range ps {
			g.succs[fill[p]] = i
			fill[p]++
		}
	}

	remaining := append([]int(nil), g.joins...)
	order := make([]int, 0, n)
	for i, r := range remaining {
		if r == 0 {
			order = append(order, i)
		}
	}
	for h := 0; h < len(order); h++ {
		for _, s := range g.after(order[h]) {
			if remaining[s]--; remaining[s] == 0 {
				order = append(order, s)
			}
		}
	}
	if len(order) < n {
		return nil
	}
	level := make([]int, n)
	depth := 0
	for h := n - 1; h >= 0; h-- {
		i := order[h]
		level[i] = 1
		for _, s := range g.after(i) {
			level[i] = max(level[i], level[s]+1)
		}
		depth = max(depth, level[i])
	}

	first := make([]int, depth+1)
	for _, l := range level {
		first[depth-l+1]++
	}
	for d := 0; d < depth; d++ {
		first[d+1] += first[d]
	}
	for i, l := range level {
		g.rank[i] = first[depth-l]
		g.byRank[g.rank[i]] = i
		first[depth-l]++
	}
	return g
}

// checkAgainstOracle builds a DAG over len(perm) tasks with an edge
// perm[a] -> perm[b] for every pair (a, b), a < b (pairs are swapped into
// that order; a == b is dropped; duplicates stay), compiles it on a
// topological order drawn by pick — Kahn's algorithm taking ready task
// pick(k) of the k ready — and requires the program to equal the oracle's:
// the same ranks, joins and successors.
func checkAgainstOracle(t *testing.T, perm []int, pairs [][2]int, pick func(k int) int) {
	t.Helper()
	n := len(perm)
	preds := make([][]int, n)
	for _, e := range pairs {
		a, b := min(e[0], e[1]), max(e[0], e[1])
		if a != b {
			preds[perm[b]] = append(preds[perm[b]], perm[a])
		}
	}
	succs := successors(preds)

	remaining := make([]int, n)
	var ready []int
	for i, ps := range preds {
		if remaining[i] = len(ps); remaining[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]types.TxID, 0, n)
	for len(ready) > 0 {
		k := pick(len(ready))
		v := ready[k]
		ready[k] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, types.TxID(v))
		for _, s := range succs[v] {
			if remaining[s]--; remaining[s] == 0 {
				ready = append(ready, s)
			}
		}
	}

	got, want := Compile(order, succs), oracle(preds)
	if want == nil {
		t.Fatalf("oracle refused an acyclic DAG: perm %v, pairs %v", perm, pairs)
	}
	for name, pair := range map[string][2][]int{
		"rank":   {got.rank, want.rank},
		"byRank": {got.byRank, want.byRank},
		"joins":  {got.joins, want.joins},
	} {
		if !slices.Equal(pair[0], pair[1]) {
			t.Fatalf("order %v, pairs %v: %s = %v, oracle %v", order, pairs, name, pair[0], pair[1])
		}
	}
	for i := 0; i < n; i++ {
		a, b := slices.Clone(got.after(i)), slices.Clone(want.after(i))
		slices.Sort(a)
		slices.Sort(b)
		if !slices.Equal(a, b) {
			t.Fatalf("order %v, pairs %v: tasks after %d = %v, oracle %v", order, pairs, i, a, b)
		}
	}
}

// TestCompileMatchesOracle: on random DAGs with random labels, compiled on
// random topological orders (not only the smallest-id-first one), the
// program ranks, joins and links tasks exactly as the oracle does.
func TestCompileMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(80)
		pairs := make([][2]int, rng.Intn(3*n))
		for k := range pairs {
			pairs[k] = [2]int{rng.Intn(n), rng.Intn(n)}
		}
		checkAgainstOracle(t, rng.Perm(n), pairs, rng.Intn)
	}
}

// FuzzCompile drives checkAgainstOracle from fuzz bytes: a label seed, a
// task count, and one edge per byte pair.
func FuzzCompile(f *testing.F) {
	f.Add(int64(1), uint8(1), []byte{})
	f.Add(int64(2), uint8(4), []byte{0, 1, 0, 2, 1, 3, 2, 3})
	f.Add(int64(3), uint8(30), []byte{0, 29, 0, 29, 5, 5, 7, 3, 12, 1})
	f.Fuzz(func(t *testing.T, seed int64, tasks uint8, edges []byte) {
		n := 1 + int(tasks)%96
		rng := rand.New(rand.NewSource(seed))
		pairs := make([][2]int, len(edges)/2)
		for k := range pairs {
			pairs[k] = [2]int{int(edges[2*k]) % n, int(edges[2*k+1]) % n}
		}
		checkAgainstOracle(t, rng.Perm(n), pairs, rng.Intn)
	})
}
