// Package sched builds and validates the scheduling metadata at the heart
// of the paper's proposal: the happens-before graph H derived from the
// miner's per-lock use histories (or, holding only a block, from its lock
// profiles), the serial order S obtained by topological sort
// (Algorithm 1), and the fork-join program the validator executes
// (Algorithm 2). It also implements the validator-side safety checks: H
// must be acyclic, S must be one of its topological orders, and the
// published profiles must be race-free under H.
package sched

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"contractstm/internal/forkjoin"
	"contractstm/internal/stm"
	"contractstm/internal/types"
)

// Errors reported by graph construction and verification.
var (
	// ErrCyclic reports a cycle in a claimed happens-before graph.
	ErrCyclic = errors.New("sched: happens-before graph is cyclic")
	// ErrBadOrder reports a serial order that is not a topological order of
	// the happens-before graph.
	ErrBadOrder = errors.New("sched: serial order is not a topological order of H")
	// ErrRace reports two conflicting lock accesses unordered by H.
	ErrRace = errors.New("sched: data race: conflicting accesses unordered by happens-before")
	// ErrMalformed reports structurally invalid schedule metadata.
	ErrMalformed = errors.New("sched: malformed schedule")
)

// Edge is one happens-before constraint: From must complete before To runs.
type Edge struct {
	From types.TxID `json:"from"`
	To   types.TxID `json:"to"`
}

// Graph is a happens-before DAG over the transactions 0..N-1 of one block.
type Graph struct {
	n     int
	succs [][]int
	// edgeSet dedups AddEdge in O(1); a hot lock (one ballot counter
	// touched by every transaction) otherwise turns the per-edge linear
	// scan of succs[from] quadratic.
	edgeSet map[uint64]struct{}
}

// NewGraph returns an edgeless graph over n transactions.
func NewGraph(n int) *Graph {
	return &Graph{
		n:       n,
		succs:   make([][]int, n),
		edgeSet: make(map[uint64]struct{}),
	}
}

// N returns the number of transactions.
func (g *Graph) N() int { return g.n }

// AddEdge inserts from→to, ignoring duplicates and self-edges.
func (g *Graph) AddEdge(from, to int) {
	if from == to || from < 0 || to < 0 || from >= g.n || to >= g.n {
		return
	}
	key := uint64(from)<<32 | uint64(to)
	if _, dup := g.edgeSet[key]; dup {
		return
	}
	g.edgeSet[key] = struct{}{}
	g.succs[from] = append(g.succs[from], to)
}

// orders reports whether from→to is a direct edge of g, or from and to are
// one transaction, which cannot race with itself.
func (g *Graph) orders(from, to int) bool {
	if from == to {
		return true
	}
	_, ok := g.edgeSet[uint64(from)<<32|uint64(to)]
	return ok
}

// Succs returns tx's immediate successors, sorted.
func (g *Graph) Succs(tx int) []int {
	out := append([]int(nil), g.succs[tx]...)
	sort.Ints(out)
	return out
}

// Edges returns all edges sorted by (from, to); the canonical encoding for
// blocks.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for from, ss := range g.succs {
		for _, to := range ss {
			out = append(out, Edge{From: types.TxID(from), To: types.TxID(to)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int {
	n := 0
	for _, ss := range g.succs {
		n += len(ss)
	}
	return n
}

// GraphFromEdges rebuilds a graph from its canonical edge list (validator
// side). It rejects out-of-range endpoints.
func GraphFromEdges(n int, edges []Edge) (*Graph, error) {
	g := NewGraph(n)
	for _, e := range edges {
		if int(e.From) >= n || int(e.To) >= n || e.From == e.To {
			return nil, fmt.Errorf("%w: edge %d->%d with %d transactions", ErrMalformed, e.From, e.To, n)
		}
		g.AddEdge(int(e.From), int(e.To))
	}
	return g, nil
}

// addHistory adds one lock's edges to H, given the lock's committed
// holders in use-counter order (see eachEdge).
func (g *Graph) addHistory(history []stm.HistoryEntry) {
	eachEdge(history, func(from, to int) bool {
		g.AddEdge(from, to)
		return true
	})
}

// eachEdge calls edge for every edge one lock's history gives H, until
// edge returns false; it reports whether none did. The history lists the
// lock's committed holders in use-counter order: runs of mutually-
// compatible holders (same non-exclusive mode) are grouped, and each
// holder gets an edge from every member of the immediately preceding
// conflicting group. Compatible holders get no mutual edges — that is what
// keeps Ballot's commuting vote increments parallel for the validator too.
// This is the one grouping rule: every engine's H, every recomputation of
// it and the validator's race check (CheckProfileRaces) go through here.
func eachEdge(history []stm.HistoryEntry, edge func(from, to int) bool) bool {
	// history[prev:cur] is the previous conflicting group, history[cur:i]
	// the group being built.
	prev, cur := 0, 0
	for i, h := range history {
		if i > cur && !stm.Compatible(history[cur].Mode, h.Mode) {
			prev, cur = cur, i
		}
		for _, p := range history[prev:cur] {
			if !edge(int(p.Tx), int(h.Tx)) {
				return false
			}
		}
	}
	return true
}

// TopoSort returns the deterministic topological order of g (Kahn's
// algorithm, smallest-id-first tie-breaking), or ErrCyclic. It is the one
// topological sort in the tree.
func TopoSort(g *Graph) ([]types.TxID, error) {
	indeg := make([]int, g.n)
	for _, ss := range g.succs {
		for _, to := range ss {
			indeg[to]++
		}
	}
	// ready has bit v set while v's predecessors are all ordered and v is
	// not; every word before ready[w] is zero, so the smallest ready id is
	// the first set bit from w on.
	ready := make([]uint64, (g.n+63)/64)
	for v, d := range indeg {
		if d == 0 {
			ready[v>>6] |= 1 << (v & 63)
		}
	}
	order := make([]types.TxID, 0, g.n)
	for w := 0; w < len(ready); {
		if ready[w] == 0 {
			w++
			continue
		}
		v := w<<6 | bits.TrailingZeros64(ready[w])
		ready[w] &^= 1 << (v & 63)
		order = append(order, types.TxID(v))
		for _, to := range g.succs[v] {
			if indeg[to]--; indeg[to] == 0 {
				ready[to>>6] |= 1 << (to & 63)
				w = min(w, to>>6)
			}
		}
	}
	if len(order) != g.n {
		return nil, fmt.Errorf("%w: %d of %d transactions ordered", ErrCyclic, len(order), g.n)
	}
	return order, nil
}

// VerifyOrder checks that order is a permutation of 0..N-1 and a
// topological order of g.
func VerifyOrder(g *Graph, order []types.TxID) error {
	if len(order) != g.n {
		return fmt.Errorf("%w: order has %d entries for %d transactions", ErrMalformed, len(order), g.n)
	}
	pos := make([]int, g.n)
	seen := make([]bool, g.n)
	for i, tx := range order {
		if int(tx) >= g.n || seen[tx] {
			return fmt.Errorf("%w: entry %d (%s)", ErrMalformed, i, tx)
		}
		seen[tx] = true
		pos[tx] = i
	}
	for from, ss := range g.succs {
		for _, to := range ss {
			if pos[from] >= pos[to] {
				return fmt.Errorf("%w: edge %d->%d but positions %d>=%d", ErrBadOrder, from, to, pos[from], pos[to])
			}
		}
	}
	return nil
}

// CriticalPath returns the weight of the heaviest path through g, where
// weight[i] is transaction i's cost (use 1 for hop counts). It is the
// validator's inherent lower bound on parallel execution time, and the
// paper suggests rewarding miners for schedules with short critical paths.
func CriticalPath(g *Graph, weight []uint64) (uint64, error) {
	if len(weight) != g.n {
		return 0, fmt.Errorf("%w: %d weights for %d transactions", ErrMalformed, len(weight), g.n)
	}
	order, err := TopoSort(g)
	if err != nil {
		return 0, err
	}
	// Walk in reverse topological order: tail[v] is the weight of the
	// heaviest path starting at v, final for v's successors when v is
	// visited.
	tail := make([]uint64, g.n)
	var heaviest uint64
	for i := len(order) - 1; i >= 0; i-- {
		v := int(order[i])
		var next uint64
		for _, s := range g.succs[v] {
			next = max(next, tail[s])
		}
		tail[v] = next + weight[v]
		heaviest = max(heaviest, tail[v])
	}
	return heaviest, nil
}

// Reachability computes the transitive closure of g as bitsets: bit t of
// row f reports f⇝t. O(V·E/64); blocks are at most a few hundred
// transactions, so rows are a handful of words.
func Reachability(g *Graph) ([][]uint64, error) {
	order, err := TopoSort(g)
	if err != nil {
		return nil, err
	}
	words := (g.n + 63) / 64
	rows := make([]uint64, g.n*words)
	reach := make([][]uint64, g.n)
	for i := range reach {
		reach[i] = rows[i*words : (i+1)*words : (i+1)*words]
	}
	// Walk in reverse topological order: successors are final when visited.
	for i := len(order) - 1; i >= 0; i-- {
		v := int(order[i])
		row := reach[v]
		for _, s := range g.succs[v] {
			row[s/64] |= 1 << (uint(s) % 64)
			for w, bits := range reach[s] {
				row[w] |= bits
			}
		}
	}
	return reach, nil
}

// Ordered reports whether a⇝b or b⇝a in the closure.
func Ordered(reach [][]uint64, a, b int) bool {
	if reach[a][b/64]&(1<<(uint(b)%64)) != 0 {
		return true
	}
	return reach[b][a/64]&(1<<(uint(a)%64)) != 0
}

// Schedule bundles the miner's published metadata: the serial order S and
// the happens-before edges of H (Algorithm 1's output, stored in the
// block).
type Schedule struct {
	Order []types.TxID `json:"order"`
	Edges []Edge       `json:"edges"`
}

// BuildScheduleFromHistories runs the data half of Algorithm 1 for a
// miner: H from each lock's history — its committed holders in use-counter
// order, as stm.Manager.Histories yields them — and the serial order S by
// topological sort. Every engine builds its (S, H) here.
func BuildScheduleFromHistories(n int, histories func(yield func([]stm.HistoryEntry))) (Schedule, *Graph, error) {
	g := NewGraph(n)
	histories(g.addHistory)
	return scheduleOf(g)
}

// BuildSchedule is BuildScheduleFromHistories for anyone holding only a
// block's profiles: it regroups the profile entries into each lock's
// history (the counters order them) and applies the same grouping rule, so
// an honest block's profiles give back the miner's (S, H). It rejects a
// profile for a transaction outside 0..n-1 and a counter repeated on one
// lock.
func BuildSchedule(n int, profiles []stm.Profile) (Schedule, *Graph, error) {
	h, err := regroup(n, profiles)
	if err != nil {
		return Schedule{}, nil, err
	}
	g := NewGraph(n)
	for s := range h.locks() {
		us := h.uses(s)
		if len(us) < 2 {
			continue
		}
		for j := 1; j < len(us); j++ {
			if us[j].counter == us[j-1].counter {
				return Schedule{}, nil, fmt.Errorf("%w: duplicate counter %d on lock %s", ErrMalformed, us[j].counter, h.lock(us[j]))
			}
		}
		g.addHistory(h.history(us))
	}
	return scheduleOf(g)
}

// scheduleOf produces the serial order S of H by topological sort and
// packages it with H's canonical edge list.
func scheduleOf(g *Graph) (Schedule, *Graph, error) {
	order, err := TopoSort(g)
	if err != nil {
		return Schedule{}, nil, err
	}
	return Schedule{Order: order, Edges: g.Edges()}, g, nil
}

// ConstructValidator compiles a published schedule into the validator's
// fork-join program (Algorithm 2), verifying the schedule's integrity first:
// S must be a topological order of H, which also proves H acyclic. The
// program's priorities come from one reverse walk of the verified S.
func ConstructValidator(n int, s Schedule) (*forkjoin.Program, *Graph, error) {
	g, err := GraphFromEdges(n, s.Edges)
	if err != nil {
		return nil, nil, err
	}
	if err := VerifyOrder(g, s.Order); err != nil {
		return nil, nil, err
	}
	return forkjoin.Compile(s.Order, g.succs), g, nil
}

// ParallelismMetrics summarizes a schedule's inherent parallelism; the
// paper proposes rewarding miners by critical-path length, and
// cmd/scheduleviz prints these.
type ParallelismMetrics struct {
	// Transactions is the block size.
	Transactions int
	// Edges is the number of happens-before constraints.
	Edges int
	// CriticalPathLen is the longest chain length (unit weights).
	CriticalPathLen uint64
	// MaxWidth is Transactions/CriticalPathLen, not rounded (0 for an empty
	// block) — an upper bound proxy for achievable speedup.
	MaxWidth float64
}

// Metrics computes ParallelismMetrics for g.
func Metrics(g *Graph) (ParallelismMetrics, error) {
	weights := make([]uint64, g.n)
	for i := range weights {
		weights[i] = 1
	}
	cp, err := CriticalPath(g, weights)
	if err != nil {
		return ParallelismMetrics{}, err
	}
	m := ParallelismMetrics{
		Transactions:    g.n,
		Edges:           g.EdgeCount(),
		CriticalPathLen: cp,
	}
	if cp > 0 {
		m.MaxWidth = float64(g.n) / float64(cp)
	}
	return m, nil
}
