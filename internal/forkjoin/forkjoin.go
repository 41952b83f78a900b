// Package forkjoin executes a task DAG on a fixed pool of threads by
// critical-path list scheduling — the substrate the paper's validators run
// on ("the validator can exploit whatever degree of parallelism it has
// available", §4).
//
// Tasks are dependency-counted rather than blocking: a task becomes ready
// when its last predecessor finishes, so no worker ever blocks holding a
// task (which would deadlock a bounded pool). Among the ready tasks a free
// worker always takes the one with the longest chain of successors still
// behind it (its bottom level, unit weights), lowest index first on ties.
// Compile works those priorities out once, from a topological order the
// caller has already verified; Run only executes the compiled Program.
//
// Deviation from the paper, which cites a Cilk work-stealing scheduler:
// work stealing is built for DAGs that unfold as they run. A validator's
// DAG is published whole in the block, so its critical path is known before
// the first task starts, and draining breadth first leaves one worker to
// run the longest chain alone at the end (a chain of c plus m independent
// tasks takes about m/W + c; starting the chain first takes max(c,
// (c+m)/W)). Priorities only choose among tasks the DAG already allows.
//
// The executor runs on runtime.Thread workers, so the same code serves the
// deterministic virtual-time simulator and real OS threads.
package forkjoin

import (
	"fmt"
	"math/bits"
	"sync"

	"contractstm/internal/runtime"
	"contractstm/internal/types"
)

// Program is a task DAG compiled for Run: the tasks waiting on each task,
// the joins each task waits for, and the dispatch priority. Build it with
// Compile; the zero Program has no tasks.
type Program struct {
	// succs[start[p]:start[p+1]] are the tasks waiting on p.
	start, succs []int
	// joins[i] is the number of edges into i.
	joins []int
	// rank orders tasks by priority — bottom level descending, index
	// ascending — and byRank is its inverse: byRank[rank[i]] == i.
	rank, byRank []int
}

// Compile builds the program of the tasks 0..len(order)-1 in which task i
// must return before any task in succs[i] starts, in O(tasks + edges).
// order must be a topological order of that DAG and every succs entry in
// range: the caller has proved both (for a block, sched.VerifyOrder has),
// and Compile checks neither. A duplicate successor is joined twice.
func Compile(order []types.TxID, succs [][]int) *Program {
	n := len(order)
	g := &Program{start: make([]int, n+1), joins: make([]int, n), rank: make([]int, n), byRank: make([]int, n)}
	for p, ss := range succs {
		g.start[p+1] = g.start[p] + len(ss)
		for _, s := range ss {
			g.joins[s]++
		}
	}
	g.succs = make([]int, 0, g.start[n])
	for _, ss := range succs {
		g.succs = append(g.succs, ss...)
	}

	// Bottom levels in reverse topological order: level[i] is the number of
	// tasks on the longest chain starting at i. rank holds them until the
	// sort below overwrites each with its rank.
	level := g.rank
	depth := 0
	for h := n - 1; h >= 0; h-- {
		i := int(order[h])
		level[i] = 1
		for _, s := range g.after(i) {
			level[i] = max(level[i], level[s]+1)
		}
		depth = max(depth, level[i])
	}

	// Counting sort by level, deepest first; visiting tasks in index order
	// keeps ties in index order.
	first := make([]int, depth+1) // first[d]: next rank for level depth-d
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

// Joins returns the number of tasks task i waits for.
func (g *Program) Joins(i int) int { return g.joins[i] }

// after returns the tasks waiting on p.
func (g *Program) after(p int) []int { return g.succs[g.start[p]:g.start[p+1]] }

// pool is the shared scheduling state for one Run call.
type pool struct {
	mu sync.Mutex
	// ready has bit r set while the task of rank r is ready and untaken,
	// so the best ready task is the first set bit. nready counts them.
	ready  []uint64
	nready int
	idle   []runtime.Thread
	done   int
}

// Run executes body(th, i) once for every task i of prog on `workers`
// threads of the given runner, starting i only after every task it joins
// has returned, and reports the makespan in the runner's time unit.
func Run(runner runtime.Runner, workers int, prog *Program, body func(th runtime.Thread, i int)) (uint64, error) {
	n := len(prog.rank)
	p := &pool{ready: make([]uint64, (n+63)/64)}
	remaining := append([]int(nil), prog.joins...) // joins of i yet to return
	for i, j := range remaining {
		if j == 0 {
			p.push(prog.rank[i])
		}
	}

	makespan, err := runner.Run(workers, func(th runtime.Thread) {
		id := -1 // the task this worker has just finished, if any
		// woken holds the idle workers this one wakes, copied out under p.mu
		// and reused across its dispatches.
		var woken []runtime.Thread
		for {
			p.mu.Lock()
			if id >= 0 {
				p.done++
				for _, s := range prog.after(id) {
					if remaining[s]--; remaining[s] == 0 {
						p.push(prog.rank[s])
					}
				}
			}
			// Take the best ready task directly — a finishing worker's own
			// successor included — and wake one idle worker per task left.
			finished := p.done == n
			r := p.pop()
			wake := min(p.nready, len(p.idle))
			if finished {
				wake = len(p.idle)
			} else if r < 0 {
				p.idle = append(p.idle, th)
			}
			woken = append(woken[:0], p.idle[len(p.idle)-wake:]...)
			p.idle = p.idle[:len(p.idle)-wake]
			p.mu.Unlock()
			for _, w := range woken {
				th.Unpark(w)
			}
			switch {
			case finished:
				return
			case r < 0:
				// Some other worker is running a task (the DAG is acyclic),
				// and will wake this one when it readies more or finishes.
				id = -1
				th.Park()
			default:
				id = prog.byRank[r]
				body(th, id)
			}
		}
	})
	if err != nil {
		return 0, fmt.Errorf("forkjoin: %w", err)
	}
	return makespan, nil
}

// push marks the task of rank r ready. Called with p.mu held.
func (p *pool) push(r int) {
	p.ready[r>>6] |= 1 << (r & 63)
	p.nready++
}

// pop takes the ready task of lowest rank, or returns -1 when none is
// ready. Called with p.mu held.
func (p *pool) pop() int {
	for w, b := range p.ready {
		if b != 0 {
			t := bits.TrailingZeros64(b)
			p.ready[w] &^= 1 << t
			p.nready--
			return w<<6 | t
		}
	}
	return -1
}
