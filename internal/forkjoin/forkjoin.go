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
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"contractstm/internal/runtime"
)

// ErrUnreachableTasks reports tasks whose dependencies can never be
// satisfied (a cycle), detected before any task runs.
var ErrUnreachableTasks = errors.New("forkjoin: tasks unreachable (cyclic dependencies)")

// dag is the task graph as the workers use it.
type dag struct {
	// succs[start[p]:start[p+1]] are the tasks waiting on p (a duplicate
	// predecessor appears, and is counted, twice).
	start, succs []int
	// rank orders tasks by priority — bottom level descending, index
	// ascending — and byRank is its inverse: byRank[rank[i]] == i.
	rank, byRank []int
}

// after returns the tasks waiting on p.
func (g *dag) after(p int) []int { return g.succs[g.start[p]:g.start[p+1]] }

// newDAG inverts preds and ranks the tasks, in O(tasks + edges).
func newDAG(preds [][]int) (*dag, error) {
	n := len(preds)
	g := &dag{start: make([]int, n+1), rank: make([]int, n), byRank: make([]int, n)}
	for i, ps := range preds {
		for _, p := range ps {
			if p < 0 || p >= n || p == i {
				return nil, fmt.Errorf("forkjoin: task %d has invalid predecessor %d", i, p)
			}
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

	// Topological order (Kahn), then bottom levels in reverse: level[i] is
	// the number of tasks on the longest chain starting at i.
	remaining := make([]int, n)
	order := make([]int, 0, n)
	for i, ps := range preds {
		if remaining[i] = len(ps); remaining[i] == 0 {
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
		return nil, fmt.Errorf("%w: %d of %d tasks can run", ErrUnreachableTasks, len(order), n)
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
	return g, nil
}

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

// Run executes body(th, i) once for every task i in [0, len(preds)) on
// `workers` threads of the given runner, starting i only after every task
// in preds[i] has returned, and reports the makespan in the runner's time
// unit. Entries of preds[i] must be in range and not i itself; duplicates
// are harmless.
func Run(runner runtime.Runner, workers int, preds [][]int, body func(th runtime.Thread, i int)) (uint64, error) {
	n := len(preds)
	g, err := newDAG(preds)
	if err != nil {
		return 0, err
	}
	p := &pool{ready: make([]uint64, (n+63)/64)}
	remaining := make([]int, n) // predecessors of i yet to finish
	for i, ps := range preds {
		if remaining[i] = len(ps); remaining[i] == 0 {
			p.push(g.rank[i])
		}
	}

	makespan, err := runner.Run(workers, func(th runtime.Thread) {
		id := -1 // the task this worker has just finished, if any
		for {
			p.mu.Lock()
			if id >= 0 {
				p.done++
				for _, s := range g.after(id) {
					if remaining[s]--; remaining[s] == 0 {
						p.push(g.rank[s])
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
			woken := append([]runtime.Thread(nil), p.idle[len(p.idle)-wake:]...)
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
				id = g.byRank[r]
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
