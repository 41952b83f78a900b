// Package txpool implements the miner-side transaction pool: clients
// submit contract calls, and the miner selects the next block from them.
//
// Besides the baseline FIFO selection, the pool implements the
// conflict-spreading policy the paper sketches in §7.3: "Miners could also
// choose transactions so as to reduce the likelihood of conflict, say by
// including only those contracts that operate on disjoint data sets."
// Statically, a miner cannot know the exact abstract locks a Turing-
// complete contract will take (§1), but it can use cheap syntactic hints —
// the target contract and the sender — to spread obviously-colliding
// transactions across different blocks. BenchmarkTxPoolSelection measures
// the effect on miner retries and speedup.
//
// PolicyLockHint refines the idea with feedback from the execution engine:
// every call carries a set of static lock-hints — (contract, function)
// plus refinements by sender and by address-typed arguments — and the
// happens-before edges of mined blocks are reported back as conflict
// pairs. A hint two conflicting calls *shared* is evidence that it
// approximates a real abstract lock, so later selections avoid packing
// two calls with the same hot hint into one block. Unlike PolicySpread's
// per-function cap, this throttles only the hints that actually
// conflicted, so a workload with a few hot keys (see workload.KindHotCold)
// keeps its cold majority flowing at full block size.
package txpool

import (
	"errors"
	"sync"

	"contractstm/internal/contract"
	"contractstm/internal/types"
)

// Policy selects how the pool picks a block's transactions.
type Policy int

const (
	// PolicyFIFO takes transactions strictly in arrival order.
	PolicyFIFO Policy = iota + 1
	// PolicySpread takes transactions in arrival order but defers, within
	// the scanned window, transactions whose (contract, sender) hint
	// collides with one already chosen for this block — the paper's
	// "disjoint data sets" heuristic. Deferred transactions stay queued
	// for later blocks; no transaction is starved because each block's
	// scan starts at the queue head.
	PolicySpread
	// PolicyLockHint packs blocks using static lock-hints with engine
	// feedback: a call is deferred when one of its hints both (a) was
	// shared by a conflicting pair in an earlier block (positive score)
	// and (b) is already claimed by a call chosen for this block. Hints
	// with no conflict evidence never throttle anything.
	PolicyLockHint
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyFIFO:
		return "fifo"
	case PolicySpread:
		return "spread"
	case PolicyLockHint:
		return "lockhint"
	default:
		return "policy?"
	}
}

// ParsePolicy resolves a policy name as used by command-line flags.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "fifo":
		return PolicyFIFO, nil
	case "spread":
		return PolicySpread, nil
	case "lockhint":
		return PolicyLockHint, nil
	default:
		return 0, errors.New("txpool: unknown policy " + s + " (want fifo, spread or lockhint)")
	}
}

// ErrEmpty is returned by Select on an empty pool.
var ErrEmpty = errors.New("txpool: empty")

// pending is one queued call with its arrival sequence. The queue is kept
// sorted by seq at all times: Submit appends increasing seqs, selection
// removes entries without reordering, and every requeue path re-inserts
// by seq — that invariant is what lets an aborted in-flight batch return
// to exactly its original position relative to everything else. The
// embedded Entry carries the call plus the lazily-cached lock-hints
// (see selection.go).
type pending struct {
	Entry
	seq int64
}

// Pool is a FIFO transaction queue with pluggable block selection.
// It is safe for concurrent use.
type Pool struct {
	mu      sync.Mutex
	queue   []pending
	nextSeq int64
	// Scores is the engine's conflict feedback (see selection.go),
	// guarded by mu like the queue.
	Scores
	// outstandingLow is a monotone floor under every sequence number ever
	// handed out by SelectBatch (valid once hasOutstanding is set). The
	// legacy Requeue places its entries strictly below it, so a
	// front-requeued call can never collide with — or later interleave
	// into the middle of — an in-flight batch that RequeueBatch merges
	// back by its original seqs.
	outstandingLow int64
	hasOutstanding bool
}

// conflictDecayEvery is how many reported conflicts trigger a decay pass
// (every score halves; zeroed entries are dropped).
const conflictDecayEvery = 256

// maxConflictEntries bounds the conflict-score and hint-score maps; when
// exceeded, the lowest-scored entries are evicted first.
const maxConflictEntries = 1024

// New returns an empty pool.
func New() *Pool {
	return &Pool{Scores: NewScores()}
}

// ReportConflicts feeds back transactions that needed speculative retries
// in a mined block (miner.Stats.RetriedTxs); subsequent spread selections
// cap their (contract, function) groups.
func (p *Pool) ReportConflicts(calls []contract.Call) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Scores.AddConflicts(calls)
}

// ReportConflictPairs feeds back pairs of calls connected by a
// happens-before edge in a mined block (engine.Stats.ConflictPairs). For
// each pair the pool scores the refined lock-hints both calls share —
// evidence that the shared hint approximates a real abstract lock. Pairs
// sharing no refinement score their coarse (contract, function) hints
// instead. PolicyLockHint reads these scores.
func (p *Pool) ReportConflictPairs(pairs [][2]contract.Call) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Scores.AddConflictPairs(pairs)
}

// decayScores halves every score, dropping zeroed entries.
func decayScores[K comparable](m map[K]int) {
	for k, v := range m {
		if v /= 2; v == 0 {
			delete(m, k)
		} else {
			m[k] = v
		}
	}
}

// capScores evicts lowest-scored entries beyond maxConflictEntries.
func capScores[K comparable](m map[K]int) {
	for len(m) > maxConflictEntries {
		min := 0
		for _, v := range m {
			if min == 0 || v < min {
				min = v
			}
		}
		for k, v := range m {
			if v <= min && len(m) > maxConflictEntries {
				delete(m, k)
			}
		}
	}
}

// conflictEntries reports tracked (contract, function) groups (tests).
func (p *Pool) conflictEntries() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conflictScore)
}

// hintEntries reports tracked lock-hint groups (tests).
func (p *Pool) hintEntries() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.hintScore)
}

// Submit enqueues a call.
func (p *Pool) Submit(call contract.Call) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.queue = append(p.queue, pending{Entry: Entry{Call: call}, seq: p.nextSeq})
	p.nextSeq++
}

// SubmitAll enqueues calls in order, atomically: the whole batch lands
// under one lock acquisition, so concurrent submitters and Select calls
// can never interleave with (or observe a prefix of) the batch.
func (p *Pool) SubmitAll(calls []contract.Call) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range calls {
		p.queue = append(p.queue, pending{Entry: Entry{Call: c}, seq: p.nextSeq})
		p.nextSeq++
	}
}

// Selection is a selected batch plus the bookkeeping needed to return it
// to the pool at exactly its original arrival position. A pipelined miner
// holds several Selections in flight at once; when an aborted block's
// calls come back via RequeueBatch, the arrival sequence — not the abort
// order — decides where they land, so no interleaving of aborts and new
// submissions can reorder client transactions.
type Selection struct {
	Calls []contract.Call
	seqs  []int64
}

// SelectBatch removes and returns up to blockSize transactions according
// to the policy, remembering their arrival sequence for RequeueBatch. It
// returns ErrEmpty when nothing is queued.
func (p *Pool) SelectBatch(policy Policy, blockSize int) (Selection, error) {
	if blockSize <= 0 {
		return Selection{}, errors.New("txpool: non-positive block size")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.queue) == 0 {
		return Selection{}, ErrEmpty
	}
	var taken []pending
	switch policy {
	case PolicySpread:
		taken = p.selectSpread(blockSize)
	case PolicyLockHint:
		taken = p.selectLockHint(blockSize)
	default:
		taken = p.selectFIFO(blockSize)
	}
	sel := Selection{Calls: make([]contract.Call, len(taken)), seqs: make([]int64, len(taken))}
	for i, pe := range taken {
		sel.Calls[i] = pe.Call
		sel.seqs[i] = pe.seq
		if !p.hasOutstanding || pe.seq < p.outstandingLow {
			p.outstandingLow, p.hasOutstanding = pe.seq, true
		}
	}
	return sel, nil
}

// Select removes and returns up to blockSize transactions according to the
// policy. It returns ErrEmpty when nothing is queued.
func (p *Pool) Select(policy Policy, blockSize int) ([]contract.Call, error) {
	sel, err := p.SelectBatch(policy, blockSize)
	if err != nil {
		return nil, err
	}
	return sel.Calls, nil
}

// RequeueBatch returns a selected-but-unmined batch to the pool at its
// original arrival position: entries are merged back by their arrival
// sequence. Batches may be requeued in any order — a pipelined miner
// aborting several in-flight blocks gets the original client order back
// regardless of which abort lands first, and calls submitted after the
// batch was selected stay behind it.
func (p *Pool) RequeueBatch(sel Selection) {
	if len(sel.Calls) == 0 {
		return
	}
	// Order the batch itself by arrival (selection policies may have
	// reordered within the block).
	batch := make([]pending, len(sel.Calls))
	for i := range sel.Calls {
		batch[i] = pending{Entry: Entry{Call: sel.Calls[i]}, seq: sel.seqs[i]}
	}
	sortPending(batch)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.queue = mergeBySeq(batch, p.queue)
}

// sortPending sorts by seq (insertion sort; batches are block-sized and
// nearly sorted already).
func sortPending(ps []pending) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].seq < ps[j-1].seq; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// mergeBySeq merges two seq-sorted runs into one.
func mergeBySeq(a, b []pending) []pending {
	out := make([]pending, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].seq <= b[j].seq {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Requeue returns selected-but-unmined calls to the *front* of the queue
// in their given order: a failed mining attempt (execution error, append
// race) must neither drop nor reorder client transactions. Callers that
// hold a Selection should prefer RequeueBatch, which restores the calls'
// true arrival position; Requeue places them ahead of everything queued
// or ever selected, assigning sequence numbers below both the queue
// minimum and the lowest seq any in-flight batch holds — so the queue's
// seq ordering stays intact and a batch merged back later can neither
// collide with nor split a legacy-requeued run.
func (p *Pool) Requeue(calls []contract.Call) {
	if len(calls) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	base := p.nextSeq
	if len(p.queue) > 0 {
		base = p.queue[0].seq
	}
	if p.hasOutstanding && p.outstandingLow < base {
		base = p.outstandingLow
	}
	pre := make([]pending, 0, len(calls)+len(p.queue))
	for i, c := range calls {
		pre = append(pre, pending{Entry: Entry{Call: c}, seq: base - int64(len(calls)) + int64(i)})
	}
	// These seqs sit below anything in flight: they are the new floor.
	p.outstandingLow, p.hasOutstanding = pre[0].seq, true
	p.queue = append(pre, p.queue...)
}

// Len reports queued transactions.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// The spread policy uses two static conflict hints:
//
//   - senderHint (contract, sender): two calls from one sender to one
//     contract almost certainly touch the same per-sender state
//     (double-votes, repeated withdrawals); at most one per block.
//   - funcHint (contract, function): many calls to one function of one
//     contract may pile onto shared state (bidPlusOne on the highest
//     bid); capped at a fraction of the block.
//
// Both are heuristics — a Turing-complete contract's exact lock set is
// unknowable statically (§1) — and both only defer, never drop.
type senderHint struct {
	contract types.Address
	sender   types.Address
}

type funcHint struct {
	contract types.Address
	function string
}

// lockHint is the lock-hint policy's static approximation of one abstract
// lock. Two shapes share the struct: the coarse form (refined == false)
// is a per-function funcHint, and the refined form names an address the
// call touches — its sender or an address-typed argument — which is what
// a per-key lock (a balance, a voter record) is actually keyed by.
// Refined hints are deliberately role-free: a transfer A→B and a transfer
// B→A touch the same two balances even though sender and argument swap
// roles, and the policy must see that overlap to keep the pair apart.
// The key is all comparable value types (no string rendering): hintsOf
// runs for every window entry of every selection scan.
type lockHint struct {
	contract types.Address
	function string
	addr     types.Address
	refined  bool
}

func coarseHint(c contract.Call) lockHint {
	return lockHint{contract: c.Contract, function: c.Function}
}

// hintsOf derives a call's static lock-hints: refined per-address hints
// first (sender, then address arguments), the coarse (contract, function)
// hint last.
func hintsOf(c contract.Call) []lockHint {
	hints := make([]lockHint, 0, len(c.Args)+2)
	hints = append(hints, lockHint{contract: c.Contract, addr: c.Sender, refined: true})
	for _, a := range c.Args {
		if addr, ok := a.(types.Address); ok {
			hints = append(hints, lockHint{contract: c.Contract, addr: addr, refined: true})
		}
	}
	return append(hints, coarseHint(c))
}

// Select removes and returns up to blockSize transactions... (see
// SelectBatch; this section hosts the per-policy selectors, which run
// under p.mu and mutate p.queue; the window scans themselves live in
// selection.go and are shared with the sharded mempool).

func (p *Pool) selectFIFO(blockSize int) []pending {
	n := blockSize
	if n > len(p.queue) {
		n = len(p.queue)
	}
	out := append([]pending(nil), p.queue[:n]...)
	p.queue = append([]pending(nil), p.queue[n:]...)
	return out
}

func (p *Pool) selectSpread(blockSize int) []pending {
	return p.takeWindow(PolicySpread, blockSize)
}

func (p *Pool) selectLockHint(blockSize int) []pending {
	return p.takeWindow(PolicyLockHint, blockSize)
}

// takeWindow runs the shared window scan over the queue's head
// (window = WindowFactor * blockSize), removes the chosen entries and
// returns them in pick order. The scan caches lock-hints directly on
// the queue entries, so deferred calls keep their hints for the next
// selection.
func (p *Pool) takeWindow(policy Policy, blockSize int) []pending {
	window := blockSize * WindowFactor
	if window > len(p.queue) {
		window = len(p.queue)
	}
	win := make([]*Entry, window)
	for i := range win {
		win[i] = &p.queue[i].Entry
	}
	idx := SelectWindow(policy, blockSize, win, &p.Scores)
	out := make([]pending, 0, len(idx))
	taken := make([]bool, window)
	for _, i := range idx {
		taken[i] = true
		out = append(out, p.queue[i])
	}
	remaining := make([]pending, 0, len(p.queue)-len(out))
	for i, pe := range p.queue {
		if i < window && taken[i] {
			continue
		}
		remaining = append(remaining, pe)
	}
	p.queue = remaining
	return out
}
