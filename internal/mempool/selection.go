// Block selection: the per-policy window scans and the conflict
// feedback they read. SelectBatch merges the shard queues into one
// window and runs the policy's scan over it.
//
// The spread and lock-hint policies are the paper's §7.3 suggestion:
// "Miners could also choose transactions so as to reduce the
// likelihood of conflict, say by including only those contracts that
// operate on disjoint data sets." A miner cannot know statically which
// abstract locks a Turing-complete contract will take (§1), but cheap
// syntactic hints — the target contract, the sender, address-typed
// arguments — spread obviously-colliding calls across blocks. Both
// policies only defer a call, never drop it.

package mempool

import (
	"maps"
	"slices"

	"contractstm/internal/contract"
	"contractstm/internal/txpool"
	"contractstm/internal/types"
)

// windowFactor bounds how far past the block size the spread and
// lock-hint policies scan for non-colliding transactions: a selection
// window holds windowFactor * blockSize queued entries.
const windowFactor = 4

// conflictDecayEvery is how many reported conflicts trigger a decay pass
// (every score halves; zeroed entries are dropped).
const conflictDecayEvery = 256

// maxConflictEntries bounds the conflict-score and hint-score maps; when
// exceeded, the lowest-scored entries are evicted first.
const maxConflictEntries = 1024

// The spread policy uses two static conflict hints:
//
//   - senderHint (contract, sender): two calls from one sender to one
//     contract almost certainly touch the same per-sender state
//     (double-votes, repeated withdrawals); at most one per block.
//   - funcHint (contract, function): many calls to one function of one
//     contract may pile onto shared state (bidPlusOne on the highest
//     bid); capped at a fraction of the block.
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

// scores holds the engine's conflict feedback: per-(contract,function)
// retry counts read by the spread policy and per-lock-hint evidence
// read by the lock-hint policy. Pool.scoreMu guards it.
type scores struct {
	// conflictScore counts observed speculative retries per (contract,
	// function); the spread policy caps only functions with a positive
	// score, so legitimately disjoint traffic is never throttled.
	// Scores decay geometrically every conflictDecayEvery reports and
	// the map is capped at maxConflictEntries.
	conflictScore map[funcHint]int
	// reportedSinceDecay counts conflict reports since the last decay pass.
	reportedSinceDecay int
	// hintScore scores static lock-hints by conflict evidence: a hint
	// both calls of a reported conflict pair share gets a point. Decays
	// and is capped exactly like conflictScore (separate counters).
	hintScore       map[lockHint]int
	pairsSinceDecay int
}

func newScores() scores {
	return scores{
		conflictScore: make(map[funcHint]int),
		hintScore:     make(map[lockHint]int),
	}
}

// addConflicts records transactions that needed speculative retries in
// a mined block.
func (s *scores) addConflicts(calls []contract.Call) {
	for _, c := range calls {
		s.conflictScore[funcHint{contract: c.Contract, function: c.Function}]++
	}
	s.reportedSinceDecay += len(calls)
	if s.reportedSinceDecay >= conflictDecayEvery {
		s.reportedSinceDecay = 0
		decayScores(s.conflictScore)
	}
	capScores(s.conflictScore)
}

// addConflictPairs records pairs of calls connected by a happens-before
// edge in a mined block, scoring the refined lock-hints both calls
// share (or their coarse hints when no refinement is shared).
func (s *scores) addConflictPairs(pairs [][2]contract.Call) {
	for _, pr := range pairs {
		a, b := hintsOf(pr[0]), hintsOf(pr[1])
		shared := false
		for _, ha := range a {
			if !ha.refined {
				continue // coarse hint handled below
			}
			for _, hb := range b {
				if ha == hb {
					s.hintScore[ha]++
					shared = true
				}
			}
		}
		if !shared {
			s.hintScore[coarseHint(pr[0])]++
			s.hintScore[coarseHint(pr[1])]++
		}
	}
	s.pairsSinceDecay += len(pairs)
	if s.pairsSinceDecay >= conflictDecayEvery {
		s.pairsSinceDecay = 0
		decayScores(s.hintScore)
	}
	capScores(s.hintScore)
}

// decayScores halves every score, dropping zeroed entries.
func decayScores[K comparable](m map[K]int) {
	// Each entry is updated or deleted from its own value alone.
	//chainvet:allow(detmap) order-insensitive sweep: halves each score and deletes it at zero by a pure per-element rule; iteration order cannot reach a selection, schedule, commitment or encoding
	for k, v := range m {
		if v /= 2; v == 0 {
			delete(m, k)
		} else {
			m[k] = v
		}
	}
}

// capScores drops whole score levels, lowest first, until m holds at
// most maxConflictEntries: entries with equal scores are kept or
// dropped together, so which ones survive never depends on map order.
func capScores[K comparable](m map[K]int) {
	if len(m) <= maxConflictEntries {
		return
	}
	levels := make([]int, 0, len(m))
	for _, v := range m {
		levels = append(levels, v)
	}
	slices.Sort(levels)
	cut := levels[len(levels)-maxConflictEntries-1]
	maps.DeleteFunc(m, func(_ K, v int) bool { return v <= cut })
}

// selectWindow picks up to blockSize entries from a selection window
// according to the policy, returning the chosen indices in pick order:
// policy-approved picks first (in scan order), then the FIFO backfill
// that tops up an under-full block from the deferred remainder. The
// lock-hint scan caches derived hints on the entries, so the caller
// holds the locks of the shards they sit in.
func selectWindow(policy txpool.Policy, blockSize int, win []*entry, sc *scores) []int {
	switch policy {
	case txpool.PolicySpread:
		return selectWindowSpread(blockSize, win, sc)
	case txpool.PolicyLockHint:
		return selectWindowLockHint(blockSize, win, sc)
	default:
		n := min(blockSize, len(win))
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
}

func selectWindowSpread(blockSize int, win []*entry, sc *scores) []int {
	funcCap := max(blockSize/8, 1)
	seenSender := make(map[senderHint]bool, blockSize)
	funcCount := make(map[funcHint]int, blockSize)
	idx := make([]int, 0, blockSize)
	taken := make([]bool, len(win))
	for i := 0; i < len(win) && len(idx) < blockSize; i++ {
		c := win[i].call
		sh := senderHint{contract: c.Contract, sender: c.Sender}
		fh := funcHint{contract: c.Contract, function: c.Function}
		if seenSender[sh] {
			continue
		}
		if sc.conflictScore[fh] > 0 && funcCount[fh] >= funcCap {
			continue
		}
		seenSender[sh] = true
		funcCount[fh]++
		taken[i] = true
		idx = append(idx, i)
	}
	return backfillWindow(blockSize, taken, idx)
}

// selectWindowLockHint scans the window taking calls in window order,
// deferring a call only when one of its hints has positive conflict
// evidence AND is already claimed by a call chosen for this block.
// Coarse hints use a generous per-block cap instead of exclusivity (a
// hot function is not a single lock); refined hints are exclusive (one
// hot sender / hot key per block).
func selectWindowLockHint(blockSize int, win []*entry, sc *scores) []int {
	coarseCap := max(blockSize/8, 1)
	claimed := make(map[lockHint]bool, blockSize)
	coarseCount := make(map[lockHint]int, blockSize)
	idx := make([]int, 0, blockSize)
	taken := make([]bool, len(win))
scan:
	for i := 0; i < len(win) && len(idx) < blockSize; i++ {
		if win[i].hints == nil {
			win[i].hints = hintsOf(win[i].call)
		}
		hints := win[i].hints
		for _, h := range hints {
			if sc.hintScore[h] <= 0 {
				continue
			}
			if !h.refined {
				if coarseCount[h] >= coarseCap {
					continue scan
				}
			} else if claimed[h] {
				continue scan
			}
		}
		for _, h := range hints {
			if !h.refined {
				coarseCount[h]++
			} else {
				claimed[h] = true
			}
		}
		taken[i] = true
		idx = append(idx, i)
	}
	return backfillWindow(blockSize, taken, idx)
}

// backfillWindow tops up an under-full block FIFO-style from the
// window's deferred entries: blocks never run empty while work is
// queued.
func backfillWindow(blockSize int, taken []bool, idx []int) []int {
	for i := 0; i < len(taken) && len(idx) < blockSize; i++ {
		if taken[i] {
			continue
		}
		taken[i] = true
		idx = append(idx, i)
	}
	return idx
}
