package sched

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"contractstm/internal/stm"
)

// profileHistories is a block's profiles regrouped by lock: each lock's
// uses in use-counter order, which is the lock's history. It is the one
// regrouping of profiles in the tree: BuildSchedule walks the histories
// into H, and CheckProfileRaces checks a published H against them. Locks are numbered in the order the profiles first name them, so
// no walk over them depends on map iteration, and the storage is a few
// flat slabs sized by the number of profile entries, not a slice per lock.
type profileHistories struct {
	profiles []stm.Profile
	// start[s] is where lock s's uses begin in all; the last element is
	// len(all).
	start []int32
	all   []lockUse
	// scratch holds one lock's history in the shape the grouping rule
	// takes (history).
	scratch []stm.HistoryEntry
}

// lockUse is one profile entry filed under its lock. It holds no pointer,
// so the slab of them is not scanned by the garbage collector.
type lockUse struct {
	stm.HistoryEntry
	counter uint64
	// entry numbers the profile entry across all profiles, in order; lock
	// finds it again for error messages.
	entry int32
}

// regroup files every profile entry under its lock and sorts each lock's
// uses by counter. It rejects a profile for a transaction outside 0..n-1.
func regroup(n int, profiles []stm.Profile) (profileHistories, error) {
	total := 0
	for _, p := range profiles {
		if int(p.Tx) >= n {
			return profileHistories{}, fmt.Errorf("%w: profile for %s with %d transactions", ErrMalformed, p.Tx, n)
		}
		total += len(p.Entries)
	}
	// Number the locks and count each one's uses: a counting sort by lock.
	// A block has at most one lock per entry, which sizes everything.
	slot := make(map[stm.LockID]int32, total)
	slots := make([]int32, total)
	start := make([]int32, total+1)
	locks, k := int32(0), 0
	for _, p := range profiles {
		for _, e := range p.Entries {
			s, ok := slot[e.Lock]
			if !ok {
				s = locks
				slot[e.Lock] = s
				locks++
			}
			slots[k] = s
			start[s]++
			k++
		}
	}
	// start[s] becomes the end of lock s's run; filing the entries back to
	// front then moves it down to the run's start, and leaves each run in
	// profile order.
	start = start[:locks+1]
	for s := int32(1); s < locks; s++ {
		start[s] += start[s-1]
	}
	start[locks] = int32(total)
	all := make([]lockUse, total)
	for i := len(profiles) - 1; i >= 0; i-- {
		p := &profiles[i]
		for j := len(p.Entries) - 1; j >= 0; j-- {
			k--
			e := &p.Entries[j]
			s := slots[k]
			start[s]--
			all[start[s]] = lockUse{HistoryEntry: stm.HistoryEntry{Tx: p.Tx, Mode: e.Mode}, counter: e.Counter, entry: int32(k)}
		}
	}
	longest := 0
	for s := range locks {
		if us := all[start[s]:start[s+1]]; len(us) > 1 {
			slices.SortFunc(us, func(a, b lockUse) int { return cmp.Compare(a.counter, b.counter) })
			longest = max(longest, len(us))
		}
	}
	return profileHistories{profiles: profiles, start: start, all: all, scratch: make([]stm.HistoryEntry, 0, longest)}, nil
}

// lock returns the lock u is a use of.
func (h *profileHistories) lock(u lockUse) stm.LockID {
	k := int(u.entry)
	for _, p := range h.profiles {
		if k < len(p.Entries) {
			return p.Entries[k].Lock
		}
		k -= len(p.Entries)
	}
	panic("sched: lock use outside the profiles")
}

// locks returns the number of distinct locks.
func (h *profileHistories) locks() int { return len(h.start) - 1 }

// uses returns lock s's uses in counter order.
func (h *profileHistories) uses(s int) []lockUse { return h.all[h.start[s]:h.start[s+1]] }

// history returns uses as a history for the grouping rule. The slice is
// scratch: it is overwritten by the next call. A lock with one use draws
// no edge, so callers skip those, and scratch is sized for the longest
// history of a contended lock.
func (h *profileHistories) history(uses []lockUse) []stm.HistoryEntry {
	h.scratch = h.scratch[:0]
	for _, u := range uses {
		h.scratch = append(h.scratch, u.HistoryEntry)
	}
	return h.scratch
}

// raceFallbacks counts CheckProfileRaces calls that left the fast path for
// the pairwise check. No honest block, from any engine, should add to it.
var raceFallbacks atomic.Uint64

// CheckProfileRaces verifies that H leaves no two conflicting uses of one
// lock in the published profiles unordered: the validator's "data race
// (an unsynchronized concurrent access)" check (§5), made on the block's
// bytes before anything executes. The validator's replay then checks that
// every transaction's trace equals its profile, which carries the verdict
// over to the traces.
//
// The fast path walks each lock's history with the grouping rule (eachEdge)
// and looks every edge the rule would draw up in H. If all are there, H
// contains the rule's H, and the rule's H orders every conflicting pair:
// each member of a group has an edge from every member of the group before
// it, so any two uses in different groups are joined by a path, and two
// uses in one group are compatible. The argument holds for the uses walked
// in any order, so counters only choose which edges are looked up. Every
// engine's H comes from this rule over these histories, so an honest block
// never leaves the fast path and no transitive closure is built.
//
// A block whose H drops an edge the others imply, orients one against the
// counters, or repeats a counter can fail the fast path and still be race
// free. For those, the exact check runs: every conflicting pair of uses of
// one lock must be ordered in H's transitive closure. The accept set is
// that of the exact check alone.
func CheckProfileRaces(g *Graph, profiles []stm.Profile) error {
	h, err := regroup(g.n, profiles)
	if err != nil {
		return err
	}
	covered := true
	for s := range h.locks() {
		if us := h.uses(s); len(us) > 1 && !eachEdge(h.history(us), g.orders) {
			covered = false
			break
		}
	}
	if covered {
		return nil
	}
	raceFallbacks.Add(1)
	reach, err := Reachability(g)
	if err != nil {
		return err
	}
	for s := range h.locks() {
		us := h.uses(s)
		for i, a := range us {
			for _, b := range us[i+1:] {
				if a.Tx == b.Tx || stm.Compatible(a.Mode, b.Mode) {
					continue
				}
				if !Ordered(reach, int(a.Tx), int(b.Tx)) {
					return fmt.Errorf("%w: %s and %s on lock %s (%s vs %s)",
						ErrRace, a.Tx, b.Tx, h.lock(a), a.Mode, b.Mode)
				}
			}
		}
	}
	return nil
}
