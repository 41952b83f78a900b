package mempool

import (
	"reflect"
	"testing"

	"contractstm/internal/contract"
	"contractstm/internal/txpool"
	"contractstm/internal/types"
)

// scoreCall builds a call to target with address arguments args.
func scoreCall(sender, target uint64, fn string, args ...uint64) contract.Call {
	c := contract.Call{
		Sender:   types.AddressFromUint64(sender),
		Contract: types.AddressFromUint64(target),
		Function: fn,
		GasLimit: 100_000,
	}
	for _, a := range args {
		c.Args = append(c.Args, types.AddressFromUint64(a))
	}
	return c
}

// TestConflictScoreStaysBounded feeds sustained conflict reports with
// ever-new (contract, function) pairs and checks the score map neither
// grows past its cap nor keeps stale entries alive forever.
func TestConflictScoreStaysBounded(t *testing.T) {
	pool := New(Config{})
	for round := 0; round < 200; round++ {
		batch := make([]contract.Call, 50)
		for i := range batch {
			batch[i] = scoreCall(1, uint64(round*1000+i), "hot")
		}
		pool.ReportConflicts(batch)
		if n := len(pool.scores.conflictScore); n > maxConflictEntries {
			t.Fatalf("round %d: %d conflict entries, cap %d", round, n, maxConflictEntries)
		}
	}
	if n := len(pool.scores.conflictScore); n == 0 || n > maxConflictEntries {
		t.Fatalf("final conflict entries = %d, want (0, %d]", n, maxConflictEntries)
	}
	// Decay drains a score that stops being reported: a single entry
	// reported once disappears after enough unrelated traffic.
	fresh := New(Config{})
	fresh.ReportConflicts([]contract.Call{scoreCall(7, 7, "once")})
	for i := 0; i < conflictDecayEvery; i++ {
		fresh.ReportConflicts([]contract.Call{scoreCall(8, 8, "noise")})
	}
	if _, alive := fresh.scores.conflictScore[funcHint{contract: types.AddressFromUint64(7), function: "once"}]; alive {
		t.Fatal("stale conflict score survived decay")
	}
}

// TestLockHintScoreStaysBounded mirrors the conflict-score bound: a pool
// fed an unbounded stream of distinct conflict pairs holds a capped map.
func TestLockHintScoreStaysBounded(t *testing.T) {
	pool := New(Config{})
	for i := uint64(0); i < 4*maxConflictEntries; i += 2 {
		pool.ReportConflictPairs([][2]contract.Call{
			{scoreCall(i, 1, "transfer", i), scoreCall(i, 1, "transfer", i+1)},
		})
	}
	if got := len(pool.scores.hintScore); got > maxConflictEntries {
		t.Fatalf("hint map grew to %d entries, cap is %d", got, maxConflictEntries)
	}
}

// TestScoreCapIsDeterministic feeds pools the same conflict pairs, more
// distinct hints than the score cap keeps, and requires every pool to
// keep the same evidence and so to select the same lock-hint block from
// the same queue: which entries survive the cap must not depend on map
// iteration order.
func TestScoreCapIsDeterministic(t *testing.T) {
	// 3,000 pairs over 1,300 senders: after the decay pass that the
	// report itself triggers, 1,100 sender hints score 1 and 200 score
	// 2, so the 1,300 hints overflow the cap.
	pairs := make([][2]contract.Call, 0, 3000)
	for s := uint64(0); s < 1300; s++ {
		reps := uint64(2)
		if s >= 1100 {
			reps = 4
		}
		for r := uint64(0); r < reps; r++ {
			n := 2 * (4*s + r)
			pairs = append(pairs, [2]contract.Call{testCall(s, n), testCall(s, n+1)})
		}
	}
	// Two calls each from senders on either side of the score split,
	// alternating: hot, hot, cold, cold, hot, hot, …
	var queue []contract.Call
	for i := uint64(0); i < 256; i++ {
		s := i / 4
		if i/2%2 == 0 {
			s += 1100
		}
		queue = append(queue, testCall(s, 100_000+i))
	}
	var first []contract.Call
	for run := 0; run < 8; run++ {
		p := New(Config{})
		p.ReportConflictPairs(pairs)
		for _, c := range queue {
			p.SubmitTrusted(TxOf(c))
		}
		sel, err := p.SelectBatch(txpool.PolicyLockHint, 64)
		if err != nil {
			t.Fatalf("select: %v", err)
		}
		if run == 0 {
			if reflect.DeepEqual(sel.Calls, queue[:64]) {
				t.Fatal("no evidence survived the cap: the block is the FIFO prefix")
			}
			first = sel.Calls
		} else if !reflect.DeepEqual(sel.Calls, first) {
			t.Fatalf("pool %d selected a different block from the same queue and feedback", run)
		}
	}
}
