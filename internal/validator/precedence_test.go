package validator

import (
	goruntime "runtime"
	"slices"
	"testing"
	"time"

	"contractstm/internal/chain"
	"contractstm/internal/workload"
)

// TestCommitmentErrorPrecedence: a block with two commitment faults at
// once is refused with the first in the order tx root, receipt root,
// schedule hash, receipt count, profile count — the error, byte for
// byte, that hashing one commitment after another gave — at GOMAXPROCS 1
// and 16, through chain.VerifyCommitments and through Precheck. The
// 300-transaction body has five chunks per tree, so at 16 every task of
// the block's fan may run on a goroutine of its own.
func TestCommitmentErrorPrecedence(t *testing.T) {
	// verify is the error the one-goroutine VerifyCommitments gave.
	cases := []struct {
		name   string
		forge  func(b *chain.Block)
		verify string
	}{{
		name: "tx root and schedule hash",
		forge: func(b *chain.Block) {
			b.Calls[7].GasLimit++
			b.Profiles[3].Entries[0].Counter++
		},
		verify: "chain: header commitment mismatch: tx root 0x6235f9db != 0xc683b4bd",
	}, {
		name: "receipt root and a missing profile",
		forge: func(b *chain.Block) {
			b.Receipts[200].GasUsed++
			b.Profiles = b.Profiles[:len(b.Profiles)-1]
			b.Header.ScheduleHash = chain.ScheduleHashOf(b.Schedule, b.Profiles)
		},
		verify: "chain: header commitment mismatch: receipt root 0x956a21f9 != 0xd8e4b758",
	}, {
		name: "schedule hash and a receipt count",
		forge: func(b *chain.Block) {
			b.Receipts = b.Receipts[:len(b.Receipts)-1]
			b.Header.ReceiptRoot = chain.ReceiptRootOf(b.Receipts)
			b.Schedule.Order[0], b.Schedule.Order[1] = b.Schedule.Order[1], b.Schedule.Order[0]
		},
		verify: "chain: header commitment mismatch: schedule hash 0x9a08b348 != 0x52d2a150",
	}}
	_, honest := mineBlock(t, workload.Params{Kind: workload.KindToken, Transactions: 300, ConflictPercent: 15, Seed: 52})
	for _, c := range cases {
		b := honest
		b.Calls, b.Receipts = slices.Clone(b.Calls), slices.Clone(b.Receipts)
		b.Schedule.Order, b.Profiles = slices.Clone(b.Schedule.Order), slices.Clone(b.Profiles)
		for i := range b.Profiles {
			b.Profiles[i].Entries = slices.Clone(b.Profiles[i].Entries)
		}
		c.forge(&b)
		for _, procs := range []int{1, 16} {
			var verr, perr error
			withinDeadline(t, procs, func() {
				_, verr = chain.VerifyCommitments(b)
				_, perr = Precheck(b)
			})
			if verr == nil || verr.Error() != c.verify {
				t.Errorf("%s, GOMAXPROCS %d: VerifyCommitments = %v, want %s", c.name, procs, verr, c.verify)
			}
			if want := ErrRejected.Error() + ": " + c.verify; perr == nil || perr.Error() != want {
				t.Errorf("%s, GOMAXPROCS %d: Precheck = %v, want %s", c.name, procs, perr, want)
			}
		}
	}
}

// withinDeadline runs f at GOMAXPROCS procs and fails the test if f has
// not returned within a minute: a fan that loses a task leaves its
// caller waiting for ever, and the deadline turns that hang into a
// failure.
func withinDeadline(t *testing.T, procs int, f func()) {
	t.Helper()
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(procs))
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatalf("GOMAXPROCS %d: not done within a minute: a fan lost a task", procs)
	}
}
