package validator

import (
	goruntime "runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"contractstm/internal/chain"
	"contractstm/internal/runtime"
	"contractstm/internal/workload"
)

// TestCommitmentErrorPrecedence: a block with two commitment faults at
// once is refused with the first in the order tx root, receipt root,
// schedule hash, receipt count, profile count — the error, byte for
// byte, that hashing one commitment after another gave — at GOMAXPROCS 1
// and 16, through chain.VerifyCommitments, Precheck and Validate. The
// 300-transaction body has five chunks per tree, so at 16 every task of
// the block's fan may run on a goroutine of its own. Validate hashes the
// commitments beside the replay; a case whose forged call also fails the
// replay checks that the commitment error still wins.
func TestCommitmentErrorPrecedence(t *testing.T) {
	// verify is the error the one-goroutine VerifyCommitments gave;
	// replay, when set, names the error the replay alone gives the block.
	cases := []struct {
		name   string
		forge  func(b *chain.Block)
		verify string
		replay string
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
	}, {
		name:   "tx root and a call the replay refuses",
		forge:  func(b *chain.Block) { b.Calls[7].GasLimit = 1 },
		verify: "chain: header commitment mismatch: tx root 0x984bf756 != 0xc683b4bd",
		replay: "tx7 trace does not match",
	}}
	wl, honest := mineBlock(t, workload.Params{Kind: workload.KindToken, Transactions: 300, ConflictPercent: 15, Seed: 52})
	pre, err := Precheck(honest)
	if err != nil {
		t.Fatalf("honest precheck: %v", err)
	}
	for _, c := range cases {
		b := honest
		b.Calls, b.Receipts = slices.Clone(b.Calls), slices.Clone(b.Receipts)
		b.Schedule.Order, b.Profiles = slices.Clone(b.Schedule.Order), slices.Clone(b.Profiles)
		for i := range b.Profiles {
			b.Profiles[i].Entries = slices.Clone(b.Profiles[i].Entries)
		}
		c.forge(&b)
		if c.replay != "" {
			// The schedule is the honest one, so the honest block's
			// program replays the forged body.
			wl.Reset()
			_, err := ValidatePrechecked(runtime.NewSimRunner(), wl.World, b, pre, Config{Workers: 3})
			if err == nil || !strings.Contains(err.Error(), c.replay) {
				t.Fatalf("%s: the replay alone gives %v, want %q", c.name, err, c.replay)
			}
		}
		for _, procs := range []int{1, 16} {
			var verr, perr, err error
			withinDeadline(t, procs, func() {
				_, verr = chain.VerifyCommitments(b)
				_, perr = Precheck(b)
				wl.Reset()
				_, err = Validate(runtime.NewOSRunner(nil), wl.World, b, Config{Workers: 2})
			})
			if verr == nil || verr.Error() != c.verify {
				t.Errorf("%s, GOMAXPROCS %d: VerifyCommitments = %v, want %s", c.name, procs, verr, c.verify)
			}
			want := ErrRejected.Error() + ": " + c.verify
			if perr == nil || perr.Error() != want {
				t.Errorf("%s, GOMAXPROCS %d: Precheck = %v, want %s", c.name, procs, perr, want)
			}
			if err == nil || err.Error() != want {
				t.Errorf("%s, GOMAXPROCS %d: Validate = %v, want %s", c.name, procs, err, want)
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
