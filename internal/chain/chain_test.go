package chain

import (
	"errors"
	"testing"

	"contractstm/internal/contract"
	"contractstm/internal/sched"
	"contractstm/internal/stm"
	"contractstm/internal/types"
)

func sampleCalls(n int) []contract.Call {
	calls := make([]contract.Call, n)
	for i := range calls {
		calls[i] = contract.Call{
			Sender:   types.AddressFromUint64(uint64(i + 1)),
			Contract: types.AddressFromUint64(1000),
			Function: "f",
			Args:     []any{uint64(i)},
			GasLimit: 10_000,
		}
	}
	return calls
}

func sampleReceipts(n int) []contract.Receipt {
	rs := make([]contract.Receipt, n)
	for i := range rs {
		rs[i] = contract.Receipt{Tx: types.TxID(i), GasUsed: 100}
	}
	return rs
}

func sampleProfiles(n int) []stm.Profile {
	ps := make([]stm.Profile, n)
	for i := range ps {
		ps[i] = stm.Profile{Tx: types.TxID(i), Entries: []stm.ProfileEntry{
			{Lock: stm.LockID{Scope: "m", Key: "k"}, Mode: stm.ModeIncrement, Counter: uint64(i + 1)},
		}}
	}
	return ps
}

func sampleSchedule(n int) sched.Schedule {
	order := make([]types.TxID, n)
	for i := range order {
		order[i] = types.TxID(i)
	}
	return sched.Schedule{Order: order}
}

func sealSample(n int, stateRoot types.Hash) Block {
	b, _ := Seal(GenesisHeader(types.HashString("genesis")), sampleCalls(n), sampleReceipts(n),
		sampleSchedule(n), sampleProfiles(n), stateRoot)
	return b
}

func TestSealProducesConsistentCommitments(t *testing.T) {
	b := sealSample(5, types.HashString("state"))
	if _, err := VerifyCommitments(b); err != nil {
		t.Fatalf("VerifyCommitments on sealed block: %v", err)
	}
	if b.Header.Number != 1 {
		t.Fatalf("number = %d, want 1", b.Header.Number)
	}
}

func TestHeaderHashSensitivity(t *testing.T) {
	base := sealSample(3, types.HashString("state")).Header
	mutants := []func(h Header) Header{
		func(h Header) Header { h.Number++; return h },
		func(h Header) Header { h.ParentHash = types.HashString("x"); return h },
		func(h Header) Header { h.TxRoot = types.HashString("x"); return h },
		func(h Header) Header { h.ReceiptRoot = types.HashString("x"); return h },
		func(h Header) Header { h.StateRoot = types.HashString("x"); return h },
		func(h Header) Header { h.ScheduleHash = types.HashString("x"); return h },
	}
	for i, mut := range mutants {
		if mut(base).Hash() == base.Hash() {
			t.Fatalf("mutant %d did not change the header hash", i)
		}
	}
}

func TestVerifyCommitmentsDetectsTampering(t *testing.T) {
	t.Run("call tampered", func(t *testing.T) {
		b := sealSample(4, types.HashString("s"))
		b.Calls[2].Args = []any{uint64(999)}
		if _, err := VerifyCommitments(b); !errors.Is(err, ErrBadCommitment) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("receipt tampered", func(t *testing.T) {
		b := sealSample(4, types.HashString("s"))
		b.Receipts[0].Reverted = true
		if _, err := VerifyCommitments(b); !errors.Is(err, ErrBadCommitment) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("schedule order tampered", func(t *testing.T) {
		b := sealSample(4, types.HashString("s"))
		b.Schedule.Order[0], b.Schedule.Order[1] = b.Schedule.Order[1], b.Schedule.Order[0]
		if _, err := VerifyCommitments(b); !errors.Is(err, ErrBadCommitment) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("profile counter tampered", func(t *testing.T) {
		b := sealSample(4, types.HashString("s"))
		b.Profiles[1].Entries[0].Counter = 77
		if _, err := VerifyCommitments(b); !errors.Is(err, ErrBadCommitment) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("profile mode tampered", func(t *testing.T) {
		b := sealSample(4, types.HashString("s"))
		b.Profiles[1].Entries[0].Mode = stm.ModeExclusive
		if _, err := VerifyCommitments(b); !errors.Is(err, ErrBadCommitment) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("receipt count mismatch", func(t *testing.T) {
		b := sealSample(4, types.HashString("s"))
		b.Receipts = b.Receipts[:3]
		if _, err := VerifyCommitments(b); !errors.Is(err, ErrBadCommitment) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestChainAppendAndLinkage(t *testing.T) {
	genesisRoot := types.HashString("genesis")
	c := New(genesisRoot)
	if c.Length() != 1 {
		t.Fatalf("new chain length = %d", c.Length())
	}
	b1, _ := Seal(c.Head().Header, sampleCalls(2), sampleReceipts(2), sampleSchedule(2), sampleProfiles(2), types.HashString("s1"))
	if err := c.Append(b1); err != nil {
		t.Fatalf("append b1: %v", err)
	}
	b2, _ := Seal(c.Head().Header, sampleCalls(3), sampleReceipts(3), sampleSchedule(3), sampleProfiles(3), types.HashString("s2"))
	if err := c.Append(b2); err != nil {
		t.Fatalf("append b2: %v", err)
	}
	if c.Length() != 3 {
		t.Fatalf("length = %d, want 3", c.Length())
	}
	got, ok := c.BlockAt(1)
	if !ok || got.Header.Hash() != b1.Header.Hash() {
		t.Fatal("BlockAt(1) mismatch")
	}
	if _, ok := c.BlockAt(9); ok {
		t.Fatal("BlockAt(9) returned a block")
	}
}

func TestChainRejectsBadParent(t *testing.T) {
	c := New(types.HashString("g"))
	wrongParent := GenesisHeader(types.HashString("other"))
	b, _ := Seal(wrongParent, sampleCalls(1), sampleReceipts(1), sampleSchedule(1), sampleProfiles(1), types.HashString("s"))
	if err := c.Append(b); !errors.Is(err, ErrBadParent) {
		t.Fatalf("err = %v, want ErrBadParent", err)
	}
}

func TestChainRejectsBadNumber(t *testing.T) {
	c := New(types.HashString("g"))
	b, _ := Seal(c.Head().Header, sampleCalls(1), sampleReceipts(1), sampleSchedule(1), sampleProfiles(1), types.HashString("s"))
	b.Header.Number = 5
	if err := c.Append(b); !errors.Is(err, ErrBadNumber) {
		t.Fatalf("err = %v, want ErrBadNumber", err)
	}
}

func TestScheduleHashCoversEdges(t *testing.T) {
	s1 := sampleSchedule(3)
	s2 := sampleSchedule(3)
	s2.Edges = []sched.Edge{{From: 0, To: 1}}
	if ScheduleHashOf(s1, nil) == ScheduleHashOf(s2, nil) {
		t.Fatal("edges not covered by schedule hash")
	}
}

func TestScheduleHashCoversLockIdentity(t *testing.T) {
	p1 := []stm.Profile{{Tx: 0, Entries: []stm.ProfileEntry{{Lock: stm.LockID{Scope: "a", Key: "b"}, Mode: stm.ModeShared, Counter: 1}}}}
	p2 := []stm.Profile{{Tx: 0, Entries: []stm.ProfileEntry{{Lock: stm.LockID{Scope: "ab", Key: ""}, Mode: stm.ModeShared, Counter: 1}}}}
	s := sampleSchedule(1)
	if ScheduleHashOf(s, p1) == ScheduleHashOf(s, p2) {
		t.Fatal("lock scope/key boundary not covered by schedule hash")
	}
}

func TestEmptyBlock(t *testing.T) {
	b, _ := Seal(GenesisHeader(types.ZeroHash), nil, nil, sched.Schedule{}, nil, types.HashString("s"))
	if _, err := VerifyCommitments(b); err != nil {
		t.Fatalf("empty block invalid: %v", err)
	}
}
