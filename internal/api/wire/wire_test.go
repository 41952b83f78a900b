package wire

import (
	"errors"
	"fmt"
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/gas"
	"contractstm/internal/sched"
	"contractstm/internal/types"
)

func TestArgRoundTrip(t *testing.T) {
	vals := []any{uint64(7), int(3), true, "hello",
		types.AddressFromUint64(1), types.HashString("h"), types.Amount(5)}
	for _, v := range vals {
		a, err := EncodeArg(v)
		if err != nil {
			t.Fatalf("EncodeArg(%v): %v", v, err)
		}
		back, err := DecodeArg(a)
		if err != nil {
			t.Fatalf("DecodeArg(%+v): %v", a, err)
		}
		if fmt.Sprintf("%T:%v", back, back) != fmt.Sprintf("%T:%v", v, v) {
			t.Fatalf("round trip %v -> %v", v, back)
		}
	}
	if _, err := EncodeArg(3.14); err == nil {
		t.Fatal("float arg encoded")
	}
	if _, err := DecodeArg(Arg{Type: "float", Value: "1"}); err == nil {
		t.Fatal("unknown arg type decoded")
	}
}

func testCall(fn string, amount uint64) contract.Call {
	return contract.Call{
		Sender:   types.AddressFromUint64(1),
		Contract: types.AddressFromUint64(2),
		Function: fn,
		Args:     []any{types.AddressFromUint64(3), amount},
		GasLimit: gas.Gas(100_000),
	}
}

// TestTxIDOf: content-derived IDs are deterministic, distinct for
// distinct calls, and survive the wire round trip — any node (and the
// submitting client itself) derives the same ID.
func TestTxIDOf(t *testing.T) {
	a, b := testCall("transfer", 5), testCall("transfer", 6)
	if TxIDOf(a) != TxIDOf(a) {
		t.Fatal("same call, different IDs")
	}
	if TxIDOf(a) == TxIDOf(b) {
		t.Fatal("different calls share an ID")
	}
	sub, err := SubmitOf(a)
	if err != nil {
		t.Fatalf("SubmitOf: %v", err)
	}
	back, err := sub.Call()
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if TxIDOf(back) != TxIDOf(a) {
		t.Fatal("wire round trip changed the content-derived ID")
	}
}

// TestSubmitCallErrorCodes: every decode failure carries its stable
// machine code.
func TestSubmitCallErrorCodes(t *testing.T) {
	good, _ := SubmitOf(testCall("f", 1))
	cases := []struct {
		name   string
		mutate func(*TxSubmit)
		code   string
	}{
		{"bad sender", func(s *TxSubmit) { s.Sender = "nope" }, CodeBadAddress},
		{"bad contract", func(s *TxSubmit) { s.Contract = "zz" }, CodeBadAddress},
		{"missing function", func(s *TxSubmit) { s.Function = "  " }, CodeMissingFunction},
		{"bad arg type", func(s *TxSubmit) { s.Args = []Arg{{Type: "float", Value: "1"}} }, CodeBadArg},
		{"bad arg value", func(s *TxSubmit) { s.Args = []Arg{{Type: "uint64", Value: "abc"}} }, CodeBadArg},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sub := good
			tc.mutate(&sub)
			_, err := sub.Call()
			var we *Error
			if !errors.As(err, &we) || we.Code != tc.code {
				t.Fatalf("err = %v, want code %s", err, tc.code)
			}
		})
	}
}

// TestReceiptsOf: receipts map block execution results onto the wire —
// committed vs aborted status, gas, block coordinates, and the schedule
// position read off the published serial order S.
func TestReceiptsOf(t *testing.T) {
	calls := []contract.Call{testCall("a", 1), testCall("b", 2)}
	receipts := []contract.Receipt{
		{Tx: 0, GasUsed: 42},
		{Tx: 1, Reverted: true, GasUsed: 7, Reason: "insufficient funds"},
	}
	s := sched.Schedule{Order: []types.TxID{1, 0}}
	b, ids := chain.Seal(chain.GenesisHeader(types.HashString("root")), calls, receipts, s, nil, types.HashString("post"))

	out := ReceiptsOf(b, ids)
	if len(out) != 2 {
		t.Fatalf("receipts = %d", len(out))
	}
	if out[0].Status != StatusCommitted || out[0].GasUsed != 42 || out[0].ScheduleIndex != 1 || out[0].TxIndex != 0 {
		t.Fatalf("receipt 0 = %+v", out[0])
	}
	if out[1].Status != StatusAborted || out[1].AbortReason != "insufficient funds" || out[1].ScheduleIndex != 0 {
		t.Fatalf("receipt 1 = %+v", out[1])
	}
	for i, r := range out {
		if r.ID != TxIDOf(calls[i]).String() {
			t.Fatalf("receipt %d ID mismatch", i)
		}
		if r.BlockHeight != 1 || r.BlockHash != b.Header.Hash().String() {
			t.Fatalf("receipt %d block coords = %+v", i, r)
		}
	}
}

// TestBlockInfoOf keeps the legacy head-summary JSON keys stable.
func TestBlockInfoOf(t *testing.T) {
	calls := []contract.Call{testCall("a", 1)}
	receipts := []contract.Receipt{{Tx: 0}}
	s := sched.Schedule{Order: []types.TxID{0}, Edges: []sched.Edge{{From: 0, To: 0}}}
	b, _ := chain.Seal(chain.GenesisHeader(types.HashString("root")), calls, receipts, s, nil, types.HashString("post"))
	info := BlockInfoOf(b)
	if info.Number != 1 || info.TxCount != 1 || info.Edges != 1 {
		t.Fatalf("info = %+v", info)
	}
	if info.Hash != b.Header.Hash().String() || info.ParentHash != b.Header.ParentHash.String() {
		t.Fatalf("info hashes = %+v", info)
	}
}
