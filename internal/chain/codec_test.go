package chain

import (
	"bytes"
	"errors"
	"testing"

	"contractstm/internal/types"
)

func TestBlockRoundTrip(t *testing.T) {
	orig := sealSample(6, types.HashString("state"))
	data, err := AppendBlockWire(nil, orig)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := UnmarshalBlock(data)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Header.Hash() != orig.Header.Hash() {
		t.Fatal("header hash changed across round trip")
	}
	if len(got.Calls) != len(orig.Calls) || len(got.Profiles) != len(orig.Profiles) {
		t.Fatal("body sizes changed")
	}
	// Arguments (any-typed) must survive with their concrete types.
	if v, ok := got.Calls[2].Args[0].(uint64); !ok || v != 2 {
		t.Fatalf("arg round trip: %T %v", got.Calls[2].Args[0], got.Calls[2].Args[0])
	}
}

func TestBlockRoundTripAllArgTypes(t *testing.T) {
	b := sealSample(1, types.HashString("s"))
	b.Calls[0].Args = []any{
		uint64(7), int(3), true, "text",
		types.AddressFromUint64(9), types.HashString("h"), types.Amount(12),
	}
	// Re-seal: args changed the tx root.
	b, _ = Seal(GenesisHeader(types.HashString("genesis")), b.Calls, b.Receipts, b.Schedule, b.Profiles, b.Header.StateRoot)
	data, err := AppendBlockWire(nil, b)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := UnmarshalBlock(data)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	args := got.Calls[0].Args
	if args[0].(uint64) != 7 || args[1].(int) != 3 || args[2].(bool) != true ||
		args[3].(string) != "text" || args[4].(types.Address) != types.AddressFromUint64(9) ||
		args[5].(types.Hash) != types.HashString("h") || args[6].(types.Amount) != 12 {
		t.Fatalf("args = %#v", args)
	}
}

func TestDecodeBlockRejectsTamperedBody(t *testing.T) {
	b := sealSample(3, types.HashString("s"))
	b.Receipts[0].GasUsed++ // body no longer matches header
	data, err := AppendBlockWire(nil, b)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if _, err := UnmarshalBlock(data); !errors.Is(err, ErrBadCommitment) {
		t.Fatalf("UnmarshalBlock(tampered) = %v, want ErrBadCommitment", err)
	}
	// The parse-only pair leaves that verdict to validator.Precheck.
	if got, err := ParseBlock(data); err != nil || got.Header != b.Header {
		t.Fatalf("ParseBlock(tampered) = %v, want the block as encoded", err)
	}
	if got, err := ReadBlock(bytes.NewReader(data)); err != nil || got.Header != b.Header {
		t.Fatalf("ReadBlock(tampered) = %v, want the block as encoded", err)
	}
}

func TestDecodeBlockRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalBlock([]byte("not a block")); err == nil {
		t.Fatal("garbage decoded")
	}
	if _, err := UnmarshalBlock(nil); err == nil {
		t.Fatal("empty input decoded")
	}
}
