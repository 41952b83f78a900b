package chain

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"strings"
	"testing"

	"contractstm/internal/codec"
	"contractstm/internal/types"
)

// gobEraBlock fabricates the envelope the pre-flat release wrote to WAL
// frames and sent to peers: a gob stream of {Version, Block}.
func gobEraBlock(t testing.TB, version uint32) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(struct {
		Version uint32
		Block   Block
	}{version, Block{Header: GenesisHeader(types.HashString("s"))}})
	if err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	return buf.Bytes()
}

// TestGobEraBlockRefused pins the single-format rule: whatever does not
// start with the flat magic byte is codec.ErrFormat on both decode paths,
// and what AppendBlockWire writes does start with it.
func TestGobEraBlockRefused(t *testing.T) {
	data, err := AppendBlockWire(nil, sealSample(2, types.HashString("s")))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if data[0] != codec.Magic {
		t.Fatalf("AppendBlockWire emitted first byte 0x%02x, want flat magic", data[0])
	}
	for _, legacy := range [][]byte{gobEraBlock(t, 1), gobEraBlock(t, 2), []byte("x")} {
		if _, err := UnmarshalBlock(legacy); !errors.Is(err, codec.ErrFormat) {
			t.Fatalf("UnmarshalBlock(%x...): got %v, want codec.ErrFormat", legacy[:1], err)
		}
		if _, err := ReadBlock(bytes.NewReader(legacy)); !errors.Is(err, codec.ErrFormat) {
			t.Fatalf("ReadBlock(%x...): got %v, want codec.ErrFormat", legacy[:1], err)
		}
	}
}

func TestErrTooLargeReportsObservedSize(t *testing.T) {
	data, err := AppendBlockWire(nil, sealSample(4, types.HashString("s")))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	budget := int64(len(data)) / 2
	_, err = readBlockCapped(bytes.NewReader(data), budget)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
	// The error must name the block's actual size, not just the cap.
	if want := fmt.Sprintf("%d-byte block", len(data)); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not report the observed size %q", err, want)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("%d-byte cap", budget)) {
		t.Fatalf("error %q does not report the cap", err)
	}

	// The []byte path reports the same way.
	big := make([]byte, MaxWireBlock+1)
	_, err = UnmarshalBlock(big)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize buffer: got %v, want ErrTooLarge", err)
	}
	if want := fmt.Sprintf("%d-byte block", len(big)); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not report the observed size %q", err, want)
	}
}

// FuzzCodecBlock pins the flat codec's round-trip identity: any payload
// that decodes must re-encode to the identical bytes, and decoding must
// never panic on arbitrary input.
func FuzzCodecBlock(f *testing.F) {
	seed := func(n int) []byte {
		b := sealSample(n, types.HashString("s"))
		data, err := AppendBlockWire(nil, b)
		if err != nil {
			f.Fatalf("marshal: %v", err)
		}
		return data
	}
	f.Add(seed(1))
	f.Add(seed(6))
	allArgs := sealSample(1, types.HashString("s"))
	allArgs.Calls[0].Args = []any{uint64(7), int(-3), true, "text",
		types.AddressFromUint64(9), types.HashString("h"), types.Amount(12)}
	allArgs, _ = Seal(GenesisHeader(types.HashString("g")), allArgs.Calls, allArgs.Receipts,
		allArgs.Schedule, allArgs.Profiles, allArgs.Header.StateRoot)
	if data, err := AppendBlockWire(nil, allArgs); err == nil {
		f.Add(data)
	}
	f.Add([]byte{codec.Magic})
	empty, _ := codec.AppendHeader(nil, codec.KindBlock)
	f.Add(empty)
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ParseBlock(data)
		if err != nil {
			return
		}
		re, err := AppendBlockWire(nil, b)
		if err != nil {
			t.Fatalf("decoded block failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode differs:\n in: %x\nout: %x", data, re)
		}
	})
}
