package chain

import (
	"bytes"
	"errors"
	"testing"

	"contractstm/internal/types"
)

// The WAL recovery path feeds disk bytes straight into ReadBlock, so
// decoding must be total: any malformed input returns an error, never
// panics, and never allocates past the MaxWireBlock budget.

func TestDecodeBlockTruncatedStreams(t *testing.T) {
	data, err := AppendBlockWire(nil, sealSample(4, types.HashString("s")))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	// Every proper prefix must fail cleanly; step to keep the test quick.
	step := len(data)/97 + 1
	for cut := 0; cut < len(data); cut += step {
		if _, err := UnmarshalBlock(data[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(data))
		}
	}
}

func TestDecodeBlockOverBudget(t *testing.T) {
	data, err := AppendBlockWire(nil, sealSample(4, types.HashString("s")))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	// A stream larger than the budget must fail with ErrTooLarge, not
	// hang or over-allocate. readBlockCapped is ReadBlock with the
	// budget exposed, so the test does not need a real 64 MB block.
	if _, err := readBlockCapped(bytes.NewReader(data), int64(len(data))/2); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
	// At or above its real size the same stream decodes fine.
	if _, err := readBlockCapped(bytes.NewReader(data), int64(len(data))); err != nil {
		t.Fatalf("within budget: %v", err)
	}
}

func TestDecodeBlockBitFlips(t *testing.T) {
	data, err := AppendBlockWire(nil, sealSample(3, types.HashString("s")))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	// Flip one byte at a time; decode must never panic, and whatever it
	// accepts must still be commitment-consistent. (A flip inside the
	// header's state root can legitimately decode — the state root is
	// the validator's to check, by re-execution — which is exactly why
	// the WAL recovery path replays blocks through the validator.)
	step := len(data)/61 + 1
	for i := 0; i < len(data); i += step {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x41
		got, err := UnmarshalBlock(mut)
		if err == nil {
			if _, verr := VerifyCommitments(got); verr != nil {
				t.Fatalf("bit flip at %d decoded a block failing commitments: %v", i, verr)
			}
		}
	}
}

func TestChainNewAtPrunes(t *testing.T) {
	// A checkpoint-rooted chain answers like a genesis chain above the
	// base and "not held" below it.
	c := New(types.HashString("genesis"))
	var checkpoint Header
	for i := 0; i < 4; i++ {
		b, _ := Seal(c.Head().Header, sampleCalls(2), sampleReceipts(2), sampleSchedule(2), sampleProfiles(2),
			types.HashString("s"))
		if err := c.Append(b); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if i == 2 {
			checkpoint = b.Header
		}
	}

	p := NewAt(checkpoint)
	if p.Base() != 3 || p.Head().Header.Hash() != checkpoint.Hash() {
		t.Fatalf("base %d head %s, want 3 %s", p.Base(), p.Head().Header.Hash().Short(), checkpoint.Hash().Short())
	}
	if _, ok := p.BlockAt(1); ok {
		t.Fatal("pruned chain served a block below its base")
	}
	if _, ok := p.HashAt(2); ok {
		t.Fatal("pruned chain hashed a block below its base")
	}
	if h, ok := p.HashAt(3); !ok || h != checkpoint.Hash() {
		t.Fatal("checkpoint height not served")
	}
	// The continuation block appends onto the checkpoint like any head.
	next, _ := c.BlockAt(4)
	if err := p.Append(next); err != nil {
		t.Fatalf("append onto checkpoint: %v", err)
	}
	if got, ok := p.BlockAt(4); !ok || got.Header.Hash() != next.Header.Hash() {
		t.Fatal("appended block not served")
	}
	if p.Length() != 2 {
		t.Fatalf("pruned chain holds %d blocks, want 2", p.Length())
	}
}

func FuzzDecodeBlock(f *testing.F) {
	valid, err := AppendBlockWire(nil, sealSample(3, types.HashString("s")))
	if err != nil {
		f.Fatalf("marshal: %v", err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("garbage that is definitely not a block"))
	f.Add(gobEraBlock(f, 0))
	f.Add(gobEraBlock(f, ^uint32(0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic and never accept a block whose commitments do
		// not hold (UnmarshalBlock verifies them internally, so a nil error
		// implies a self-consistent block).
		b, err := UnmarshalBlock(data)
		if err == nil {
			if _, verr := VerifyCommitments(b); verr != nil {
				t.Fatalf("decode accepted a block failing commitments: %v", verr)
			}
		}
	})
}
