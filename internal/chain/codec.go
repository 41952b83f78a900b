package chain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"contractstm/internal/codec"
)

// Wire serialization for blocks, suitable for persistence and for
// shipping blocks between nodes. There is one format, the flat binary
// codec (flat.go, internal/codec): length-prefixed little-endian fields,
// no reflection, single-buffer encodes. A payload that does not start
// with the flat magic byte is codec.ErrFormat.
//
// Integrity is independent of encoding. ReadBlock and ParseBlock only
// parse: every program's next step verifies the block itself, the block
// upload handler with validator.Validate, WAL replay and the import
// pipeline's fetch with validator.Precheck. UnmarshalBlock adds the
// header commitment check (VerifyCommitments) for callers that never
// validate: the decode fuzzers and benchmark probes. Either way a
// corrupted or malicious stream can at worst produce a block that is then
// rejected.

// MaxWireBlock bounds one block's wire encoding; the node's block upload
// handler, the cluster peer client and the persistence WAL all cap reads
// at this, so the serve, fetch and recovery sides can never disagree on
// what fits. ReadBlock additionally enforces the bound itself, so a
// caller that forgets the LimitReader still cannot be fed an unbounded
// stream.
const MaxWireBlock = 64 << 20

// ErrTooLarge reports a wire stream that exceeds MaxWireBlock before one
// block finished decoding.
var ErrTooLarge = errors.New("chain: wire block exceeds MaxWireBlock")

// ReadBlock reads one block from r without checking its commitments; it
// does NOT re-execute either (that is the validator's job). Input is
// untrusted: the stream is size-capped at MaxWireBlock, and any malformed
// input — truncated, version-skewed, corrupted — returns an error, never
// panics.
func ReadBlock(r io.Reader) (Block, error) {
	return readBlockCapped(r, MaxWireBlock)
}

// readBlockCapped is ReadBlock with an explicit byte budget (tests
// exercise the budget without building a 64 MB block). The declared body
// length is checked against the budget before anything is allocated.
func readBlockCapped(r io.Reader, budget int64) (Block, error) {
	var hdr [codec.HeaderLen]byte
	n, err := io.ReadFull(r, hdr[:])
	if n > 0 && hdr[0] != codec.Magic {
		return Block{}, fmt.Errorf("chain: decode block: %w: magic 0x%02x, want 0x%02x",
			codec.ErrFormat, hdr[0], codec.Magic)
	}
	if err != nil {
		return Block{}, fmt.Errorf("chain: decode block header: %w", err)
	}
	total := int64(codec.HeaderLen) + int64(binary.LittleEndian.Uint32(hdr[3:]))
	if total > budget {
		return Block{}, fmt.Errorf("chain: decode block: %d-byte block exceeds %d-byte cap: %w",
			total, budget, ErrTooLarge)
	}
	payload := make([]byte, total)
	copy(payload, hdr[:])
	if _, err := io.ReadFull(r, payload[codec.HeaderLen:]); err != nil {
		return Block{}, fmt.Errorf("chain: decode block body: %w", err)
	}
	return ParseBlock(payload)
}

// UnmarshalBlock parses bytes produced by AppendBlockWire and verifies
// the header commitments.
func UnmarshalBlock(data []byte) (Block, error) {
	return verified(ParseBlock(data))
}

// ParseBlock is UnmarshalBlock without the commitment check: it parses a
// complete flat block payload (header included).
func ParseBlock(data []byte) (Block, error) {
	if int64(len(data)) > MaxWireBlock {
		return Block{}, fmt.Errorf("chain: decode block: %d-byte block exceeds %d-byte cap: %w",
			len(data), int64(MaxWireBlock), ErrTooLarge)
	}
	var b Block
	body, err := codec.ParseHeader(data, codec.KindBlock)
	if err == nil {
		r := codec.NewReader(body)
		if b, err = readFlatBody(r); err == nil {
			err = r.Done()
		}
	}
	if err != nil {
		return Block{}, fmt.Errorf("chain: decode block: %w", err)
	}
	return b, nil
}

// verified adds the commitment check to a parse.
func verified(b Block, err error) (Block, error) {
	if err != nil {
		return Block{}, err
	}
	if _, err := VerifyCommitments(b); err != nil {
		return Block{}, fmt.Errorf("chain: decoded block fails commitments: %w", err)
	}
	return b, nil
}
