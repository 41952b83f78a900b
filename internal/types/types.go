// Package types defines the primitive value types shared by every layer of
// the system: account addresses, cryptographic hashes, currency amounts and
// transaction identifiers.
//
// The types mirror the simplified Ethereum model used by the paper: an
// Address uniquely identifies an account (client or contract), a Hash is a
// 32-byte SHA-256 digest, and Amount is an unsigned currency quantity
// (the analogue of wei).
package types

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
)

// AddressLen is the byte length of an Address. The paper's model uses
// Ethereum addresses (20 bytes); we keep the same width.
const AddressLen = 20

// HashLen is the byte length of a Hash (SHA-256).
const HashLen = 32

// Address uniquely identifies an account: either an external client or a
// deployed smart contract.
type Address [AddressLen]byte

// ZeroAddress is the all-zero address. Like Solidity's address(0) it is used
// as a sentinel for "no address" (for example, an unset delegate in Ballot).
var ZeroAddress Address

// AddressFromUint64 derives a deterministic address from an integer seed.
// Workload generators use it to mint stable per-actor addresses.
func AddressFromUint64(n uint64) Address {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], n)
	sum := sha256.Sum256(buf[:])
	var a Address
	copy(a[:], sum[:AddressLen])
	return a
}

// ParseAddress decodes a 0x-prefixed or bare hex string into an Address.
func ParseAddress(s string) (Address, error) {
	var a Address
	err := parseHex(a[:], "address", s)
	return a, err
}

// parseHex decodes s, 0x-prefixed or bare, into dst, which it must fill
// exactly. It fails as hex.DecodeString and a length check after it
// would, with the same errors, but decodes in place without allocating.
func parseHex(dst []byte, what, s string) error {
	s = strings.TrimPrefix(s, "0x")
	for i := 0; i < len(s); i++ {
		if unhex(s[i]) > 0xf {
			return fmt.Errorf("parse %s %q: %w", what, s, hex.InvalidByteError(s[i]))
		}
	}
	if len(s)%2 == 1 {
		return fmt.Errorf("parse %s %q: %w", what, s, hex.ErrLength)
	}
	if len(s)/2 != len(dst) {
		return fmt.Errorf("parse %s %q: got %d bytes, want %d", what, s, len(s)/2, len(dst))
	}
	for i := range dst {
		dst[i] = unhex(s[2*i])<<4 | unhex(s[2*i+1])
	}
	return nil
}

// unhex is the value of the hex digit c, or 0xff for any other byte.
func unhex(c byte) byte {
	switch {
	case '0' <= c && c <= '9':
		return c - '0'
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10
	}
	return 0xff
}

// IsZero reports whether a is the zero address.
func (a Address) IsZero() bool { return a == ZeroAddress }

// Bytes returns a copy of the address bytes.
func (a Address) Bytes() []byte {
	out := make([]byte, AddressLen)
	copy(out, a[:])
	return out
}

// String renders the address as 0x-prefixed hex.
func (a Address) String() string { return "0x" + hex.EncodeToString(a[:]) }

// Short renders an abbreviated address (0x + first 4 bytes) for logs.
func (a Address) Short() string { return "0x" + hex.EncodeToString(a[:4]) }

// Compare orders addresses lexicographically, returning -1, 0 or +1.
func (a Address) Compare(b Address) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Hash is a 32-byte SHA-256 digest. It is used for block hashes, state roots
// and document hashcodes (EtherDoc).
type Hash [HashLen]byte

// ZeroHash is the all-zero hash.
var ZeroHash Hash

// HashBytes computes the SHA-256 digest of data.
func HashBytes(data []byte) Hash { return sha256.Sum256(data) }

// HashString computes the SHA-256 digest of a string.
func HashString(s string) Hash { return sha256.Sum256([]byte(s)) }

// HashConcat digests the concatenation of the given byte slices without
// intermediate allocation of the joined buffer.
func HashConcat(parts ...[]byte) Hash {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// ParseHash decodes a 0x-prefixed or bare hex string into a Hash.
func ParseHash(s string) (Hash, error) {
	var h Hash
	err := parseHex(h[:], "hash", s)
	return h, err
}

// IsZero reports whether h is the zero hash.
func (h Hash) IsZero() bool { return h == ZeroHash }

// Bytes returns a copy of the hash bytes.
func (h Hash) Bytes() []byte {
	out := make([]byte, HashLen)
	copy(out, h[:])
	return out
}

// String renders the hash as 0x-prefixed hex.
func (h Hash) String() string { return "0x" + hex.EncodeToString(h[:]) }

// Short renders an abbreviated hash (0x + first 4 bytes) for logs.
func (h Hash) Short() string { return "0x" + hex.EncodeToString(h[:4]) }

// Compare orders hashes lexicographically, returning -1, 0 or +1.
func (h Hash) Compare(other Hash) int {
	for i := range h {
		switch {
		case h[i] < other[i]:
			return -1
		case h[i] > other[i]:
			return 1
		}
	}
	return 0
}

// Amount is a non-negative currency quantity, the analogue of wei.
// Arithmetic helpers return explicit errors on overflow/underflow so contract
// code can convert them into aborts instead of silently wrapping.
type Amount uint64

// Errors returned by Amount arithmetic.
var (
	ErrAmountOverflow  = errors.New("types: amount overflow")
	ErrAmountUnderflow = errors.New("types: amount underflow")
)

// Add returns a+b or ErrAmountOverflow.
func (a Amount) Add(b Amount) (Amount, error) {
	sum := a + b
	if sum < a {
		return 0, fmt.Errorf("%d + %d: %w", a, b, ErrAmountOverflow)
	}
	return sum, nil
}

// Sub returns a-b or ErrAmountUnderflow.
func (a Amount) Sub(b Amount) (Amount, error) {
	if b > a {
		return 0, fmt.Errorf("%d - %d: %w", a, b, ErrAmountUnderflow)
	}
	return a - b, nil
}

// MustAdd is Add that panics on overflow; for test fixtures only.
func (a Amount) MustAdd(b Amount) Amount {
	sum, err := a.Add(b)
	if err != nil {
		panic(err)
	}
	return sum
}

// String renders the amount in decimal.
func (a Amount) String() string { return fmt.Sprintf("%d", uint64(a)) }

// TxID identifies a transaction within a block. The miner assigns IDs by
// position in the submitted block (0-based), so a TxID doubles as the
// transaction's index in the block's original order.
type TxID uint32

// String renders the id as "tx<N>".
func (id TxID) String() string { return fmt.Sprintf("tx%d", uint32(id)) }

// Uint64Bytes encodes n in big-endian order; shared helper for hashing.
func Uint64Bytes(n uint64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], n)
	return buf[:]
}

// Uint32Bytes encodes n in big-endian order; shared helper for hashing.
func Uint32Bytes(n uint32) []byte {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], n)
	return buf[:]
}
