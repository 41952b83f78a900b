package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"contractstm/internal/codec"
	"contractstm/internal/types"
)

// Encoder lets struct values stored in boosted objects participate in state
// commitments. Contract struct types (for example Ballot's Voter) implement
// it with a canonical, deterministic byte encoding, and hand the object
// that stores them the inverse function (Map.DecodeStructs) so persisted
// state can be read back.
type Encoder interface {
	EncodeValue() []byte
}

// Kind tags of the value encoding.
const (
	tagNil     byte = 0x00
	tagBool    byte = 0x01
	tagUint64  byte = 0x02
	tagInt     byte = 0x03
	tagString  byte = 0x04
	tagAddress byte = 0x05
	tagHash    byte = 0x06
	tagAmount  byte = 0x07
	tagStruct  byte = 0x08
)

// appendValue appends the canonical encoding of one of the value kinds
// contracts may store: nil, bool, uint64, int (non-negative), string,
// types.Address, types.Hash, types.Amount, and any Encoder. Each encoding
// is tagged with a kind byte so values of different types never collide.
// The state root commits to these bytes and the persisted state stream
// (persist.go) stores them, so a value has one encoding.
func appendValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, tagNil), nil
	case bool:
		if x {
			return append(dst, tagBool, 1), nil
		}
		return append(dst, tagBool, 0), nil
	case uint64:
		return binary.BigEndian.AppendUint64(append(dst, tagUint64), x), nil
	case int:
		if x < 0 {
			return nil, fmt.Errorf("storage: negative int value %d not supported", x)
		}
		return binary.BigEndian.AppendUint64(append(dst, tagInt), uint64(x)), nil
	case string:
		return append(append(dst, tagString), x...), nil
	case types.Address:
		return append(append(dst, tagAddress), x[:]...), nil
	case types.Hash:
		return append(append(dst, tagHash), x[:]...), nil
	case types.Amount:
		return binary.BigEndian.AppendUint64(append(dst, tagAmount), uint64(x)), nil
	case Encoder:
		return append(append(dst, tagStruct), x.EncodeValue()...), nil
	default:
		return nil, fmt.Errorf("storage: cannot encode value of type %T", v)
	}
}

// encodeValue returns v's encoding in a slice of its own.
func encodeValue(v any) ([]byte, error) { return appendValue(nil, v) }

// valueLen is each tag's body length; -1 means the rest of the value.
var valueLen = [...]int{
	tagNil: 0, tagBool: 1, tagUint64: 8, tagInt: 8, tagString: -1,
	tagAddress: types.AddressLen, tagHash: types.HashLen, tagAmount: 8, tagStruct: -1,
}

// decodeValue is encodeValue's inverse. It accepts only what encodeValue
// can produce (exact lengths, strict bools, non-negative ints), so an
// accepted value re-encodes to the same bytes. structs parses a struct
// value's EncodeValue bytes; nil means the object holding the value does
// not store structs.
func decodeValue(enc []byte, structs func([]byte) (any, error)) (any, error) {
	if len(enc) == 0 {
		return nil, fmt.Errorf("%w: empty value", codec.ErrFormat)
	}
	tag, body := enc[0], enc[1:]
	if int(tag) >= len(valueLen) {
		return nil, fmt.Errorf("%w: value tag 0x%02x", codec.ErrFormat, tag)
	}
	if want := valueLen[tag]; want >= 0 && len(body) != want {
		return nil, fmt.Errorf("%w: value tag 0x%02x with %d bytes, want %d", codec.ErrFormat, tag, len(body), want)
	}
	switch tag {
	case tagNil:
		return nil, nil
	case tagBool:
		if body[0] > 1 {
			return nil, fmt.Errorf("%w: bool byte 0x%02x", codec.ErrFormat, body[0])
		}
		return body[0] == 1, nil
	case tagUint64:
		return binary.BigEndian.Uint64(body), nil
	case tagInt:
		n := binary.BigEndian.Uint64(body)
		if n > math.MaxInt {
			return nil, fmt.Errorf("%w: int value %d out of range", codec.ErrFormat, n)
		}
		return int(n), nil
	case tagString:
		return string(body), nil
	case tagAddress:
		var a types.Address
		copy(a[:], body)
		return a, nil
	case tagHash:
		var h types.Hash
		copy(h[:], body)
		return h, nil
	case tagAmount:
		return types.Amount(binary.BigEndian.Uint64(body)), nil
	default: // tagStruct
		if structs == nil {
			return nil, fmt.Errorf("%w: struct value in an object that stores none", codec.ErrFormat)
		}
		return structs(body)
	}
}

// Key helpers: boosted map keys are strings; contracts use these to derive
// canonical keys from domain types.

// KeyAddr derives a map key from an address.
func KeyAddr(a types.Address) string { return string(a[:]) }

// KeyHash derives a map key from a hash.
func KeyHash(h types.Hash) string { return string(h[:]) }

// KeyUint derives a map key from an integer (big-endian, fixed width, so
// lexicographic order equals numeric order). The keys of the first
// indices are made once, so that naming an array element's lock does not
// allocate.
func KeyUint(n uint64) string {
	if n < uint64(len(smallUintKeys)) {
		return smallUintKeys[n]
	}
	return keyUint(n)
}

func keyUint(n uint64) string {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], n)
	return string(buf[:])
}

// smallUintKeys holds KeyUint's keys below 256.
var smallUintKeys = func() (keys [256]string) {
	for i := range keys {
		keys[i] = keyUint(uint64(i))
	}
	return keys
}()
