package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"contractstm/internal/codec"
	"contractstm/internal/types"
)

// pair is a struct value as contracts store them: it encodes itself for
// the state root and its map is told how to read it back.
type pair struct{ A, B byte }

func (p pair) EncodeValue() []byte { return []byte{p.A, p.B} }

func decodePair(b []byte) (any, error) {
	if len(b) != 2 {
		return nil, codec.ErrFormat
	}
	return pair{b[0], b[1]}, nil
}

// buildStore assembles a store with one of each object kind and some
// contents, bypassing the transactional layer (raw accessors are exact
// for quiescent state): every value kind, a nil cell, a nil array slot.
func buildStore(t testing.TB) (*Store, *Map, *Cell) {
	t.Helper()
	s := NewStore()
	m, err := NewMap(s, "t/map")
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	m.DecodeStructs(decodePair)
	a, err := NewArray(s, "t/array")
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	c, err := NewCell(s, "t/cell", nil)
	if err != nil {
		t.Fatalf("NewCell: %v", err)
	}
	m.putRaw("balance", uint64(41))
	m.putRaw("owner", types.AddressFromUint64(9))
	m.putRaw("label", "hello")
	m.putRaw("flag", true)
	m.putRaw("count", int(3))
	m.putRaw("doc", types.HashString("doc"))
	m.putRaw("amount", types.Amount(12))
	m.putRaw("pair", pair{1, 2})
	for _, v := range []any{uint64(7), nil, "x"} {
		a.rawAppend(v)
	}
	return s, m, c
}

func TestStateEncodeDecodeRoundTrip(t *testing.T) {
	src, _, _ := buildStore(t)
	data, err := src.EncodeState()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	again, err := src.EncodeState()
	if err != nil || !bytes.Equal(data, again) {
		t.Fatalf("two encodes of one state differ (err %v)", err)
	}
	srcRoot, err := src.StateRoot()
	if err != nil {
		t.Fatalf("state root: %v", err)
	}

	// A freshly built store (same genesis setup, diverged contents)
	// restores the encoded state and reaches the identical commitment.
	dst, dm, dc := buildStore(t)
	dm.putRaw("balance", uint64(999))
	dm.deleteRaw("label")
	dc.rawWrite("junk")
	snap, err := dst.DecodeState(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	dst.Restore(snap)
	dstRoot, err := dst.StateRoot()
	if err != nil {
		t.Fatalf("state root: %v", err)
	}
	if dstRoot != srcRoot {
		t.Fatalf("restored root %s != source %s", dstRoot.Short(), srcRoot.Short())
	}
	if re, err := dst.EncodeState(); err != nil || !bytes.Equal(re, data) {
		t.Fatalf("restored store encodes differently (err %v)", err)
	}
	// Nil contents survived (cell nil, array hole), values kept their
	// concrete types.
	if v := dc.rawRead(); v != nil {
		t.Fatalf("cell restored to %v, want nil", v)
	}
	if got, _ := dm.getRaw("balance"); got != uint64(41) {
		t.Fatalf("balance restored to %#v", got)
	}
	if got, _ := dm.getRaw("pair"); got != (pair{1, 2}) {
		t.Fatalf("struct value restored to %#v", got)
	}
}

func TestStateDecodeRejectsForeignStore(t *testing.T) {
	src, _, _ := buildStore(t)
	data, err := src.EncodeState()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	// Same object count, different names.
	other := NewStore()
	for _, name := range []string{"x/map", "t/array", "t/cell"} {
		if _, err := NewMap(other, name); err != nil {
			t.Fatalf("NewMap: %v", err)
		}
	}
	if _, err := other.DecodeState(data); !errors.Is(err, codec.ErrFormat) {
		t.Fatalf("foreign names: got %v, want codec.ErrFormat", err)
	}

	// Same names but fewer objects: also a mismatch.
	subset := NewStore()
	if _, err := NewMap(subset, "t/map"); err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	if _, err := subset.DecodeState(data); !errors.Is(err, codec.ErrFormat) {
		t.Fatalf("subset store: got %v, want codec.ErrFormat", err)
	}
}

func appendUint(tag byte, x uint64) []byte {
	return binary.BigEndian.AppendUint64([]byte{tag}, x)
}

// stateOf hand-builds a state stream for buildStore's three objects from
// raw per-object bodies, so tests can describe hostile contents.
func stateOf(mapBody, arrayBody, cellBody []byte) []byte {
	dst := codec.AppendU32(nil, 3)
	dst = append(codec.AppendString(dst, "t/map"), mapBody...)
	dst = append(codec.AppendString(dst, "t/array"), arrayBody...)
	return append(codec.AppendString(dst, "t/cell"), cellBody...)
}

var (
	emptyBody = codec.AppendU32(nil, 0)                          // map or array with nothing in it
	nilValue  = codec.AppendBytes(nil, []byte{tagNil})           // one nil value
	oneUint   = codec.AppendBytes(nil, appendUint(tagUint64, 1)) // uint64(1)
)

// TestStateDecodeIsKindDirected: the bytes never choose an object's
// shape. A stream that stores a scalar where the store has a map (the
// snapshot that used to panic Map.restore with a failed type assertion)
// is an error, and so is every value encodeValue could not have written.
func TestStateDecodeIsKindDirected(t *testing.T) {
	s, _, _ := buildStore(t)
	before, err := s.StateRoot()
	if err != nil {
		t.Fatalf("state root: %v", err)
	}
	if _, err := s.DecodeState(stateOf(emptyBody, emptyBody, nilValue)); err != nil {
		t.Fatalf("well-formed empty state: %v", err)
	}
	entry := func(key string, value []byte) []byte {
		return append(codec.AppendString(codec.AppendU32(nil, 1), key), codec.AppendBytes(nil, value)...)
	}
	twoKeys := codec.AppendU32(nil, 2)
	for _, k := range []string{"b", "a"} {
		twoKeys = append(codec.AppendString(twoKeys, k), nilValue...)
	}
	cases := map[string][]byte{
		"scalar under a map's name":    stateOf(oneUint, emptyBody, nilValue),
		"scalar under an array's name": stateOf(emptyBody, oneUint, nilValue),
		"map body under a cell's name": stateOf(emptyBody, emptyBody, entry("k", []byte{tagNil})),
		"map count past the input":     stateOf(codec.AppendU32(nil, 1<<31), emptyBody, nilValue),
		"array count past the input":   stateOf(emptyBody, codec.AppendU32(nil, 1<<31), nilValue),
		"keys out of order":            stateOf(twoKeys, emptyBody, nilValue),
		"unknown value tag":            stateOf(entry("k", []byte{0x09}), emptyBody, nilValue),
		"empty value":                  stateOf(entry("k", nil), emptyBody, nilValue),
		"short uint64":                 stateOf(entry("k", []byte{tagUint64, 1}), emptyBody, nilValue),
		"bool byte 2":                  stateOf(entry("k", []byte{tagBool, 2}), emptyBody, nilValue),
		"negative int":                 stateOf(entry("k", appendUint(tagInt, 1<<63)), emptyBody, nilValue),
		"zero counter in a map":        stateOf(entry("k", appendUint(tagUint64, 0)), emptyBody, nilValue),
		"malformed struct":             stateOf(entry("k", []byte{tagStruct, 1}), emptyBody, nilValue),
		"struct where none is stored":  stateOf(emptyBody, emptyBody, codec.AppendBytes(nil, []byte{tagStruct, 1, 2})),
		"trailing bytes":               append(stateOf(emptyBody, emptyBody, nilValue), 0),
		"truncated":                    stateOf(emptyBody, emptyBody, nil),
		"empty input":                  nil,
		"gob-era bytes":                []byte("\x2f\xff\x81\x02\x01\x01\x0dsnapshotEntry"),
	}
	for name, data := range cases {
		if _, err := s.DecodeState(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		} else if !errors.Is(err, codec.ErrFormat) && !errors.Is(err, codec.ErrTruncated) {
			t.Errorf("%s: error %v wraps neither codec.ErrFormat nor codec.ErrTruncated", name, err)
		}
	}
	if after, _ := s.StateRoot(); after != before {
		t.Fatal("a refused decode changed the store")
	}
}

// TestStateEncodeRefusesUnreadableStruct: a struct value in an object
// that was given no decoder would only fail at recovery, so the encode
// fails instead.
func TestStateEncodeRefusesUnreadableStruct(t *testing.T) {
	s := NewStore()
	c, err := NewCell(s, "c", pair{1, 2})
	if err != nil {
		t.Fatalf("NewCell: %v", err)
	}
	if _, err := s.EncodeState(); err == nil {
		t.Fatalf("encoded a cell holding %T, which nothing can decode", c.rawRead())
	}
}

// FuzzDecodeState feeds arbitrary bytes — the state inside a peer's
// snapshot is exactly that — to a store with one object of each kind:
// decoding never panics, element counts pass codec.Reader's allocation
// guard, and whatever is accepted restores and re-encodes to the
// identical bytes.
func FuzzDecodeState(f *testing.F) {
	src, _, _ := buildStore(f)
	valid, err := src.EncodeState()
	if err != nil {
		f.Fatalf("encode: %v", err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(stateOf(emptyBody, emptyBody, nilValue))
	f.Add(stateOf(oneUint, emptyBody, nilValue))
	f.Add(stateOf(codec.AppendU32(nil, 1<<31), emptyBody, nilValue))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, _, _ := buildStore(t)
		snap, err := s.DecodeState(data)
		if err != nil {
			return
		}
		s.Restore(snap)
		re, err := s.EncodeState()
		if err != nil {
			t.Fatalf("accepted state failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode differs:\n in: %x\nout: %x", data, re)
		}
	})
}
