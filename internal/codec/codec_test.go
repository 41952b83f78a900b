package codec

import (
	"errors"
	"testing"
)

func TestHeaderRoundTrip(t *testing.T) {
	buf, start := AppendHeader(nil, KindBlock)
	buf = AppendU64(buf, 42)
	buf = AppendString(buf, "hello")
	FinishHeader(buf, start)

	body, err := ParseHeader(buf, KindBlock)
	if err != nil {
		t.Fatalf("ParseHeader: %v", err)
	}
	r := NewReader(body)
	if v, err := r.U64(); err != nil || v != 42 {
		t.Fatalf("U64 = %d, %v", v, err)
	}
	if s, err := r.String(); err != nil || s != "hello" {
		t.Fatalf("String = %q, %v", s, err)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestParseHeaderRejects(t *testing.T) {
	good, start := AppendHeader(nil, KindBlock)
	FinishHeader(good, start)

	cases := map[string][]byte{
		"short":      good[:3],
		"bad magic":  append([]byte{0x00}, good[1:]...),
		"bad kind":   {Magic, KindSnapshot, versions[KindSnapshot], 0, 0, 0, 0},
		"bad ver":    {Magic, KindBlock, 99, 0, 0, 0, 0},
		"bad length": {Magic, KindBlock, versions[KindBlock], 5, 0, 0, 0},
		"trailing":   append(append([]byte(nil), good...), 0xAA),
	}
	for name, payload := range cases {
		if _, err := ParseHeader(payload, KindBlock); err == nil {
			t.Errorf("%s: ParseHeader accepted %x", name, payload)
		}
	}

	// Whatever does not begin with Magic is ErrFormat however short it
	// is: one format, no guessing.
	for _, payload := range [][]byte{{0x00}, {0x2f, 0xff, 0x81}, []byte("not a flat stream")} {
		if _, err := ParseHeader(payload, KindBlock); !errors.Is(err, ErrFormat) {
			t.Errorf("ParseHeader(%x) = %v, want ErrFormat", payload, err)
		}
	}
	// Versions are per kind: a snapshot at layout 1 (gob-encoded state
	// inside a flat envelope) is refused by version, a block at 1 is
	// current.
	if _, err := ParseHeader([]byte{Magic, KindSnapshot, 1, 0, 0, 0, 0}, KindSnapshot); !errors.Is(err, ErrFormat) {
		t.Errorf("snapshot layout 1: got %v, want ErrFormat", err)
	}
}

func TestReaderBounds(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if _, err := r.U64(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("U64 on 3 bytes: %v", err)
	}
	r = NewReader([]byte{2})
	if _, err := r.Bool(); !errors.Is(err, ErrFormat) {
		t.Fatalf("Bool(2): %v", err)
	}
	// A declared count that cannot fit must be refused before allocation.
	huge := AppendU32(nil, 0xFFFFFFFF)
	r = NewReader(huge)
	if _, err := r.Count(4); !errors.Is(err, ErrFormat) {
		t.Fatalf("Count(huge): %v", err)
	}
}

func TestBufferPoolReuse(t *testing.T) {
	b := GetBuffer()
	b.B = append(b.B, 1, 2, 3)
	b.Release()
	c := GetBuffer()
	if len(c.B) != 0 {
		t.Fatalf("pooled buffer not reset: len %d", len(c.B))
	}
	c.Release()
}
