package types

import (
	"encoding/hex"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddressFromUint64Deterministic(t *testing.T) {
	a := AddressFromUint64(42)
	b := AddressFromUint64(42)
	if a != b {
		t.Fatalf("same seed produced different addresses: %s vs %s", a, b)
	}
}

func TestAddressFromUint64Distinct(t *testing.T) {
	seen := make(map[Address]uint64)
	for i := uint64(0); i < 10_000; i++ {
		a := AddressFromUint64(i)
		if prev, dup := seen[a]; dup {
			t.Fatalf("collision: seeds %d and %d both map to %s", prev, i, a)
		}
		seen[a] = i
	}
}

func TestParseAddressRoundTrip(t *testing.T) {
	orig := AddressFromUint64(7)
	parsed, err := ParseAddress(orig.String())
	if err != nil {
		t.Fatalf("ParseAddress(%q): %v", orig.String(), err)
	}
	if parsed != orig {
		t.Fatalf("round trip mismatch: %s != %s", parsed, orig)
	}
}

func TestParseAddressBareHex(t *testing.T) {
	orig := AddressFromUint64(9)
	bare := strings.TrimPrefix(orig.String(), "0x")
	parsed, err := ParseAddress(bare)
	if err != nil {
		t.Fatalf("ParseAddress(%q): %v", bare, err)
	}
	if parsed != orig {
		t.Fatalf("round trip mismatch: %s != %s", parsed, orig)
	}
}

func TestParseAddressErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"not hex", "0xzz"},
		{"too short", "0xabcd"},
		{"too long", "0x" + strings.Repeat("ab", AddressLen+1)},
		{"empty", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseAddress(tc.in); err == nil {
				t.Fatalf("ParseAddress(%q) succeeded, want error", tc.in)
			}
		})
	}
}

func TestAddressIsZero(t *testing.T) {
	if !ZeroAddress.IsZero() {
		t.Fatal("ZeroAddress.IsZero() = false")
	}
	if AddressFromUint64(1).IsZero() {
		t.Fatal("non-zero address reported as zero")
	}
}

func TestAddressCompare(t *testing.T) {
	a := Address{0: 1}
	b := Address{0: 2}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Fatalf("Compare ordering wrong: a<b=%d b>a=%d a=a=%d", a.Compare(b), b.Compare(a), a.Compare(a))
	}
}

func TestAddressBytesIsCopy(t *testing.T) {
	a := AddressFromUint64(3)
	got := a.Bytes()
	got[0] ^= 0xff
	if a.Bytes()[0] == got[0] {
		t.Fatal("Bytes() returned a view into the address, want a copy")
	}
}

func TestHashBytesMatchesHashString(t *testing.T) {
	if HashBytes([]byte("hello")) != HashString("hello") {
		t.Fatal("HashBytes and HashString disagree on identical input")
	}
}

func TestHashConcatEqualsJoinedHash(t *testing.T) {
	joined := HashBytes([]byte("foobarbaz"))
	parts := HashConcat([]byte("foo"), []byte("bar"), []byte("baz"))
	if joined != parts {
		t.Fatalf("HashConcat = %s, want %s", parts, joined)
	}
}

func TestParseHashRoundTrip(t *testing.T) {
	orig := HashString("state root")
	parsed, err := ParseHash(orig.String())
	if err != nil {
		t.Fatalf("ParseHash: %v", err)
	}
	if parsed != orig {
		t.Fatalf("round trip mismatch: %s != %s", parsed, orig)
	}
}

func TestParseHashErrors(t *testing.T) {
	if _, err := ParseHash("0x1234"); err == nil {
		t.Fatal("short hash parsed without error")
	}
	if _, err := ParseHash("0xgg" + strings.Repeat("00", HashLen-1)); err == nil {
		t.Fatal("non-hex hash parsed without error")
	}
}

func TestHashShortPrefix(t *testing.T) {
	h := HashString("x")
	if !strings.HasPrefix(h.String(), h.Short()) {
		t.Fatalf("Short() %q is not a prefix of String() %q", h.Short(), h.String())
	}
}

func TestAmountAdd(t *testing.T) {
	sum, err := Amount(2).Add(3)
	if err != nil || sum != 5 {
		t.Fatalf("2+3 = %d, %v; want 5, nil", sum, err)
	}
}

func TestAmountAddOverflow(t *testing.T) {
	if _, err := Amount(^uint64(0)).Add(1); err == nil {
		t.Fatal("max+1 did not overflow")
	}
}

func TestAmountSub(t *testing.T) {
	d, err := Amount(5).Sub(3)
	if err != nil || d != 2 {
		t.Fatalf("5-3 = %d, %v; want 2, nil", d, err)
	}
}

func TestAmountSubUnderflow(t *testing.T) {
	if _, err := Amount(3).Sub(5); err == nil {
		t.Fatal("3-5 did not underflow")
	}
}

func TestMustAddPanicsOnOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAdd did not panic on overflow")
		}
	}()
	Amount(^uint64(0)).MustAdd(1)
}

// Property: Add and Sub are inverses whenever Add succeeds.
func TestAmountAddSubInverseProperty(t *testing.T) {
	prop := func(a, b uint64) bool {
		sum, err := Amount(a).Add(Amount(b))
		if err != nil {
			return true // overflow: nothing to invert
		}
		back, err := sum.Sub(Amount(b))
		return err == nil && back == Amount(a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Compare is antisymmetric and consistent with equality.
func TestHashCompareProperty(t *testing.T) {
	prop := func(x, y [8]byte) bool {
		var a, b Hash
		copy(a[:], x[:])
		copy(b[:], y[:])
		c := a.Compare(b)
		return c == -b.Compare(a) && ((c == 0) == (a == b))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTxIDString(t *testing.T) {
	if TxID(17).String() != "tx17" {
		t.Fatalf("TxID(17).String() = %q", TxID(17).String())
	}
}

func TestUintBytesBigEndian(t *testing.T) {
	b := Uint64Bytes(0x0102030405060708)
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("Uint64Bytes byte %d = %#x, want %#x", i, b[i], want[i])
		}
	}
	b4 := Uint32Bytes(0x01020304)
	want4 := []byte{1, 2, 3, 4}
	for i := range want4 {
		if b4[i] != want4[i] {
			t.Fatalf("Uint32Bytes byte %d = %#x, want %#x", i, b4[i], want4[i])
		}
	}
}

// TestParseErrorMessages pins ParseAddress's and ParseHash's error text
// for odd-length, bad-byte, short and long input, with and without the
// 0x prefix: the text encoding/hex's DecodeString and the length check
// after it gave. An empty want means the input parses.
func TestParseErrorMessages(t *testing.T) {
	for _, tc := range []struct{ in, addr, hash string }{
		{"", "parse address \"\": got 0 bytes, want 20", "parse hash \"\": got 0 bytes, want 32"},
		{"0x", "parse address \"\": got 0 bytes, want 20", "parse hash \"\": got 0 bytes, want 32"},
		{"0", "parse address \"0\": encoding/hex: odd length hex string", "parse hash \"0\": encoding/hex: odd length hex string"},
		{"0x0", "parse address \"0\": encoding/hex: odd length hex string", "parse hash \"0\": encoding/hex: odd length hex string"},
		{"0Xababababababababababababababababababab", "parse address \"0Xababababababababababababababababababab\": encoding/hex: invalid byte: U+0058 'X'", "parse hash \"0Xababababababababababababababababababab\": encoding/hex: invalid byte: U+0058 'X'"},
		{"abababababababababababababababababababa", "parse address \"abababababababababababababababababababa\": encoding/hex: odd length hex string", "parse hash \"abababababababababababababababababababa\": encoding/hex: odd length hex string"},
		{"0xabababababababababababababababababababa", "parse address \"abababababababababababababababababababa\": encoding/hex: odd length hex string", "parse hash \"abababababababababababababababababababa\": encoding/hex: odd length hex string"},
		{"zzababababababababababababababababababab", "parse address \"zzababababababababababababababababababab\": encoding/hex: invalid byte: U+007A 'z'", "parse hash \"zzababababababababababababababababababab\": encoding/hex: invalid byte: U+007A 'z'"},
		{"0xabababababgbabababababababababababababab", "parse address \"abababababgbabababababababababababababab\": encoding/hex: invalid byte: U+0067 'g'", "parse hash \"abababababgbabababababababababababababab\": encoding/hex: invalid byte: U+0067 'g'"},
		{"abababababababababababababababababababaZ", "parse address \"abababababababababababababababababababaZ\": encoding/hex: invalid byte: U+005A 'Z'", "parse hash \"abababababababababababababababababababaZ\": encoding/hex: invalid byte: U+005A 'Z'"},
		{"0xabababababababababababababababababababa ", "parse address \"abababababababababababababababababababa \": encoding/hex: invalid byte: U+0020 ' '", "parse hash \"abababababababababababababababababababa \": encoding/hex: invalid byte: U+0020 ' '"},
		{"ababababababababababababababababababab", "parse address \"ababababababababababababababababababab\": got 19 bytes, want 20", "parse hash \"ababababababababababababababababababab\": got 19 bytes, want 32"},
		{"0xababababababababababababababababababab", "parse address \"ababababababababababababababababababab\": got 19 bytes, want 20", "parse hash \"ababababababababababababababababababab\": got 19 bytes, want 32"},
		{"abababababababababababababababababababab00", "parse address \"abababababababababababababababababababab00\": got 21 bytes, want 20", "parse hash \"abababababababababababababababababababab00\": got 21 bytes, want 32"},
		{"0xabababababababababababababababababababab00", "parse address \"abababababababababababababababababababab00\": got 21 bytes, want 20", "parse hash \"abababababababababababababababababababab00\": got 21 bytes, want 32"},
		{"0xabababababababababababababababababababab0", "parse address \"abababababababababababababababababababab0\": encoding/hex: odd length hex string", "parse hash \"abababababababababababababababababababab0\": encoding/hex: odd length hex string"},
		{"0xabababababababababababababababababababab0q", "parse address \"abababababababababababababababababababab0q\": encoding/hex: invalid byte: U+0071 'q'", "parse hash \"abababababababababababababababababababab0q\": encoding/hex: invalid byte: U+0071 'q'"},
		{"abababababababababababababababababababab00000000000000000000x", "parse address \"abababababababababababababababababababab00000000000000000000x\": encoding/hex: invalid byte: U+0078 'x'", "parse hash \"abababababababababababababababababababab00000000000000000000x\": encoding/hex: invalid byte: U+0078 'x'"},
		{"0x0xabababababababababababababababababababab", "parse address \"0xabababababababababababababababababababab\": encoding/hex: invalid byte: U+0078 'x'", "parse hash \"0xabababababababababababababababababababab\": encoding/hex: invalid byte: U+0078 'x'"},
		{"éababababababababababababababababababab", "parse address \"éababababababababababababababababababab\": encoding/hex: invalid byte: U+00C3 'Ã'", "parse hash \"éababababababababababababababababababab\": encoding/hex: invalid byte: U+00C3 'Ã'"},
		{"0xABabababababababababababababababababab", "parse address \"ABabababababababababababababababababab\": got 19 bytes, want 20", "parse hash \"ABabababababababababababababababababab\": got 19 bytes, want 32"},
		{"cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd", "parse address \"cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd\": got 32 bytes, want 20", ""},
		{"0xcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd", "parse address \"cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd\": got 32 bytes, want 20", ""},
		{"cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdc", "parse address \"cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdc\": encoding/hex: odd length hex string", "parse hash \"cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdc\": encoding/hex: odd length hex string"},
		{"0xcdcdcdcdcdcdcdcdcdcd-dcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd", "parse address \"cdcdcdcdcdcdcdcdcdcd-dcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd\": encoding/hex: invalid byte: U+002D '-'", "parse hash \"cdcdcdcdcdcdcdcdcdcd-dcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd\": encoding/hex: invalid byte: U+002D '-'"},
		{"cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd", "parse address \"cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd\": got 31 bytes, want 20", "parse hash \"cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd\": got 31 bytes, want 32"},
		{"0xcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdff", "parse address \"cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdff\": got 33 bytes, want 20", "parse hash \"cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdff\": got 33 bytes, want 32"},
		{"abababababababababababababababababababab", "", "parse hash \"abababababababababababababababababababab\": got 20 bytes, want 32"},
	} {
		_, errA := ParseAddress(tc.in)
		_, errH := ParseHash(tc.in)
		for _, c := range []struct {
			err  error
			want string
		}{{errA, tc.addr}, {errH, tc.hash}} {
			got := ""
			if c.err != nil {
				got = c.err.Error()
			}
			if got != c.want {
				t.Errorf("parse %q:\n got %q\nwant %q", tc.in, got, c.want)
			}
			var bad hex.InvalidByteError
			if strings.Contains(c.want, "invalid byte") && !errors.As(c.err, &bad) ||
				strings.Contains(c.want, "odd length") && !errors.Is(c.err, hex.ErrLength) {
				t.Errorf("parse %q: %v does not wrap encoding/hex's error", tc.in, c.err)
			}
		}
	}
	for _, s := range []string{"0x" + strings.Repeat("aF", AddressLen), strings.Repeat("09", AddressLen)} {
		a, err := ParseAddress(s)
		if want, _ := hex.DecodeString(strings.TrimPrefix(s, "0x")); err != nil || string(a[:]) != string(want) {
			t.Errorf("ParseAddress(%q) = %x, %v", s, a, err)
		}
	}
}
