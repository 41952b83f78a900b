package wire

import (
	"math"
	"strconv"
)

// The canonical JSON of a submit (POST /v1/tx) and of its 202 answer is
// the form encoding/json writes for TxSubmit and TxSubmitted: keys in
// field order, omitempty fields left out when zero, strings unescaped.
// AppendTxSubmit and AppendTxSubmitted write it without reflection and
// report false for a string encoding/json would escape; ParseTxSubmit
// and ParseTxSubmitted read back only that form — strings of the bytes
// encoding/json writes unescaped (0x20–0x7f but the quote, backslash and
// <>&), decimal integers with no leading zero and in range, optional
// trailing whitespace — and report false for anything else. A caller
// that gets false uses encoding/json, so a non-canonical body meets
// exactly the decoder it always met.

// argTypes and verdicts are the tags a parsed string is interned as, so
// the usual submit and answer allocate no string for them.
var (
	argTypes = []string{"uint64", "int", "bool", "string", "address", "hash", "amount"}
	verdicts = []string{"admitted", "replaced"}
)

// AppendTxSubmit appends the bytes json.Marshal writes for t, or returns
// dst and false when one of t's strings would need escaping.
func AppendTxSubmit(dst []byte, t TxSubmit) ([]byte, bool) {
	ok := plain(t.Sender) && plain(t.Contract) && plain(t.Function)
	for _, a := range t.Args {
		ok = ok && plain(a.Type) && plain(a.Value)
	}
	if !ok {
		return dst, false
	}
	dst = append(dst, `{"sender":`...)
	dst = appendQuoted(dst, t.Sender)
	dst = append(dst, `,"contract":`...)
	dst = appendQuoted(dst, t.Contract)
	dst = append(dst, `,"function":`...)
	dst = appendQuoted(dst, t.Function)
	if len(t.Args) > 0 {
		dst = append(dst, `,"args":[`...)
		for i, a := range t.Args {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"type":`...)
			dst = appendQuoted(dst, a.Type)
			dst = append(dst, `,"value":`...)
			dst = appendQuoted(dst, a.Value)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if t.Value != 0 {
		dst = append(dst, `,"value":`...)
		dst = strconv.AppendUint(dst, t.Value, 10)
	}
	dst = append(dst, `,"gasLimit":`...)
	dst = strconv.AppendUint(dst, t.GasLimit, 10)
	if t.Priority != 0 {
		dst = append(dst, `,"priority":`...)
		dst = strconv.AppendUint(dst, uint64(t.Priority), 10)
	}
	return append(dst, '}'), true
}

// AppendTxSubmitted appends the bytes json.NewEncoder(w).Encode writes
// for t, trailing newline included, or returns dst and false when one of
// t's strings would need escaping.
func AppendTxSubmitted(dst []byte, t TxSubmitted) ([]byte, bool) {
	if !plain(t.ID) || !plain(t.Verdict) {
		return dst, false
	}
	dst = append(dst, `{"id":`...)
	dst = appendQuoted(dst, t.ID)
	dst = append(dst, `,"poolLen":`...)
	dst = strconv.AppendInt(dst, int64(t.PoolLen), 10)
	if t.Verdict != "" {
		dst = append(dst, `,"verdict":`...)
		dst = appendQuoted(dst, t.Verdict)
	}
	return append(dst, "}\n"...), true
}

// ParseTxSubmit reads a submit in canonical form; false means b is not
// in that form (it may still be valid JSON for encoding/json).
func ParseTxSubmit(b []byte) (TxSubmit, bool) {
	p := parser{b: b, ok: true}
	var t TxSubmit
	p.lit(`{"sender":`)
	t.Sender = p.str(nil)
	p.lit(`,"contract":`)
	t.Contract = p.str(nil)
	p.lit(`,"function":`)
	t.Function = p.str(nil)
	if p.skip(`,"args":[`) {
		t.Args = make([]Arg, 0, 4)
		for p.ok {
			var a Arg
			p.lit(`{"type":`)
			a.Type = p.str(argTypes)
			p.lit(`,"value":`)
			a.Value = p.str(nil)
			p.lit(`}`)
			t.Args = append(t.Args, a)
			if !p.skip(`,`) {
				break
			}
		}
		p.lit(`]`)
	}
	if p.skip(`,"value":`) {
		t.Value = p.nonzero(p.uint(math.MaxUint64))
	}
	p.lit(`,"gasLimit":`)
	t.GasLimit = p.uint(math.MaxUint64)
	if p.skip(`,"priority":`) {
		t.Priority = uint8(p.nonzero(p.uint(math.MaxUint8)))
	}
	p.lit(`}`)
	if !p.end() {
		return TxSubmit{}, false
	}
	return t, true
}

// ParseTxSubmitted reads a submit's answer in canonical form; false means
// b is not in that form.
func ParseTxSubmitted(b []byte) (TxSubmitted, bool) {
	p := parser{b: b, ok: true}
	var t TxSubmitted
	p.lit(`{"id":`)
	t.ID = p.str(nil)
	p.lit(`,"poolLen":`)
	t.PoolLen = p.int()
	if p.skip(`,"verdict":`) {
		t.Verdict = p.nonempty(p.str(verdicts))
	}
	p.lit(`}`)
	if !p.end() {
		return TxSubmitted{}, false
	}
	return t, true
}

// plain reports whether encoding/json writes s as itself between quotes.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			return false
		}
	}
	return true
}

// plainByte reports whether encoding/json writes c inside a string as
// itself: 0x20–0x7f other than the quote, the backslash and <>&.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x80 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// appendQuoted appends a plain string between quotes.
func appendQuoted(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// parser walks a canonical JSON object. The first mismatch clears ok,
// and every later step is then a no-op.
type parser struct {
	b  []byte
	i  int
	ok bool
}

// skip consumes lit if the input continues with it.
func (p *parser) skip(lit string) bool {
	if p.ok && len(p.b)-p.i >= len(lit) && string(p.b[p.i:p.i+len(lit)]) == lit {
		p.i += len(lit)
		return true
	}
	return false
}

// lit consumes lit or fails.
func (p *parser) lit(lit string) {
	if !p.skip(lit) {
		p.ok = false
	}
}

// str consumes a string of plain bytes. A value equal to one of known is
// returned as that string, without allocating.
func (p *parser) str(known []string) string {
	if !p.skip(`"`) {
		p.ok = false
		return ""
	}
	j := p.i
	for j < len(p.b) && plainByte(p.b[j]) {
		j++
	}
	if j == len(p.b) || p.b[j] != '"' {
		p.ok = false
		return ""
	}
	s := p.b[p.i:j]
	p.i = j + 1
	for _, k := range known {
		if string(s) == k {
			return k
		}
	}
	return string(s)
}

// uint consumes a decimal integer no greater than max, with no sign and
// no leading zero.
func (p *parser) uint(max uint64) uint64 {
	if !p.ok {
		return 0
	}
	var n uint64
	j := p.i
	for ; j < len(p.b) && '0' <= p.b[j] && p.b[j] <= '9'; j++ {
		d := uint64(p.b[j] - '0')
		if n > (max-d)/10 {
			p.ok = false
			return 0
		}
		n = n*10 + d
	}
	if j == p.i || (p.b[p.i] == '0' && j-p.i > 1) {
		p.ok = false
		return 0
	}
	p.i = j
	return n
}

// int consumes a decimal int, negative with a leading '-' (never "-0").
func (p *parser) int() int {
	if !p.skip(`-`) {
		return int(p.uint(math.MaxInt))
	}
	n := p.nonzero(p.uint(math.MaxInt + 1))
	return -int(n)
}

// nonzero fails on 0: an omitempty number is left out, never written 0.
func (p *parser) nonzero(n uint64) uint64 {
	if n == 0 {
		p.ok = false
	}
	return n
}

// nonempty fails on "": an omitempty string is left out, never written
// empty.
func (p *parser) nonempty(s string) string {
	if s == "" {
		p.ok = false
	}
	return s
}

// end reports whether every step matched and only JSON whitespace
// follows.
func (p *parser) end() bool {
	for ; p.ok && p.i < len(p.b); p.i++ {
		if c := p.b[p.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return p.ok
}
