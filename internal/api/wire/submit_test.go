package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"contractstm/internal/workload"
)

// joinArgs packs an argument list into one fuzz string: type and value
// strings alternate, separated by NUL. splitArgs unpacks it.
func joinArgs(args []Arg) string {
	var parts []string
	for _, a := range args {
		parts = append(parts, a.Type, a.Value)
	}
	return strings.Join(parts, "\x00")
}

func splitArgs(s string) []Arg {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, "\x00")
	args := make([]Arg, 0, (len(parts)+1)/2)
	for i := 0; i < len(parts); i += 2 {
		a := Arg{Type: parts[i]}
		if i+1 < len(parts) {
			a.Value = parts[i+1]
		}
		args = append(args, a)
	}
	return args
}

// nonCanonical are submit and answer bodies encoding/json decodes (or
// refuses) but that are not in canonical form: the parsers must refuse
// every one, so each reaches encoding/json.
var nonCanonical = []string{
	``,
	`{`,
	` {"sender":"a","contract":"b","function":"f","gasLimit":1}`,
	`{"contract":"b","sender":"a","function":"f","gasLimit":1}`,
	`{"Sender":"a","contract":"b","function":"f","gasLimit":1}`,
	`{"sender":"a","contract":"b","function":"tr\u0061nsfer","gasLimit":1}`,
	`{"sender":"a","contract":"b","function":"трансфер","gasLimit":1}`,
	`{"sender":"a","contract":"b","function":"f","args":[],"gasLimit":1}`,
	`{"sender":"a","contract":"b","function":"f","args":null,"gasLimit":1}`,
	`{"sender":"a","contract":"b","function":"f","value":0,"gasLimit":1}`,
	`{"sender":"a","contract":"b","function":"f","gasLimit":01}`,
	`{"sender":"a","contract":"b","function":"f","gasLimit":1.0}`,
	`{"sender":"a","contract":"b","function":"f","gasLimit":1e3}`,
	`{"sender":"a","contract":"b","function":"f","gasLimit":-1}`,
	`{"sender":"a","contract":"b","function":"f","gasLimit":18446744073709551616}`,
	`{"sender":"a","contract":"b","function":"f","gasLimit":1,"priority":0}`,
	`{"sender":"a","contract":"b","function":"f","gasLimit":1,"priority":256}`,
	`{"sender":"a","contract":"b","function":"f","gasLimit":1}garbage`,
	`{"sender":"a","contract":"b","function":"f","gasLimit":1}{}`,
	`{"sender":"a","contract":"b","function":"f","gasLimit":1,"extra":2}`,
	`{"id":"x","poolLen":-0}`,
	`{"id":"x","poolLen":9223372036854775808}`,
	`{"id":"x","poolLen":1,"verdict":""}`,
	`{"id":"x","poolLen":1,"verdict":"admitted"} x`,
}

// FuzzSubmitJSON holds the canonical submit and answer codecs equal to
// encoding/json, from both sides:
//   - for arbitrary bytes, whenever ParseTxSubmit or ParseTxSubmitted
//     accepts, json.Unmarshal decodes the same bytes to an equal value,
//     and the writer gives the bytes back;
//   - for arbitrary field values, whenever AppendTxSubmit or
//     AppendTxSubmitted reports true, its bytes are encoding/json's, and
//     the parser reads them back.
//
// The corpus holds every call of every paper workload (through SubmitOf)
// at priorities 0, 1 and 255, and the non-canonical bodies above.
func FuzzSubmitJSON(f *testing.F) {
	for _, k := range workload.Kinds() {
		wl, err := workload.Generate(workload.Params{Kind: k, Transactions: 64, ConflictPercent: 30, Seed: 1})
		if err != nil {
			f.Fatalf("generate %v: %v", k, err)
		}
		for i, c := range wl.Calls {
			sub, err := SubmitOf(c)
			if err != nil {
				f.Fatalf("SubmitOf: %v", err)
			}
			verdict := verdicts[i%len(verdicts)]
			for _, prio := range []uint8{0, 1, 255} {
				sub.Priority = prio
				raw, _ := json.Marshal(sub)
				f.Add(raw, sub.Sender, sub.Contract, sub.Function, joinArgs(sub.Args),
					sub.Value, sub.GasLimit, prio, TxIDOf(c).String(), i, verdict)
			}
		}
	}
	for _, body := range nonCanonical {
		f.Add([]byte(body), "", "", "", "", uint64(0), uint64(0), uint8(0), "", 0, "")
	}
	f.Add([]byte("{}"), `a"b`, `<`, "\x7f", "uint64\x00é", uint64(1), uint64(1)<<63, uint8(7), `\`, -5, "\n")

	f.Fuzz(func(t *testing.T, raw []byte, sender, contractAddr, function, args string,
		value, gasLimit uint64, priority uint8, id string, poolLen int, verdict string) {
		trimmed := bytes.TrimRight(raw, " \t\r\n")
		if got, ok := ParseTxSubmit(raw); ok {
			var want TxSubmit
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatalf("ParseTxSubmit accepted %q, encoding/json: %v", raw, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ParseTxSubmit(%q) = %+v, encoding/json %+v", raw, got, want)
			}
			if back, _ := AppendTxSubmit(nil, got); !bytes.Equal(back, trimmed) {
				t.Fatalf("ParseTxSubmit accepted %q, which AppendTxSubmit writes as %q", raw, back)
			}
		}
		if got, ok := ParseTxSubmitted(raw); ok {
			var want TxSubmitted
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatalf("ParseTxSubmitted accepted %q, encoding/json: %v", raw, err)
			}
			if got != want {
				t.Fatalf("ParseTxSubmitted(%q) = %+v, encoding/json %+v", raw, got, want)
			}
			if back, _ := AppendTxSubmitted(nil, got); !bytes.Equal(back, append(trimmed, '\n')) {
				t.Fatalf("ParseTxSubmitted accepted %q, which AppendTxSubmitted writes as %q", raw, back)
			}
		}

		sub := TxSubmit{Sender: sender, Contract: contractAddr, Function: function, Args: splitArgs(args),
			Value: value, GasLimit: gasLimit, Priority: priority}
		if got, ok := AppendTxSubmit(nil, sub); ok {
			want, err := json.Marshal(sub)
			if err != nil {
				t.Fatalf("json.Marshal(%+v): %v", sub, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("AppendTxSubmit(%+v) = %s, encoding/json %s", sub, got, want)
			}
			if back, ok := ParseTxSubmit(got); !ok || !reflect.DeepEqual(back, sub) {
				t.Fatalf("ParseTxSubmit(%s) = %+v, %v; want %+v", got, back, ok, sub)
			}
		}
		ans := TxSubmitted{ID: id, PoolLen: poolLen, Verdict: verdict}
		if got, ok := AppendTxSubmitted(nil, ans); ok {
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(ans); err != nil {
				t.Fatalf("encode %+v: %v", ans, err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("AppendTxSubmitted(%+v) = %q, encoding/json %q", ans, got, want.Bytes())
			}
			if back, ok := ParseTxSubmitted(got); !ok || back != ans {
				t.Fatalf("ParseTxSubmitted(%q) = %+v, %v; want %+v", got, back, ok, ans)
			}
		}
	})
}

// TestSubmitJSONFastPath: the canonical codecs take every workload call
// and its answer (no fallback on the usual submit), and refuse every
// non-canonical body.
func TestSubmitJSONFastPath(t *testing.T) {
	for _, k := range workload.Kinds() {
		wl, err := workload.Generate(workload.Params{Kind: k, Transactions: 64, ConflictPercent: 30, Seed: 1})
		if err != nil {
			t.Fatalf("generate %v: %v", k, err)
		}
		for _, c := range wl.Calls {
			sub, err := SubmitOf(c)
			if err != nil {
				t.Fatalf("SubmitOf: %v", err)
			}
			raw, ok := AppendTxSubmit(nil, sub)
			if !ok {
				t.Fatalf("AppendTxSubmit refused %+v", sub)
			}
			if _, ok := ParseTxSubmit(raw); !ok {
				t.Fatalf("ParseTxSubmit refused %s", raw)
			}
			ans, ok := AppendTxSubmitted(nil, TxSubmitted{ID: TxIDOf(c).String(), PoolLen: 3, Verdict: "admitted"})
			if !ok {
				t.Fatal("AppendTxSubmitted refused a usual answer")
			}
			if _, ok := ParseTxSubmitted(ans); !ok {
				t.Fatalf("ParseTxSubmitted refused %q", ans)
			}
		}
	}
	for _, body := range nonCanonical {
		if _, ok := ParseTxSubmit([]byte(body)); ok {
			t.Errorf("ParseTxSubmit accepted %q", body)
		}
		if _, ok := ParseTxSubmitted([]byte(body)); ok {
			t.Errorf("ParseTxSubmitted accepted %q", body)
		}
	}
}
