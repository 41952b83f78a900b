package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/gas"
	"contractstm/internal/sched"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

// eventReasons are abort reasons for the records below: plain ones, the
// empty one (left out of the JSON), and ones encoding/json escapes.
var eventReasons = []string{"insufficient funds", "", "out of gas", `say "no"`, "a < b", "tab\there"}

// workloadRecords builds one durable-block record per paper workload:
// every call of a 64-transaction workload, every third reverted with a
// reason from reasons, the serial order reversed. The first record is
// at height 0, whose receipts carry no blockHeight.
func workloadRecords(tb testing.TB, reasons []string) []*BlockRecord {
	tb.Helper()
	var out []*BlockRecord
	for k, kind := range workload.Kinds() {
		wl, err := workload.Generate(workload.Params{Kind: kind, Transactions: 64, ConflictPercent: 30, Seed: 1})
		if err != nil {
			tb.Fatalf("generate %v: %v", kind, err)
		}
		n := len(wl.Calls)
		ids := make([]types.Hash, n)
		receipts := make([]contract.Receipt, n)
		order := make([]types.TxID, n)
		for i, c := range wl.Calls {
			ids[i] = TxIDOf(c)
			receipts[i] = contract.Receipt{Tx: types.TxID(i), GasUsed: gas.Gas(i * 1000)}
			if i%3 == 1 {
				receipts[i].Reverted = true
				receipts[i].Reason = reasons[i%len(reasons)]
			}
			order[n-1-i] = types.TxID(i)
		}
		h := chain.Header{
			Number:       uint64(k),
			ParentHash:   types.HashString("parent"),
			StateRoot:    types.HashString("state"),
			ScheduleHash: types.HashString("schedule"),
		}
		b := chain.Block{Header: h, Calls: wl.Calls, Receipts: receipts,
			Schedule: sched.Schedule{Order: order, Edges: []sched.Edge{{From: order[0], To: order[1]}}}}
		out = append(out, RecordOf(b, ids))
	}
	return out
}

// eventOf is the Event DTO of a record under seq: what AppendEvent
// writes the encoding/json bytes of.
func eventOf(seq uint64, r *BlockRecord) Event {
	ev := Event{Seq: seq, Block: BlockInfo{
		Number: r.Number, Hash: r.Hash.String(), ParentHash: r.ParentHash.String(),
		StateRoot: r.StateRoot.String(), TxCount: len(r.IDs), Edges: r.Edges,
		ScheduleHash: r.ScheduleHash.String(),
	}}
	for i := range r.IDs {
		ev.Receipts = append(ev.Receipts, r.Ref(i).Receipt())
	}
	return ev
}

// canonicalEvent is a short event in canonical form; nonCanonicalEvents
// are bodies encoding/json decodes (or refuses) that are not.
const canonicalEvent = `{"seq":1,"block":{"number":2,"hash":"h","parentHash":"p","stateRoot":"s","txCount":1,"edges":0,"scheduleHash":"x"},` +
	`"receipts":[{"id":"i","status":"committed","gasUsed":5,"blockHeight":2,"blockHash":"h","txIndex":0,"scheduleIndex":0}]}`

var nonCanonicalEvents = func() []string {
	edits := [][2]string{
		{`{"seq":1,"block":{"number":2,"hash":"h","parentHash":"p","stateRoot":"s","txCount":1,"edges":0,"scheduleHash":"x"},`,
			`{"block":{"number":2,"hash":"h","parentHash":"p","stateRoot":"s","txCount":1,"edges":0,"scheduleHash":"x"},"seq":1,`},
		{`"id":"i","status":"committed"`, `"status":"committed","id":"i"`},
		{`"scheduleIndex":0}]}`, `"scheduleIndex":0}],"extra":1}`},
		{`"scheduleIndex":0}]}`, `"scheduleIndex":0,"extra":1}]}`},
		{`"gasUsed":5,`, `"gasUsed":5,"abortReason":"say \"no\"",`},
		{`"gasUsed":5,`, `"gasUsed":5,"abortReason":"",`},
		{`"scheduleHash":"x"}`, `"scheduleHash":"x","alreadyKnown":true}`},
		{`"scheduleHash":"x"}`, `"scheduleHash":"x","alreadyKnown":false}`},
		{`"receipts":[{"id":"i","status":"committed","gasUsed":5,"blockHeight":2,"blockHash":"h","txIndex":0,"scheduleIndex":0}]`, `"receipts":[]`},
		{`"receipts":[{"id":"i","status":"committed","gasUsed":5,"blockHeight":2,"blockHash":"h","txIndex":0,"scheduleIndex":0}]`, `"receipts":null`},
		{`"gasUsed":5`, `"gasUsed":0`},
		{`"blockHeight":2`, `"blockHeight":0`},
		{`"blockHash":"h"`, `"blockHash":""`},
		{`"blockHash":"h"`, `"blockHash":null`},
		{`"seq":1`, `"seq":01`},
		{`"seq":1`, `"seq":-1`},
		{`"seq":1`, `"seq":18446744073709551616`},
		{`"txCount":1`, `"txCount":-0`},
		{`"edges":0`, `"edges":0.0`},
		{`"edges":0`, `"edges":1e2`},
		{`"txIndex":0`, `"txIndex":-0`},
		{`"hash":"h"`, `"hash":"\u0068"`},
		{`"hash":"h"`, `"hash":"ĥ"`},
		{`"hash":"h"`, `"hash" : "h"`},
		{`,"scheduleIndex":0`, ``},
		{`{"seq"`, ` {"seq"`},
		{`}]}`, `}]} x`},
		{`}]}`, `}]}{}`},
	}
	out := []string{``, `{}`, `null`, `{"seq":1}`}
	for _, e := range edits {
		if !strings.Contains(canonicalEvent, e[0]) {
			panic("edit does not apply: " + e[0])
		}
		out = append(out, strings.Replace(canonicalEvent, e[0], e[1], 1))
	}
	return out
}()

// FuzzEventJSON holds ParseEvent and ParseTxReceipt to encoding/json,
// from both sides:
//   - for arbitrary bytes, whenever either parser accepts, json.Unmarshal
//     decodes the same bytes to an equal value, and json.Marshal gives
//     the bytes back;
//   - for arbitrary field values, the event AppendEvent writes for a
//     record, and the bytes json.Marshal writes for a receipt, are
//     accepted whenever their strings are plain, and decode to the DTO.
//
// The corpus holds AppendEvent's entry for a record of every paper
// workload, each of its receipts, and the non-canonical bodies above.
func FuzzEventJSON(f *testing.F) {
	for i, r := range workloadRecords(f, eventReasons) {
		raw, _ := AppendEvent(nil, uint64(i), r, 0, nil)
		f.Add(raw, uint64(i), r.Number, uint64(0), uint8(len(r.IDs)), "", StatusCommitted, 0, 0)
		for j := range r.IDs {
			rc := r.Ref(j).Receipt()
			f.Add(r.Ref(j).AppendJSON(nil), uint64(j), rc.BlockHeight, rc.GasUsed, uint8(j),
				rc.AbortReason, rc.Status, rc.TxIndex, rc.ScheduleIndex)
		}
	}
	for _, body := range nonCanonicalEvents {
		f.Add([]byte(body), uint64(0), uint64(0), uint64(0), uint8(0), "", "", 0, 0)
	}
	f.Add([]byte(canonicalEvent), uint64(math.MaxUint64), uint64(1), uint64(1), uint8(3), `a"b`, "pending", -1, -1)

	f.Fuzz(func(t *testing.T, raw []byte, seq, number, gasUsed uint64, n uint8, reason, status string, txIndex, schedIndex int) {
		trimmed := bytes.TrimRight(raw, " \t\r\n")
		if got, ok := ParseEvent(raw); ok {
			var want Event
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatalf("ParseEvent accepted %q, encoding/json: %v", raw, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ParseEvent(%q) = %+v, encoding/json %+v", raw, got, want)
			}
			if back, _ := json.Marshal(got); !bytes.Equal(back, trimmed) {
				t.Fatalf("ParseEvent accepted %q, which encoding/json writes as %q", raw, back)
			}
		}
		if got, ok := ParseTxReceipt(raw); ok {
			var want TxReceipt
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatalf("ParseTxReceipt accepted %q, encoding/json: %v", raw, err)
			}
			if got != want {
				t.Fatalf("ParseTxReceipt(%q) = %+v, encoding/json %+v", raw, got, want)
			}
			if back, _ := json.Marshal(got); !bytes.Equal(back, trimmed) {
				t.Fatalf("ParseTxReceipt accepted %q, which encoding/json writes as %q", raw, back)
			}
		}

		// A record of n%8 receipts, the odd ones reverted with reason.
		rec := &BlockRecord{Number: number, Hash: types.HashString("h" + reason), Edges: int(n) % 3,
			ParentHash: types.HashString("p"), StateRoot: types.HashString("s"), ScheduleHash: types.HashString("x")}
		for i := 0; i < int(n%8); i++ {
			rec.IDs = append(rec.IDs, types.HashString(status+string(rune('a'+i))))
			rc := contract.Receipt{Tx: types.TxID(i), GasUsed: gas.Gas(gasUsed >> i)}
			if i%2 == 1 {
				rc.Reverted, rc.Reason = true, reason
			}
			rec.Receipts = append(rec.Receipts, rc)
			rec.SchedPos = append(rec.SchedPos, int32(int(n%8)-1-i))
		}
		raw, _ = AppendEvent(nil, seq, rec, 0, nil)
		got, ok := ParseEvent(raw)
		if !ok && plain(reason) {
			t.Fatalf("ParseEvent refused AppendEvent's %q", raw)
		}
		if ok && !reflect.DeepEqual(got, eventOf(seq, rec)) {
			t.Fatalf("ParseEvent(%q) = %+v, want %+v", raw, got, eventOf(seq, rec))
		}

		dto := TxReceipt{ID: types.HashString(status).String(), Status: status, GasUsed: gasUsed, AbortReason: reason,
			BlockHeight: number, BlockHash: rec.Hash.String(), TxIndex: txIndex, ScheduleIndex: schedIndex}
		raw, _ = json.Marshal(dto)
		back, ok := ParseTxReceipt(raw)
		if !ok && plain(status) && plain(reason) {
			t.Fatalf("ParseTxReceipt refused encoding/json's %q", raw)
		}
		if ok && back != dto {
			t.Fatalf("ParseTxReceipt(%q) = %+v, want %+v", raw, back, dto)
		}
	})
}

// TestEventJSONFastPath: ParseEvent takes AppendEvent's entry for every
// paper workload's record whose strings are plain and refuses the rest;
// ParseTxReceipt takes every plain receipt AppendJSON writes, pending
// and evicted marks included; both refuse every non-canonical body; and
// what they take decodes as encoding/json decodes it.
func TestEventJSONFastPath(t *testing.T) {
	for _, reasons := range [][]string{eventReasons[:3], eventReasons} {
		for seq, r := range workloadRecords(t, reasons) {
			raw, _ := AppendEvent(nil, uint64(seq), r, 0, nil)
			allPlain := true
			for _, rc := range r.Receipts {
				allPlain = allPlain && plain(rc.Reason)
			}
			ev, ok := ParseEvent(raw)
			if ok != allPlain {
				t.Fatalf("record %d (plain reasons %v): ParseEvent ok = %v", seq, allPlain, ok)
			}
			if ok {
				var want Event
				if err := json.Unmarshal(raw, &want); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ev, want) || !reflect.DeepEqual(ev, eventOf(uint64(seq), r)) {
					t.Fatalf("record %d: ParseEvent differs from encoding/json", seq)
				}
				for i, rc := range ev.Receipts {
					if rc.BlockHash != ev.Block.Hash || unsafe.StringData(rc.BlockHash) != unsafe.StringData(ev.Block.Hash) {
						t.Fatalf("record %d receipt %d: block hash not shared with the event's", seq, i)
					}
				}
			}
			for i := range r.IDs {
				refs := []ReceiptRef{r.Ref(i), {ID: r.IDs[i]}, {ID: r.IDs[i], Evicted: true}}
				for _, ref := range refs {
					raw := append(ref.AppendJSON(nil), '\n')
					got, ok := ParseTxReceipt(raw)
					if want := ref.Receipt(); ok != plain(want.AbortReason) || (ok && got != want) {
						t.Fatalf("ParseTxReceipt(%q) = %+v, %v; want %+v", raw, got, ok, want)
					}
				}
			}
		}
	}
	if _, ok := ParseEvent([]byte(canonicalEvent)); !ok {
		t.Fatalf("ParseEvent refused %s", canonicalEvent)
	}
	for _, body := range nonCanonicalEvents {
		if _, ok := ParseEvent([]byte(body)); ok {
			t.Errorf("ParseEvent accepted %q", body)
		}
	}
	for _, body := range append(nonCanonicalEvents, nonCanonical...) {
		if _, ok := ParseTxReceipt([]byte(body)); ok {
			t.Errorf("ParseTxReceipt accepted %q", body)
		}
	}
}

// TestParseEventBoundsTxCount: a txCount far above the receipts sent
// does not size the receipt slice; the bytes that follow it do.
func TestParseEventBoundsTxCount(t *testing.T) {
	raw := []byte(strings.Replace(canonicalEvent, `"txCount":1`, `"txCount":9223372036854775807`, 1))
	ev, ok := ParseEvent(raw)
	if !ok || len(ev.Receipts) != 1 {
		t.Fatalf("ParseEvent = %d receipts, %v", len(ev.Receipts), ok)
	}
	if limit := len(raw)/minReceiptJSON + 1; cap(ev.Receipts) > limit {
		t.Fatalf("cap(Receipts) = %d for a %d-byte event, want at most %d", cap(ev.Receipts), len(raw), limit)
	}
}
