package wire

import "math"

// The canonical JSON of an event-stream entry is what AppendEvent
// writes: encoding/json's form of Event with BlockInfo.AlreadyKnown,
// which only POST /v1/blocks reports, left out. A receipt's canonical
// JSON is encoding/json's form of TxReceipt, which ReceiptRef.AppendJSON
// writes. ParseEvent and ParseTxReceipt read back only those forms,
// under the submit parsers' rules (submit.go): keys in field order,
// omitempty fields left out when zero, plain strings, integers with no
// leading zero and in range, optional trailing whitespace. A caller
// that gets false uses encoding/json over the same bytes.

// statuses are the receipt statuses a parsed status is interned as.
var statuses = []string{StatusCommitted, StatusAborted, StatusPending, StatusEvicted}

// minReceiptJSON is the length of the shortest receipt ParseTxReceipt
// accepts plus the comma or bracket that ends it: no event has more
// receipts than its remaining bytes over this.
const minReceiptJSON = len(`{"id":"","status":"","txIndex":0,"scheduleIndex":0},`)

// ParseEvent reads an event-stream entry in canonical form; false means
// b is not in that form (it may still be valid JSON for encoding/json).
// Every receipt's block hash equal to the event's shares its string, an
// abort reason equal to the one before shares that one's, and a known
// status is the Status constant itself.
func ParseEvent(b []byte) (Event, bool) {
	p := parser{b: b, ok: true}
	var ev Event
	p.lit(`{"seq":`)
	ev.Seq = p.uint(math.MaxUint64)
	p.lit(`,"block":{"number":`)
	ev.Block.Number = p.uint(math.MaxUint64)
	p.lit(`,"hash":`)
	ev.Block.Hash = p.str(nil)
	p.lit(`,"parentHash":`)
	ev.Block.ParentHash = p.str(nil)
	p.lit(`,"stateRoot":`)
	ev.Block.StateRoot = p.str(nil)
	p.lit(`,"txCount":`)
	ev.Block.TxCount = p.int()
	p.lit(`,"edges":`)
	ev.Block.Edges = p.int()
	p.lit(`,"scheduleHash":`)
	ev.Block.ScheduleHash = p.str(nil)
	p.lit(`}`)
	if p.skip(`,"receipts":[`) {
		// txCount is the sender's word: what the rest of b can hold bounds it.
		ev.Receipts = make([]TxReceipt, 0, max(1, min(ev.Block.TxCount, (len(b)-p.i)/minReceiptJSON)))
		known := [2]string{ev.Block.Hash}
		for p.ok {
			r := p.receipt(known[:])
			if r.AbortReason != "" {
				known[1] = r.AbortReason
			}
			ev.Receipts = append(ev.Receipts, r)
			if !p.skip(`,`) {
				break
			}
		}
		p.lit(`]`)
	}
	p.lit(`}`)
	if !p.end() {
		return Event{}, false
	}
	return ev, true
}

// ParseTxReceipt reads a receipt (GET /v1/tx/{id}) in canonical form;
// false means b is not in that form.
func ParseTxReceipt(b []byte) (TxReceipt, bool) {
	p := parser{b: b, ok: true}
	r := p.receipt(nil)
	if !p.end() {
		return TxReceipt{}, false
	}
	return r, true
}

// receipt consumes one receipt. An abort reason or block hash equal to
// one of known is returned as that string.
func (p *parser) receipt(known []string) TxReceipt {
	var r TxReceipt
	p.lit(`{"id":`)
	r.ID = p.str(nil)
	p.lit(`,"status":`)
	r.Status = p.str(statuses)
	if p.skip(`,"gasUsed":`) {
		r.GasUsed = p.nonzero(p.uint(math.MaxUint64))
	}
	if p.skip(`,"abortReason":`) {
		r.AbortReason = p.nonempty(p.str(known))
	}
	if p.skip(`,"blockHeight":`) {
		r.BlockHeight = p.nonzero(p.uint(math.MaxUint64))
	}
	if p.skip(`,"blockHash":`) {
		r.BlockHash = p.nonempty(p.str(known))
	}
	p.lit(`,"txIndex":`)
	r.TxIndex = p.int()
	p.lit(`,"scheduleIndex":`)
	r.ScheduleIndex = p.int()
	p.lit(`}`)
	return r
}
