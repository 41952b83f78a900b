package wire

import (
	"encoding/hex"
	"encoding/json"
	"strconv"

	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/types"
)

// BlockRecord is a durable block as the client API serves it: its
// summary, its calls' transaction IDs, its execution receipts and each
// call's position in the serial order S. The node builds one per durable
// block (RecordOf) and never changes it afterwards; the receipt index,
// the event broker's replay ring and every subscriber share it. Nothing
// in it is rendered: hex and JSON are produced from it only when bytes
// leave the node (ReceiptRef.AppendJSON, AppendEvent).
type BlockRecord struct {
	Number                                    uint64
	Hash, ParentHash, StateRoot, ScheduleHash types.Hash
	Edges                                     int
	// IDs are the calls' transaction IDs, indexed by TxID.
	IDs []types.Hash
	// Receipts are the block's own execution receipts, indexed by TxID.
	Receipts []contract.Receipt
	// SchedPos[i] is call i's position in the published serial order S.
	SchedPos []int32
}

// RecordOf builds the record of a (durable) block. ids are the calls'
// transaction IDs (chain.TxLeavesOf), which whoever sealed or prechecked
// the block holds; the record keeps them and the block's receipts
// without copying.
func RecordOf(b chain.Block, ids []types.Hash) *BlockRecord {
	pos := make([]int32, len(b.Calls))
	for p, tx := range b.Schedule.Order {
		if int(tx) < len(pos) {
			pos[int(tx)] = int32(p)
		}
	}
	h := b.Header
	return &BlockRecord{
		Number:       h.Number,
		Hash:         h.Hash(),
		ParentHash:   h.ParentHash,
		StateRoot:    h.StateRoot,
		ScheduleHash: h.ScheduleHash,
		Edges:        len(b.Schedule.Edges),
		IDs:          ids[:len(b.Calls)],
		Receipts:     b.Receipts,
		SchedPos:     pos,
	}
}

// Ref points at call i's receipt in the record.
func (r *BlockRecord) Ref(i int) ReceiptRef {
	return ReceiptRef{ID: r.IDs[i], Block: r, Tx: int32(i)}
}

// ReceiptsOf derives the wire receipts of a (durable) block: one per
// call, schedule positions read off the published serial order S. ids
// are the calls' transaction IDs (chain.TxLeavesOf).
func ReceiptsOf(b chain.Block, ids []types.Hash) []TxReceipt {
	r := RecordOf(b, ids)
	out := make([]TxReceipt, len(r.IDs))
	for i := range out {
		out[i] = r.Ref(i).Receipt()
	}
	return out
}

// ReceiptRef is one transaction's receipt as the node indexes it: the
// ID, and either the durable block record holding its outcome or, with
// Block nil, a pending or evicted marker.
type ReceiptRef struct {
	ID    types.Hash
	Block *BlockRecord
	// Tx is the call's index in Block.
	Tx int32
	// Evicted marks, with Block nil, a submission dropped from the
	// mempool; otherwise Block nil means pending.
	Evicted bool
}

// Status is the receipt's wire status.
func (r ReceiptRef) Status() string {
	switch {
	case r.Block != nil:
		if int(r.Tx) < len(r.Block.Receipts) && r.Block.Receipts[r.Tx].Reverted {
			return StatusAborted
		}
		return StatusCommitted
	case r.Evicted:
		return StatusEvicted
	default:
		return StatusPending
	}
}

// Receipt renders the receipt as its DTO. A pending marker carries
// TxIndex and ScheduleIndex -1; an evicted one carries no block fields.
func (r ReceiptRef) Receipt() TxReceipt {
	out := TxReceipt{ID: r.ID.String(), Status: r.Status()}
	switch {
	case r.Block != nil:
		b, i := r.Block, int(r.Tx)
		out.BlockHeight = b.Number
		out.BlockHash = b.Hash.String()
		out.TxIndex = i
		out.ScheduleIndex = int(b.SchedPos[i])
		if i < len(b.Receipts) {
			out.GasUsed = uint64(b.Receipts[i].GasUsed)
			if b.Receipts[i].Reverted {
				out.AbortReason = b.Receipts[i].Reason
			}
		}
	case !r.Evicted:
		out.TxIndex, out.ScheduleIndex = -1, -1
	}
	return out
}

// AppendJSON appends the receipt's JSON encoding to dst: the bytes
// encoding/json writes for r.Receipt(), rendered without building it.
func (r ReceiptRef) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"id":`...)
	dst = appendHash(dst, r.ID)
	dst = append(dst, `,"status":"`...)
	dst = append(dst, r.Status()...)
	dst = append(dst, '"')
	if r.Block == nil {
		if r.Evicted {
			return append(dst, `,"txIndex":0,"scheduleIndex":0}`...)
		}
		return append(dst, `,"txIndex":-1,"scheduleIndex":-1}`...)
	}
	b, i := r.Block, int(r.Tx)
	if i < len(b.Receipts) {
		rc := &b.Receipts[i]
		if rc.GasUsed != 0 {
			dst = append(dst, `,"gasUsed":`...)
			dst = strconv.AppendUint(dst, uint64(rc.GasUsed), 10)
		}
		if rc.Reverted && rc.Reason != "" {
			dst = append(dst, `,"abortReason":`...)
			dst = appendString(dst, rc.Reason)
		}
	}
	if b.Number != 0 {
		dst = append(dst, `,"blockHeight":`...)
		dst = strconv.AppendUint(dst, b.Number, 10)
	}
	dst = append(dst, `,"blockHash":`...)
	dst = appendHash(dst, b.Hash)
	dst = append(dst, `,"txIndex":`...)
	dst = strconv.AppendInt(dst, int64(i), 10)
	dst = append(dst, `,"scheduleIndex":`...)
	dst = strconv.AppendInt(dst, int64(b.SchedPos[i]), 10)
	return append(dst, '}')
}

// AppendEvent appends the JSON encoding of the event-stream entry for a
// durable block under sequence number seq: the bytes encoding/json
// writes for the Event carrying the block's BlockInfo and receipts,
// rendered without building either. With flush set, whenever dst has
// grown past limit bytes after a receipt, dst goes to flush and
// rendering continues into dst[:0], so a writer need not hold the whole
// entry; everything flushed followed by the returned dst is the entry.
// A flush error stops the rendering.
func AppendEvent(dst []byte, seq uint64, r *BlockRecord, limit int, flush func([]byte) error) ([]byte, error) {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, `,"block":{"number":`...)
	dst = strconv.AppendUint(dst, r.Number, 10)
	dst = append(dst, `,"hash":`...)
	dst = appendHash(dst, r.Hash)
	dst = append(dst, `,"parentHash":`...)
	dst = appendHash(dst, r.ParentHash)
	dst = append(dst, `,"stateRoot":`...)
	dst = appendHash(dst, r.StateRoot)
	dst = append(dst, `,"txCount":`...)
	dst = strconv.AppendInt(dst, int64(len(r.IDs)), 10)
	dst = append(dst, `,"edges":`...)
	dst = strconv.AppendInt(dst, int64(r.Edges), 10)
	dst = append(dst, `,"scheduleHash":`...)
	dst = appendHash(dst, r.ScheduleHash)
	dst = append(dst, '}')
	if len(r.IDs) > 0 {
		dst = append(dst, `,"receipts":[`...)
		for i := range r.IDs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = r.Ref(i).AppendJSON(dst)
			if flush != nil && len(dst) > limit {
				if err := flush(dst); err != nil {
					return dst[:0], err
				}
				dst = dst[:0]
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// appendHash appends h as a quoted 0x-prefixed hex JSON string, the
// encoding of h.String().
func appendHash(dst []byte, h types.Hash) []byte {
	dst = append(dst, `"0x`...)
	dst = hex.AppendEncode(dst, h[:])
	return append(dst, '"')
}

// appendString appends s as a JSON string. Printable ASCII that
// encoding/json leaves alone is copied as is; anything else — quotes,
// backslashes, <>&, control bytes, non-ASCII — goes through
// encoding/json itself, so the escaping is exactly its own.
func appendString(dst []byte, s string) []byte {
	if !plain(s) {
		enc, _ := json.Marshal(s) // a string always encodes
		return append(dst, enc...)
	}
	return appendQuoted(dst, s)
}
