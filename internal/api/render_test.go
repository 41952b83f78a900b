package api

import (
	"bufio"
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"contractstm/internal/api/wire"
	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/gas"
	"contractstm/internal/sched"
	"contractstm/internal/types"
)

// nastyReasons are abort reasons encoding/json has to escape, or must
// leave alone, each in its own way.
var nastyReasons = []string{
	"insufficient funds",
	"",
	`say "no"`,
	`C:\path\`,
	"a < b",
	"c > d",
	"Q&A",
	"<script>&amp;</script>",
	"line\u2028para\u2029end",
	"ctl \x00\x01\x08\x0c\x1f\x7f end",
	"tab\tcr\rnl\n",
	"bad utf8 \xff\xfe\xc3 end",
	"héllo wörld 漢字 🙂",
}

// renderedBlocks seals n blocks on one chain — the second empty, the
// third of 300 calls (an event the SSE writer sends in several chunks),
// the rest of up to 40 — every fifth call a byte-for-byte repeat of an
// earlier one, with committed and aborted receipts (aborts carrying
// nastyReasons) and a shuffled serial order. ids[i] are block i's tx
// leaves.
func renderedBlocks(rng *rand.Rand, n int) (blocks []chain.Block, ids [][]types.Hash) {
	parent := chain.GenesisHeader(types.HashString("render-genesis"))
	var seen []contract.Call
	for b := 0; b < n; b++ {
		size := rng.Intn(41)
		switch b {
		case 1:
			size = 0
		case 2:
			size = 300
		}
		calls := make([]contract.Call, size)
		receipts := make([]contract.Receipt, size)
		for i := range calls {
			if len(seen) > 0 && rng.Intn(5) == 0 {
				calls[i] = seen[rng.Intn(len(seen))]
			} else {
				calls[i] = contract.Call{
					Sender:   types.AddressFromUint64(uint64(1 + rng.Intn(50))),
					Contract: types.AddressFromUint64(1000),
					Function: "transfer",
					Args:     []any{uint64(rng.Int63()), uint64(i)},
					GasLimit: 100_000,
				}
				seen = append(seen, calls[i])
			}
			receipts[i] = contract.Receipt{Tx: types.TxID(i), GasUsed: gas.Gas(rng.Intn(3) * rng.Intn(50_000))}
			if rng.Intn(3) == 0 {
				receipts[i].Reverted = true
				receipts[i].Reason = nastyReasons[rng.Intn(len(nastyReasons))]
			}
		}
		order := make([]types.TxID, size)
		for i, p := range rng.Perm(size) {
			order[i] = types.TxID(p)
		}
		s := sched.Schedule{Order: order}
		for i := 0; i+1 < size && i < 3; i++ {
			s.Edges = append(s.Edges, sched.Edge{From: order[i], To: order[i+1]})
		}
		blk, leaves := chain.Seal(parent, calls, receipts, s, nil, types.HashString(fmt.Sprintf("post-%d", b)))
		blocks, ids = append(blocks, blk), append(ids, leaves)
		parent = blk.Header
	}
	return blocks, ids
}

// oracleReceipts is the receipt derivation the node used while it kept
// rendered receipts: the DTOs whose encoding/json bytes the renderer
// must reproduce.
func oracleReceipts(b chain.Block, ids []types.Hash) []wire.TxReceipt {
	schedPos := make([]int, len(b.Calls))
	for pos, tx := range b.Schedule.Order {
		if int(tx) < len(schedPos) {
			schedPos[int(tx)] = pos
		}
	}
	hash := b.Header.Hash().String()
	out := make([]wire.TxReceipt, len(b.Calls))
	for i := range b.Calls {
		r := wire.TxReceipt{
			ID:            ids[i].String(),
			Status:        wire.StatusCommitted,
			BlockHeight:   b.Header.Number,
			BlockHash:     hash,
			TxIndex:       i,
			ScheduleIndex: schedPos[i],
		}
		if i < len(b.Receipts) {
			r.GasUsed = uint64(b.Receipts[i].GasUsed)
			if b.Receipts[i].Reverted {
				r.Status = wire.StatusAborted
				r.AbortReason = b.Receipts[i].Reason
			}
		}
		out[i] = r
	}
	return out
}

// oracleStore is the list-based receipt index the node used while it
// kept rendered receipts: its contents and its least-recently-written
// eviction are what ReceiptStore must reproduce.
type oracleStore struct {
	cap     int
	entries map[types.Hash]*list.Element
	lru     *list.List
}

type oracleEntry struct {
	id types.Hash
	r  wire.TxReceipt
}

func newOracleStore(capacity int) *oracleStore {
	return &oracleStore{cap: capacity, entries: map[types.Hash]*list.Element{}, lru: list.New()}
}

// markPending overwrites a pending or evicted entry: a transaction
// admitted again after an eviction reads "pending".
func (s *oracleStore) markPending(id types.Hash) {
	if el, ok := s.entries[id]; ok {
		if e := el.Value.(*oracleEntry); e.r.Status == wire.StatusPending || e.r.Status == wire.StatusEvicted {
			e.r = wire.TxReceipt{ID: id.String(), Status: wire.StatusPending, TxIndex: -1, ScheduleIndex: -1}
			s.lru.MoveToFront(el)
		}
		return
	}
	s.put(id, wire.TxReceipt{ID: id.String(), Status: wire.StatusPending, TxIndex: -1, ScheduleIndex: -1})
}

func (s *oracleStore) record(id types.Hash, r wire.TxReceipt) {
	if el, ok := s.entries[id]; ok {
		el.Value.(*oracleEntry).r = r
		s.lru.MoveToFront(el)
		return
	}
	s.put(id, r)
}

func (s *oracleStore) put(id types.Hash, r wire.TxReceipt) {
	s.entries[id] = s.lru.PushFront(&oracleEntry{id: id, r: r})
	for s.lru.Len() > s.cap {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.entries, oldest.Value.(*oracleEntry).id)
	}
}

// stampOnly is the one Backend method the receipt and event routes use.
type stampOnly struct{ Backend }

func (stampOnly) ReadStamp() (uint64, int64) { return 7, 0 }

// sameBytes fails t at the first byte where got departs from want.
func sameBytes(t *testing.T, label string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-40)
	t.Fatalf("%s: byte %d differs\n got: %q\nwant: %q", label, i, got[lo:min(len(got), i+40)], want[lo:min(len(want), i+40)])
}

// TestReceiptBodiesMatchEncodingJSON: over generated blocks, with
// pending and evicted markers interleaved and a capacity that evicts,
// every GET /v1/tx/{id} answer — status, and body byte for byte — is
// what the list-based index holding encoding/json-rendered receipts
// answered.
func TestReceiptBodiesMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	blocks, ids := renderedBlocks(rng, 24)
	const capacity = 150
	store, oracle := NewReceiptStore(capacity), newOracleStore(capacity)
	srv := httptest.NewServer(NewServer(Config{Backend: stampOnly{}, Receipts: store}))
	defer srv.Close()

	var touched []types.Hash
	for b, blk := range blocks {
		// Submissions ahead of the block: its own calls pending, a few
		// strangers pending, some of those then evicted.
		for _, id := range ids[b] {
			store.MarkPending(id)
			oracle.markPending(id)
		}
		for k := 0; k < 6; k++ {
			id := types.HashString(fmt.Sprintf("stranger-%d-%d", b, k))
			store.MarkPending(id)
			oracle.markPending(id)
			if k%2 == 0 {
				store.MarkEvicted(id)
				oracle.record(id, wire.TxReceipt{ID: id.String(), Status: wire.StatusEvicted})
			}
			touched = append(touched, id)
		}
		store.RecordBlock(wire.RecordOf(blk, ids[b]))
		for i, rc := range oracleReceipts(blk, ids[b]) {
			oracle.record(ids[b][i], rc)
		}
		touched = append(touched, ids[b]...)
	}
	if store.Len() != oracle.lru.Len() {
		t.Fatalf("store holds %d entries, the list-based index %d", store.Len(), oracle.lru.Len())
	}

	statuses := map[string]int{}
	for _, id := range touched {
		resp, err := http.Get(srv.URL + "/v1/tx/" + id.String())
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		el, ok := oracle.entries[id]
		if !ok {
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("%s: evicted from the index, answered %d %s", id.Short(), resp.StatusCode, body)
			}
			statuses["not found"]++
			continue
		}
		want := el.Value.(*oracleEntry).r
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(want); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s: answered %d %q", id.Short(), resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		sameBytes(t, "GET /v1/tx/"+id.Short(), body, buf.Bytes())
		statuses[want.Status]++
	}
	t.Logf("compared: %v", statuses)
	for _, s := range []string{wire.StatusPending, wire.StatusEvicted, wire.StatusCommitted, wire.StatusAborted, "not found"} {
		if statuses[s] == 0 {
			t.Errorf("no %s receipt compared", s)
		}
	}
}

// TestSubscribeFramesMatchEncodingJSON: every SSE frame — live, and
// replayed after Last-Event-ID, whole or past the ring — is byte for
// byte the frame encoding/json made of the wire.Event the node used to
// publish.
func TestSubscribeFramesMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	blocks, ids := renderedBlocks(rng, 12)
	const depth = 8
	broker := NewBrokerRetaining(depth)
	srv := httptest.NewServer(NewServer(Config{Backend: stampOnly{}, Receipts: NewReceiptStore(0), Events: broker}))
	defer srv.Close()

	frame := func(seq int) []byte {
		blk := blocks[seq]
		data, err := json.Marshal(wire.Event{Seq: uint64(seq), Block: wire.BlockInfoOf(blk), Receipts: oracleReceipts(blk, ids[seq])})
		if err != nil {
			t.Fatal(err)
		}
		return []byte(fmt.Sprintf("id: %d\nevent: block\ndata: %s\n\n", seq, data))
	}
	open := func(lastID string) (*bufio.Reader, context.CancelFunc) {
		// A frame shorter than expected fails at the deadline, not by
		// hanging the read.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/subscribe", nil)
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("subscribe: %v", err)
		}
		go func() { <-ctx.Done(); resp.Body.Close() }()
		return bufio.NewReader(resp.Body), cancel
	}
	expect := func(label string, r *bufio.Reader, want []byte) {
		t.Helper()
		got := make([]byte, len(want))
		if _, err := io.ReadFull(r, got); err != nil {
			t.Fatalf("%s: read: %v", label, err)
		}
		sameBytes(t, label, got, want)
	}

	live, stop := open("")
	defer stop()
	expect("live", live, []byte(": subscribed\n\n"))
	for seq := range blocks {
		broker.Publish(wire.RecordOf(blocks[seq], ids[seq]))
		expect("live frame "+strconv.Itoa(seq), live, frame(seq))
	}

	// A reconnect inside the ring replays the tail.
	tail, stopTail := open(strconv.Itoa(len(blocks) - 3))
	defer stopTail()
	want := []byte(": subscribed\n\n")
	for seq := len(blocks) - 2; seq < len(blocks); seq++ {
		want = append(want, frame(seq)...)
	}
	expect("replayed tail", tail, want)

	// One past the ring gets the reset, then what the ring holds.
	reset, stopReset := open("0")
	defer stopReset()
	want = []byte(": subscribed\n\nevent: reset\ndata: {}\n\n")
	for seq := len(blocks) - depth; seq < len(blocks); seq++ {
		want = append(want, frame(seq)...)
	}
	expect("reset replay", reset, want)
}

// TestReceiptStoreMatchesListStore drives the store and the list-based
// index through the same random pending, evicted and block writes over
// a small ID pool — overwrites, repeats inside a block, eviction at every
// step — at capacities down to one, where the ID table's probe runs wrap
// and collide: both hold as many entries after every write, and the same
// ones after every eighth.
func TestReceiptStoreMatchesListStore(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, capacity := range []int{1, 2, 3, 7, 64} {
		store, oracle := NewReceiptStore(capacity), newOracleStore(capacity)
		pool := make([]types.Hash, 3*capacity+2)
		for i := range pool {
			pool[i] = id(1000*capacity + i)
		}
		for op := 0; op < 3000; op++ {
			switch x := pool[rng.Intn(len(pool))]; rng.Intn(3) {
			case 0:
				store.MarkPending(x)
				oracle.markPending(x)
			case 1:
				store.MarkEvicted(x)
				oracle.record(x, wire.TxReceipt{ID: x.String(), Status: wire.StatusEvicted})
			default:
				ids := make([]types.Hash, 1+rng.Intn(5))
				for i := range ids {
					ids[i] = pool[rng.Intn(len(pool))]
				}
				b := blockOf(uint64(op+1), uint64(rng.Intn(3)), ids...)
				store.RecordBlock(b)
				for i, x := range ids {
					oracle.record(x, b.Ref(i).Receipt())
				}
			}
			if store.Len() != oracle.lru.Len() {
				t.Fatalf("cap %d op %d: %d entries, list-based index %d", capacity, op, store.Len(), oracle.lru.Len())
			}
			if op%8 != 0 {
				continue
			}
			for _, x := range pool {
				got, ok := store.Get(x)
				el, want := oracle.entries[x]
				if ok != want || (ok && got != el.Value.(*oracleEntry).r) {
					t.Fatalf("cap %d op %d: %s = %+v (%v), list-based index %v", capacity, op, x.Short(), got, ok, want)
				}
			}
		}
	}
}
