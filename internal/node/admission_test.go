package node

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"contractstm/internal/api/wire"
	"contractstm/internal/contract"
	"contractstm/internal/mempool"
	"contractstm/internal/persist"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
)

// TestResubmitAfterDurableReturnsExistingReceipt is the idempotency
// regression test: a client that resubmits a transaction after it
// committed (a retry across a lost 202, say) must get the same ID back
// and must NOT re-enqueue the call — the durable receipt stands.
func TestResubmitAfterDurableReturnsExistingReceipt(t *testing.T) {
	w, holders := newTokenWorld(t, 2)
	n, err := New(Config{
		World: w, Workers: 2, Runner: runtime.NewSimRunner(),
		DataDir: t.TempDir(), Persist: persist.Options{SnapshotEvery: -1},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer n.Close()
	sdk := sdkFor(t, n)
	ctx := context.Background()

	tx := transferTx(holders[0], holders[1], 25)
	first, err := sdk.SubmitTx(ctx, tx)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := n.MineOne(10); err != nil {
		t.Fatalf("mine: %v", err)
	}
	if err := n.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	rec, err := sdk.Receipt(ctx, first.ID)
	if err != nil || rec.Status != wire.StatusCommitted {
		t.Fatalf("committed receipt = %+v, err %v", rec, err)
	}

	// The byte-identical resubmission: the node answers 409 tx_duplicate,
	// which the SDK folds into a success carrying the derived ID.
	again, err := sdk.SubmitTx(ctx, tx)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if again.ID != first.ID {
		t.Fatalf("resubmit ID = %s, want %s", again.ID, first.ID)
	}
	if again.Verdict != "duplicate" {
		t.Fatalf("resubmit verdict = %q", again.Verdict)
	}
	// The receipt is untouched — still the committed one, same block.
	rec2, err := sdk.Receipt(ctx, first.ID)
	if err != nil || rec2.Status != wire.StatusCommitted || rec2.BlockHeight != rec.BlockHeight {
		t.Fatalf("receipt after resubmit = %+v, err %v", rec2, err)
	}
	// And nothing re-entered the pool.
	st, err := sdk.Status(ctx)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.PoolLen != 0 {
		t.Fatalf("pool len = %d after duplicate resubmit", st.PoolLen)
	}
}

// TestSubmitShedsWith429AndRetryAfter drives the raw HTTP mapping of
// admission verdicts: a rate-limited sender gets 429, the verdict name
// as the machine-readable code, and a Retry-After hint; the mempool
// counters surface in /v1/status.
func TestSubmitShedsWith429AndRetryAfter(t *testing.T) {
	w, holders := newTokenWorld(t, 3)
	now := time.Unix(2000, 0)
	n, err := New(Config{
		World: w, Workers: 2, Runner: runtime.NewSimRunner(),
		Mempool: mempool.Config{
			RatePerSec: 1, Burst: 1,
			Now: func() time.Time { return now },
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	url := httpNode(t, n)

	resp, _ := postJSON(t, url+"/v1/tx", transferTx(holders[0], holders[1], 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status = %d", resp.StatusCode)
	}
	// Same sender, distinct transaction, bucket empty: shed.
	resp, body := postJSON(t, url+"/v1/tx", transferTx(holders[0], holders[1], 2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("throttled submit status = %d (body %s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\" at rate 1/s", ra)
	}
	var envelope wire.Error
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("error decode: %v (body %s)", err, body)
	}
	if envelope.Code != mempool.VerdictRateLimited.String() {
		t.Fatalf("code = %q, want %q", envelope.Code, mempool.VerdictRateLimited.String())
	}
	// A different sender is not throttled.
	resp, _ = postJSON(t, url+"/v1/tx", transferTx(holders[2], holders[1], 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other sender status = %d", resp.StatusCode)
	}

	// The shed shows up in the status counters.
	st := n.CurrentStatus()
	if st.Mempool == nil {
		t.Fatal("status has no mempool section")
	}
	if st.Mempool.Admitted != 2 || st.Mempool.RateLimited != 1 {
		t.Fatalf("mempool counters = %+v", st.Mempool)
	}
}

// TestReceiptReadmittedAfterEviction: a transaction evicted from the
// mempool and then admitted again through SubmitTx answers GET
// /v1/tx/{id} with "pending" while it is queued, not with the evicted
// marker of its earlier attempt, and with its receipt once its block is
// durable.
func TestReceiptReadmittedAfterEviction(t *testing.T) {
	w, holders := newTokenWorld(t, 2)
	n, err := New(Config{
		World: w, Workers: 2, Runner: runtime.NewSimRunner(),
		Mempool: mempool.Config{Shards: 1, PerSenderSlots: 1},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sdk := sdkFor(t, n)
	ctx := context.Background()
	status := func(id string) string {
		t.Helper()
		rec, err := sdk.Receipt(ctx, id)
		if err != nil {
			t.Fatalf("receipt %s: %v", id, err)
		}
		return rec.Status
	}

	a, b := transferTx(holders[0], holders[1], 1), transferTx(holders[0], holders[1], 2)
	first, err := sdk.SubmitTx(ctx, a)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// At the sender's one slot, a higher lane evicts the queued call.
	b.Priority = 1
	if _, err := sdk.SubmitTx(ctx, b); err != nil {
		t.Fatalf("submit the replacement: %v", err)
	}
	if got := status(first.ID); got != wire.StatusEvicted {
		t.Fatalf("replaced transaction reads %q, want %q", got, wire.StatusEvicted)
	}
	a.Priority = 2
	again, err := sdk.SubmitTx(ctx, a)
	if err != nil || again.ID != first.ID || again.Verdict != mempool.VerdictReplaced.String() {
		t.Fatalf("re-admission = %+v, err %v; want %s replacing the queued call", again, err, first.ID)
	}
	if got := status(first.ID); got != wire.StatusPending {
		t.Fatalf("re-admitted transaction reads %q, want %q", got, wire.StatusPending)
	}
	if _, err := n.MineOne(10); err != nil {
		t.Fatalf("mine: %v", err)
	}
	if got := status(first.ID); got != wire.StatusCommitted {
		t.Fatalf("mined transaction reads %q, want %q", got, wire.StatusCommitted)
	}
}

// TestReceiptMarksFollowConcurrentEvictions races submissions that evict
// one another: per round, three calls of one fresh sender, whose single
// slot a higher lane takes over, arrive at once. An admission whose
// pending mark ran after a concurrent eviction's evicted mark would
// leave a transaction reading "pending" that no pool holds, refused as
// a duplicate on every resubmission. Afterwards each call must read
// "pending" exactly when the pool holds it and "evicted" otherwise, and
// every evicted call must be admitted again when resubmitted.
func TestReceiptMarksFollowConcurrentEvictions(t *testing.T) {
	w, _ := newTokenWorld(t, 1)
	n, err := New(Config{
		World: w, Workers: 2, Runner: runtime.NewSimRunner(),
		Mempool: mempool.Config{PerSenderSlots: 1},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const rounds, lanes = 1000, 3
	callOf := func(round, lane int) contract.Call {
		return contract.Call{
			Sender: types.AddressFromUint64(uint64(0x9000 + round)), Contract: tokenAddr, Function: "transfer",
			Args: []any{types.AddressFromUint64(0x8000), uint64(lane + 1)}, GasLimit: 100_000,
		}
	}
	for r := 0; r < rounds; r++ {
		var start, done sync.WaitGroup
		start.Add(1)
		for lane := 0; lane < lanes; lane++ {
			done.Add(1)
			go func(call contract.Call, priority uint8) {
				defer done.Done()
				start.Wait()
				n.SubmitTx(call, priority)
			}(callOf(r, lane), uint8(lane))
		}
		start.Done()
		done.Wait()
	}

	queued := make(map[types.Hash]bool)
	for _, c := range n.pool.PendingCalls() {
		queued[mempool.TxOf(c).ID] = true
	}
	// Evicted calls in round and lane order: resubmitted at lanes+lane,
	// each takes its sender's slot from the one before.
	type resubmit struct {
		call     contract.Call
		priority uint8
	}
	var evicted []resubmit
	for r := 0; r < rounds; r++ {
		for lane := 0; lane < lanes; lane++ {
			call := callOf(r, lane)
			id := mempool.TxOf(call).ID
			ref, ok := n.receipts.Lookup(id)
			switch {
			case queued[id] && (!ok || ref.Status() != wire.StatusPending):
				t.Fatalf("round %d lane %d: queued call reads %q (tracked %v), want %q", r, lane, ref.Status(), ok, wire.StatusPending)
			case !queued[id] && ok && ref.Status() != wire.StatusEvicted:
				t.Fatalf("round %d lane %d: call out of the pool reads %q, want %q", r, lane, ref.Status(), wire.StatusEvicted)
			case !queued[id] && ok:
				evicted = append(evicted, resubmit{call, uint8(lanes + lane)})
			}
		}
	}
	if len(evicted) == 0 {
		t.Fatal("no submission was evicted; the rounds raced nothing")
	}
	for _, e := range evicted {
		if res := n.SubmitTx(e.call, e.priority); !res.Admitted {
			t.Fatalf("resubmitting an evicted call = %+v, want admitted", res)
		}
		if ref, _ := n.receipts.Lookup(mempool.TxOf(e.call).ID); ref.Status() != wire.StatusPending {
			t.Fatalf("re-admitted call reads %q, want %q", ref.Status(), wire.StatusPending)
		}
	}
}
