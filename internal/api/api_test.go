package api

import (
	"fmt"
	"sync"
	"testing"

	"contractstm/internal/api/wire"
	"contractstm/internal/contract"
	"contractstm/internal/gas"
	"contractstm/internal/types"
)

func id(i int) types.Hash { return types.HashString(fmt.Sprintf("tx-%d", i)) }

// blockOf is a durable block record of the given transactions, each
// committed with the given gas, in call order.
func blockOf(height uint64, gasUsed uint64, ids ...types.Hash) *wire.BlockRecord {
	b := &wire.BlockRecord{Number: height, IDs: ids, SchedPos: make([]int32, len(ids))}
	for i := range ids {
		b.Receipts = append(b.Receipts, contract.Receipt{Tx: types.TxID(i), GasUsed: gas.Gas(gasUsed)})
		b.SchedPos[i] = int32(i)
	}
	return b
}

func TestReceiptStorePendingThenRecord(t *testing.T) {
	s := NewReceiptStore(8)
	s.MarkPending(id(1))
	rec, ok := s.Get(id(1))
	if !ok || rec.Status != wire.StatusPending {
		t.Fatalf("pending lookup = %+v ok=%v", rec, ok)
	}
	if rec.TxIndex != -1 || rec.ScheduleIndex != -1 {
		t.Fatalf("pending marker carries block coordinates: %+v", rec)
	}
	s.RecordBlock(blockOf(3, 9, id(1)))
	rec, _ = s.Get(id(1))
	if rec.Status != wire.StatusCommitted || rec.GasUsed != 9 || rec.BlockHeight != 3 {
		t.Fatalf("recorded receipt = %+v", rec)
	}
	// A resubmission of identical bytes must not mask the recorded
	// outcome.
	s.MarkPending(id(1))
	if rec, _ = s.Get(id(1)); rec.Status != wire.StatusCommitted {
		t.Fatalf("MarkPending overwrote a durable receipt: %+v", rec)
	}
	if _, ok := s.Get(id(2)); ok {
		t.Fatal("unknown ID found")
	}
}

// TestReceiptStoreReadmittedAfterEviction: MarkPending → MarkEvicted →
// MarkPending reads "pending", as a transaction evicted from the mempool
// and admitted again is queued; its block's receipt then replaces the
// marker.
func TestReceiptStoreReadmittedAfterEviction(t *testing.T) {
	s := NewReceiptStore(8)
	s.MarkPending(id(1))
	s.MarkEvicted(id(1))
	if rec, _ := s.Get(id(1)); rec.Status != wire.StatusEvicted {
		t.Fatalf("evicted lookup = %+v", rec)
	}
	s.MarkPending(id(1))
	rec, ok := s.Get(id(1))
	if !ok || rec.Status != wire.StatusPending || rec.TxIndex != -1 || rec.ScheduleIndex != -1 {
		t.Fatalf("re-admitted lookup = %+v ok=%v", rec, ok)
	}
	s.RecordBlock(blockOf(4, 7, id(1)))
	if rec, _ := s.Get(id(1)); rec.Status != wire.StatusCommitted || rec.BlockHeight != 4 {
		t.Fatalf("recorded receipt = %+v", rec)
	}
}

func TestReceiptStoreBounded(t *testing.T) {
	const cap = 16
	s := NewReceiptStore(cap)
	for i := 0; i < 5*cap; i++ {
		s.RecordBlock(blockOf(uint64(i+1), 1, id(i)))
	}
	if s.Len() != cap {
		t.Fatalf("len = %d, want %d", s.Len(), cap)
	}
	// Oldest evicted, newest kept.
	if _, ok := s.Get(id(0)); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := s.Get(id(5*cap - 1)); !ok {
		t.Fatal("newest entry evicted")
	}
}

func TestBrokerDeliversInOrder(t *testing.T) {
	b := NewBroker()
	sub := b.Subscribe(4)
	defer sub.Close()
	for i := 0; i < 3; i++ {
		b.Publish(&wire.BlockRecord{Number: uint64(i + 1)})
	}
	for i := 0; i < 3; i++ {
		ev := <-sub.C
		if ev.Seq != uint64(i) || ev.Block.Number != uint64(i+1) {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
}

// TestBrokerDropsSlowSubscriber: a full buffer never blocks Publish —
// the subscriber is cut loose instead, and the accounting shows it.
func TestBrokerDropsSlowSubscriber(t *testing.T) {
	b := NewBroker()
	slow := b.Subscribe(1)
	fast := b.Subscribe(16)
	defer fast.Close()
	// First fills slow's buffer; second overflows it → dropped.
	b.Publish(&wire.BlockRecord{})
	b.Publish(&wire.BlockRecord{})
	b.Publish(&wire.BlockRecord{})
	if b.Subscribers() != 1 {
		t.Fatalf("subscribers = %d, want 1 (slow dropped)", b.Subscribers())
	}
	if b.Dropped() != 1 {
		t.Fatalf("dropped = %d", b.Dropped())
	}
	// The slow channel holds its buffered event, then reports closure.
	<-slow.C
	if _, ok := <-slow.C; ok {
		t.Fatal("dropped subscription channel not closed")
	}
	// The fast subscriber saw everything.
	for i := 0; i < 3; i++ {
		if ev := <-fast.C; ev.Seq != uint64(i) {
			t.Fatalf("fast missed event %d", i)
		}
	}
	// Closing twice is fine; publishing after close doesn't panic.
	slow.Close()
	b.Publish(&wire.BlockRecord{})
}

// TestReceiptStoreAndBrokerShareRecords runs the verdict's writer — one
// block record into the store and the broker, evicting older blocks —
// beside submitters marking pending and evicted, GET-style readers
// rendering whatever the store points at, a reconnecting reader
// rendering the replay ring, and a live subscriber rendering every
// event: under -race, any write to a shared record shows.
func TestReceiptStoreAndBrokerShareRecords(t *testing.T) {
	const blocks, size = 200, 20
	store, broker := NewReceiptStore(3*size), NewBrokerRetaining(4)
	recs := make([]*wire.BlockRecord, blocks)
	for b := range recs {
		ids := make([]types.Hash, size)
		for i := range ids {
			ids[i] = id(b*size + i)
		}
		recs[b] = blockOf(uint64(b+1), uint64(b), ids...)
	}
	sub := broker.Subscribe(blocks)
	defer sub.Close()

	var wg sync.WaitGroup
	done := make(chan struct{})
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
					f(i)
				}
			}
		}()
	}
	var buf []byte
	run(func(i int) {
		store.MarkPending(id(i % (blocks * size)))
		store.MarkEvicted(id((7 * i) % (blocks * size)))
	})
	run(func(i int) {
		if ref, ok := store.Lookup(id(i % (blocks * size))); ok {
			buf = ref.AppendJSON(buf[:0])
		}
	})
	var replayBuf []byte
	run(func(i int) {
		evs, _ := broker.Replay(uint64(i % blocks))
		for _, ev := range evs {
			replayBuf, _ = wire.AppendEvent(replayBuf[:0], ev.Seq, ev.Block, 0, nil)
		}
	})
	rendered := make(chan int)
	go func() {
		n := 0
		var frame []byte
		for ev := range sub.C {
			frame, _ = wire.AppendEvent(frame[:0], ev.Seq, ev.Block, 0, nil)
			if n++; n == blocks {
				break
			}
		}
		rendered <- n
	}()
	for _, rec := range recs {
		store.RecordBlock(rec)
		broker.Publish(rec)
	}
	if n := <-rendered; n != blocks {
		t.Fatalf("subscriber rendered %d events, want %d", n, blocks)
	}
	close(done)
	wg.Wait()
	if store.Len() != 3*size {
		t.Fatalf("store holds %d entries, want %d", store.Len(), 3*size)
	}
}
