package api

import (
	"hash/maphash"
	"sync"

	"contractstm/internal/types"

	"contractstm/internal/api/wire"
)

// DefaultReceiptCapacity bounds a node's receipt store.
const DefaultReceiptCapacity = 4096

// ReceiptStore is the bounded receipt index behind GET /v1/tx/{id}: a
// map from content-derived transaction ID to the transaction's current
// lifecycle state — pending, evicted, or a reference into the durable
// block record holding its receipt — evicting least-recently-written
// entries past the capacity. An entry is a fixed-size slot; nothing is
// rendered until a client reads it.
//
// The store never decides durability — callers record receipts only for
// blocks the persistence layer has acknowledged (the node's crash rule),
// so everything the store serves is crash-stable by construction.
type ReceiptStore struct {
	mu  sync.Mutex
	cap int
	// slots hold the tracked transactions and form a doubly linked list
	// in write order, head = most recently written; once cap slots exist,
	// a new ID takes over the tail's.
	slots      []receiptSlot
	head, tail int32
	// table indexes the slots by ID: open addressing with linear probing
	// over 1 + slot number (0 = empty), at least twice the capacity so
	// probe runs stay short. A fixed 4 B per position, where a Go map
	// keyed by the 32-byte ID holds 80–160 B per entry. Positions come
	// from a hash seeded per store, so IDs a client grinds cannot pile
	// up in one run.
	table []int32
	seed  maphash.Seed
}

// receiptSlot is one tracked transaction and its list links (-1 ends).
type receiptSlot struct {
	ref        wire.ReceiptRef
	prev, next int32
}

// NewReceiptStore returns a store bounded to capacity entries
// (<=0 selects DefaultReceiptCapacity). The ID table is allocated here,
// 8–16 B per entry of capacity; the slots grow as entries arrive.
func NewReceiptStore(capacity int) *ReceiptStore {
	if capacity <= 0 {
		capacity = DefaultReceiptCapacity
	}
	size := 2
	for size < 2*capacity {
		size *= 2
	}
	return &ReceiptStore{cap: capacity, head: -1, tail: -1, table: make([]int32, size), seed: maphash.MakeSeed()}
}

// MarkPending records a submitted-but-not-yet-durable transaction, so a
// client that just submitted polls "pending" rather than "not found".
// A transaction that already has a durable receipt is left alone — a
// resubmission of identical bytes must not mask the recorded outcome —
// but an evicted marker is overwritten: the transaction was admitted
// again and is queued.
func (s *ReceiptStore) MarkPending(id types.Hash) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, i := s.find(id); i >= 0 {
		if ref := &s.slots[i].ref; ref.Block == nil {
			ref.Evicted = false
			s.toFront(i)
		}
		return
	}
	s.put(wire.ReceiptRef{ID: id})
}

// MarkEvicted records that a transaction was dropped from the mempool
// before it executed, overwriting its pending marker.
func (s *ReceiptStore) MarkEvicted(id types.Hash) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.put(wire.ReceiptRef{ID: id, Evicted: true})
}

// RecordBlock stores the receipts of a durable block, in call order,
// each overwriting any pending marker (or a previous execution of
// byte-identical calls — the later call in one block wins).
func (s *ReceiptStore) RecordBlock(b *wire.BlockRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range b.IDs {
		s.put(b.Ref(i))
	}
}

// put writes ref under its ID as the most recently written entry,
// taking over the least recently written slot once the store is full.
// Caller holds s.mu.
func (s *ReceiptStore) put(ref wire.ReceiptRef) {
	pos, i := s.find(ref.ID)
	switch {
	case i >= 0:
		s.toFront(i)
	case len(s.slots) < s.cap:
		i = int32(len(s.slots))
		s.slots = append(s.slots, receiptSlot{prev: -1, next: -1})
		s.link(i)
		s.table[pos] = i + 1
	default:
		i = s.tail
		old, _ := s.find(s.slots[i].ref.ID)
		s.unindex(old)
		// The removal may have shifted the run ref.ID probes.
		pos, _ = s.find(ref.ID)
		s.table[pos] = i + 1
		s.toFront(i)
	}
	s.slots[i].ref = ref
}

// home is id's first table position.
func (s *ReceiptStore) home(id types.Hash) int {
	return int(maphash.Bytes(s.seed, id[:]) & uint64(len(s.table)-1))
}

// find returns the table position holding id and its slot, or the empty
// position that ends id's probe run and -1. Caller holds s.mu.
func (s *ReceiptStore) find(id types.Hash) (pos int, slot int32) {
	mask := len(s.table) - 1
	for pos = s.home(id); ; pos = (pos + 1) & mask {
		v := s.table[pos]
		if v == 0 {
			return pos, -1
		}
		if s.slots[v-1].ref.ID == id {
			return pos, v - 1
		}
	}
}

// unindex empties table position pos and closes the gap behind it: an
// entry later in the run whose probe started at or before pos moves
// back into it, so every run stays unbroken. Caller holds s.mu.
func (s *ReceiptStore) unindex(pos int) {
	mask := len(s.table) - 1
	for q := (pos + 1) & mask; s.table[q] != 0; q = (q + 1) & mask {
		if h := s.home(s.slots[s.table[q]-1].ref.ID); (q-h)&mask >= (q-pos)&mask {
			s.table[pos] = s.table[q]
			pos = q
		}
	}
	s.table[pos] = 0
}

// toFront moves slot i to the head of the write order. Caller holds s.mu.
func (s *ReceiptStore) toFront(i int32) {
	if s.head == i {
		return
	}
	sl := &s.slots[i]
	s.slots[sl.prev].next = sl.next
	if sl.next >= 0 {
		s.slots[sl.next].prev = sl.prev
	} else {
		s.tail = sl.prev
	}
	s.link(i)
}

// link makes the detached slot i the head. Caller holds s.mu.
func (s *ReceiptStore) link(i int32) {
	s.slots[i].prev, s.slots[i].next = -1, s.head
	if s.head >= 0 {
		s.slots[s.head].prev = i
	} else {
		s.tail = i
	}
	s.head = i
}

// Lookup returns the transaction's receipt reference (possibly a pending
// or evicted marker) and whether the store knows the ID at all.
func (s *ReceiptStore) Lookup(id types.Hash) (wire.ReceiptRef, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, i := s.find(id); i >= 0 {
		return s.slots[i].ref, true
	}
	return wire.ReceiptRef{}, false
}

// Get returns the transaction's current receipt as its DTO (possibly a
// pending marker) and whether the store knows the ID at all.
func (s *ReceiptStore) Get(id types.Hash) (wire.TxReceipt, bool) {
	ref, ok := s.Lookup(id)
	if !ok {
		return wire.TxReceipt{}, false
	}
	return ref.Receipt(), true
}

// Len reports tracked transactions (pending and receipted).
func (s *ReceiptStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.slots)
}
