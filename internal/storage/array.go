package storage

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"contractstm/internal/stm"
	"contractstm/internal/types"
)

// Array is a boosted dynamically-sized array, the translation of a Solidity
// dynamic array such as Ballot's proposals.
//
// Locks: element i maps to {Scope: name, Key: KeyUint(i)}; the length maps
// to {Scope: name, Key: "#len"}. Push takes the length lock exclusively
// (two pushes do not commute: they assign different indices) plus the new
// element's lock; Len takes the length lock shared; element reads/writes
// take only their element lock, so they commute with operations on other
// indices and — importantly — with each other across indices.
type Array struct {
	name  string
	id    uint64
	store *Store

	mu sync.Mutex
	// cur is the current version. While owned it is this array's alone
	// and is edited in place; a snapshot or restore shares it, and the
	// next write copies it first.
	cur   *arrayVersion
	owned bool
}

// arrayVersion is one version of an array's elements with, once computed,
// its commitment. Arrays are short in every contract here, so a version
// is a flat copy and its root one hash over all of it.
type arrayVersion struct {
	elems  []any
	root   types.Hash
	rooted bool
}

// lenLockKey is the reserved key for the length lock. Element keys are
// 8-byte big-endian indices, so "#len" cannot collide.
const lenLockKey = "#len"

// NewArray creates a boosted array registered in s under name.
func NewArray(s *Store, name string) (*Array, error) {
	a := &Array{name: name, store: s, cur: &arrayVersion{}, owned: true}
	id, err := s.register(name, a)
	if err != nil {
		return nil, err
	}
	a.id = id
	return a, nil
}

func (a *Array) elemLock(i int) stm.LockID {
	if a.store.coarse() {
		return stm.LockID{Scope: a.name}
	}
	return stm.LockID{Scope: a.name, Key: KeyUint(uint64(i))}
}

func (a *Array) lenLock() stm.LockID {
	if a.store.coarse() {
		return stm.LockID{Scope: a.name}
	}
	return stm.LockID{Scope: a.name, Key: lenLockKey}
}

// Len returns the array length. Shared mode on the length lock.
func (a *Array) Len(ex stm.Executor) (int, error) {
	if err := ex.Access(a.lenLock(), stm.ModeShared, ex.Schedule().ArrayRead); err != nil {
		return 0, err
	}
	if ov := ex.Overlay(); ov != nil {
		return a.effectiveLen(ov), nil
	}
	return a.rawLen(), nil
}

// effectiveLen returns the length as seen through an overlay: buffered
// pushes extend the raw length.
func (a *Array) effectiveLen(ov *stm.Overlay) int {
	if v, _, ok := ov.Get(a.lenOverlayKey()); ok {
		if n, isInt := v.(int); isInt {
			return n
		}
	}
	return a.rawLen()
}

func (a *Array) lenOverlayKey() stm.OverlayKey {
	return stm.OverlayKey{Obj: a.id, Key: lenLockKey}
}

// applyElem returns the commit-time apply closure for element i: a write
// into the existing raw range, or an append for an index this transaction
// pushed. Overlay applies run in key order, so buffered pushes append in
// index order and land exactly at their planned slots.
func (a *Array) applyElem(i int) func(val any, deleted bool) {
	return func(val any, deleted bool) {
		if i < a.rawLen() {
			a.rawSet(i, val)
			return
		}
		a.rawAppend(val)
	}
}

// Get returns element i or ErrOutOfRange. Shared mode on the element lock.
func (a *Array) Get(ex stm.Executor, i int) (any, error) {
	if err := ex.Access(a.elemLock(i), stm.ModeShared, ex.Schedule().ArrayRead); err != nil {
		return nil, err
	}
	if ov := ex.Overlay(); ov != nil {
		if v, deleted, ok := ov.Get(a.overlayKey(i)); ok && !deleted {
			return v, nil
		}
		if d, buffered := ov.Delta(a.overlayKey(i)); buffered {
			base, _ := a.rawGet(i)
			n, _ := base.(uint64)
			return uint64(int64(n) + d), nil
		}
	}
	v, ok := a.rawGet(i)
	if !ok {
		return nil, fmt.Errorf("%s[%d]: %w", a.name, i, ErrOutOfRange)
	}
	return v, nil
}

// Set writes element i or returns ErrOutOfRange. Exclusive mode; the
// inverse restores the previous element.
func (a *Array) Set(ex stm.Executor, i int, v any) error {
	if err := ex.Access(a.elemLock(i), stm.ModeExclusive, ex.Schedule().ArrayWrite); err != nil {
		return err
	}
	if ov := ex.Overlay(); ov != nil {
		if i < 0 || i >= a.effectiveLen(ov) {
			return fmt.Errorf("%s[%d]: %w", a.name, i, ErrOutOfRange)
		}
		ov.Put(a.overlayKey(i), v, false, a.applyElem(i))
		return nil
	}
	if i < 0 || i >= a.rawLen() {
		return fmt.Errorf("%s[%d]: %w", a.name, i, ErrOutOfRange)
	}
	prev, _ := a.rawGet(i)
	ex.LogUndo(stm.Undo{Obj: a, Op: undoRestore, Index: i, Old: prev})
	a.rawSet(i, v)
	return nil
}

// Push appends v and returns its index. Exclusive on the length lock and
// the new element's lock; the inverse (eager policy) truncates.
func (a *Array) Push(ex stm.Executor, v any) (int, error) {
	if err := ex.Access(a.lenLock(), stm.ModeExclusive, ex.Schedule().ArrayPush); err != nil {
		return 0, err
	}
	// Buffered regimes plan the index from the effective length (raw plus
	// this family's buffered pushes). Two transactions can never commit
	// the same planned index: a lazy transaction holds the length lock
	// exclusively until its overlay is applied, and an OCC transaction
	// carries the exclusive length lock in its read/write set, so the
	// commit round's validation rejects the second planner.
	if ov := ex.Overlay(); ov != nil {
		i := a.effectiveLen(ov)
		if err := ex.Access(a.elemLock(i), stm.ModeExclusive, ex.Schedule().ArrayWrite); err != nil {
			return 0, err
		}
		ov.Put(a.overlayKey(i), v, false, a.applyElem(i))
		ov.Put(a.lenOverlayKey(), i+1, false, func(any, bool) {})
		return i, nil
	}
	i := a.rawLen()
	if err := ex.Access(a.elemLock(i), stm.ModeExclusive, ex.Schedule().ArrayWrite); err != nil {
		return 0, err
	}
	ex.LogUndo(stm.Undo{Obj: a, Op: undoTruncate, Index: i})
	a.rawAppend(v)
	return i, nil
}

// AddUint adds delta to the uint64 element at i (increment mode: concurrent
// adds to one slot commute; inverse subtracts).
func (a *Array) AddUint(ex stm.Executor, i int, delta uint64) error {
	mode := a.store.incrementMode()
	if a.store.coarse() {
		mode = stm.ModeExclusive
	}
	if err := ex.Access(a.elemLock(i), mode, ex.Schedule().ArrayWrite); err != nil {
		return err
	}
	if ov := ex.Overlay(); ov != nil {
		if i < 0 || i >= a.effectiveLen(ov) {
			return fmt.Errorf("%s[%d]: %w", a.name, i, ErrOutOfRange)
		}
		eff, _ := a.rawGet(i)
		if v, deleted, ok := ov.Get(a.overlayKey(i)); ok && !deleted {
			eff = v
		}
		if _, isUint := eff.(uint64); !isUint {
			return fmt.Errorf("%w: %s[%d] holds %T", ErrNotCounter, a.name, i, eff)
		}
		ov.Add(a.overlayKey(i), int64(delta), func(d int64) { a.rawAdd(i, d) })
		return nil
	}
	cur, ok := a.rawGet(i)
	if !ok {
		return fmt.Errorf("%s[%d]: %w", a.name, i, ErrOutOfRange)
	}
	if _, isUint := cur.(uint64); !isUint {
		return fmt.Errorf("%w: %s[%d] holds %T", ErrNotCounter, a.name, i, cur)
	}
	ex.LogUndo(stm.Undo{Obj: a, Op: undoAdd, Index: i, Delta: int64(delta)})
	a.rawAdd(i, int64(delta))
	return nil
}

// GetUint reads the uint64 element at i. Shared mode.
func (a *Array) GetUint(ex stm.Executor, i int) (uint64, error) {
	v, err := a.Get(ex, i)
	if err != nil {
		return 0, err
	}
	n, ok := v.(uint64)
	if !ok {
		return 0, fmt.Errorf("%w: %s[%d] holds %T", ErrNotCounter, a.name, i, v)
	}
	return n, nil
}

func (a *Array) overlayKey(i int) stm.OverlayKey {
	return stm.OverlayKey{Obj: a.id, Key: KeyUint(uint64(i))}
}

// raw accessors.

func (a *Array) rawLen() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.cur.elems)
}

func (a *Array) rawGet(i int) (any, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if i < 0 || i >= len(a.cur.elems) {
		return nil, false
	}
	return a.cur.elems[i], true
}

// edit returns the elements for writing: a copy of its own if the current
// version is shared, and with the cached root dropped. Caller holds the
// mutex.
func (a *Array) edit() *arrayVersion {
	if !a.owned {
		// Room for the push that often follows.
		a.cur = &arrayVersion{elems: append(make([]any, 0, len(a.cur.elems)+1), a.cur.elems...)}
		a.owned = true
	}
	a.cur.rooted = false
	return a.cur
}

func (a *Array) rawSet(i int, v any) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if i >= 0 && i < len(a.cur.elems) {
		a.edit().elems[i] = v
	}
}

func (a *Array) rawAppend(v any) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cur := a.edit()
	cur.elems = append(cur.elems, v)
}

func (a *Array) rawTruncate(n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n >= 0 && n <= len(a.cur.elems) {
		cur := a.edit()
		cur.elems = cur.elems[:n]
	}
}

func (a *Array) rawAdd(i int, delta int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if i < 0 || i >= len(a.cur.elems) {
		return
	}
	cur := a.edit()
	n, _ := cur.elems[i].(uint64)
	cur.elems[i] = uint64(int64(n) + delta)
}

// Undo implements stm.Undoer: it takes back one write this array logged.
func (a *Array) Undo(u *stm.Undo) {
	switch u.Op {
	case undoRestore:
		a.rawSet(u.Index, u.Old)
	case undoTruncate:
		a.rawTruncate(u.Index)
	case undoAdd:
		a.rawAdd(u.Index, -u.Delta)
	}
}

// objectName implements object.
func (a *Array) objectName() string { return a.name }

// root implements object. The preimage commits to the length, so
// truncation is tamper-evident even for empty arrays.
func (a *Array) root(h *hasher) (types.Hash, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cur := a.cur
	if cur.rooted {
		return cur.root, nil
	}
	b := append(h.buf[:0], commitArray)
	b = binary.BigEndian.AppendUint32(b, uint32(len(cur.elems)))
	for i, v := range cur.elems {
		at := len(b)
		b = append(b, 0, 0, 0, 0)
		var err error
		if b, err = appendValue(b, v); err != nil {
			return types.Hash{}, fmt.Errorf("index %d: %w", i, err)
		}
		binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	}
	h.buf = b
	cur.root, cur.rooted = sha256.Sum256(b), true
	return cur.root, nil
}

// snapshot implements object.
func (a *Array) snapshot() version {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.owned = false
	return version{array: a.cur}
}

// restore implements object.
func (a *Array) restore(v version) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cur, a.owned = v.array, false
}
