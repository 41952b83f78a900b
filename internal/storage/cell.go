package storage

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"contractstm/internal/stm"
	"contractstm/internal/types"
)

// Cell is a boosted scalar state variable (a single Solidity field such as
// SimpleAuction's highestBid). It has exactly one abstract lock, so any two
// non-commuting operations on it conflict — which is precisely why the
// paper's bidPlusOne transactions serialize.
type Cell struct {
	name  string
	id    uint64
	store *Store

	mu sync.Mutex
	// cur is the current version, replaced by the first write after a
	// snapshot or restore shared it (see Array).
	cur   *cellVersion
	owned bool
}

// cellVersion is one version of a cell's value with, once computed, its
// commitment.
type cellVersion struct {
	val    any
	root   types.Hash
	rooted bool
}

// NewCell creates a boosted cell registered in s under name, holding initial.
func NewCell(s *Store, name string, initial any) (*Cell, error) {
	c := &Cell{name: name, store: s, cur: &cellVersion{val: initial}, owned: true}
	id, err := s.register(name, c)
	if err != nil {
		return nil, err
	}
	c.id = id
	return c, nil
}

func (c *Cell) lock() stm.LockID { return stm.LockID{Scope: c.name} }

// Read returns the cell's value. Shared mode.
func (c *Cell) Read(ex stm.Executor) (any, error) {
	if err := ex.Access(c.lock(), stm.ModeShared, ex.Schedule().CellRead); err != nil {
		return nil, err
	}
	if ov := ex.Overlay(); ov != nil {
		if v, deleted, ok := ov.Get(c.overlayKey()); ok && !deleted {
			return v, nil
		}
		if d, buffered := ov.Delta(c.overlayKey()); buffered {
			// Read-your-increments; deltas are only buffered against
			// verified uint64 counters.
			n, _ := c.rawRead().(uint64)
			return uint64(int64(n) + d), nil
		}
	}
	return c.rawRead(), nil
}

// Write replaces the cell's value. Exclusive mode; the inverse restores the
// previous value.
func (c *Cell) Write(ex stm.Executor, v any) error {
	if err := ex.Access(c.lock(), stm.ModeExclusive, ex.Schedule().CellWrite); err != nil {
		return err
	}
	if ov := ex.Overlay(); ov != nil {
		ov.Put(c.overlayKey(), v, false, func(val any, deleted bool) {
			c.rawWrite(val)
		})
		return nil
	}
	ex.LogUndo(stm.Undo{Obj: c, Op: undoRestore, Old: c.rawRead()})
	c.rawWrite(v)
	return nil
}

// AddUint adds delta to the cell's uint64 value. Increment mode; inverse
// subtracts.
func (c *Cell) AddUint(ex stm.Executor, delta uint64) error {
	mode := c.store.incrementMode()
	if c.store.coarse() {
		mode = stm.ModeExclusive
	}
	if err := ex.Access(c.lock(), mode, ex.Schedule().CellAdd); err != nil {
		return err
	}
	// Buffered regimes (lazy and OCC) record the increment as an
	// accumulating delta entry; see Map.AddUint for the commutativity
	// argument.
	if ov := ex.Overlay(); ov != nil {
		eff := c.rawRead()
		if v, deleted, ok := ov.Get(c.overlayKey()); ok && !deleted {
			eff = v
		}
		if _, isUint := eff.(uint64); !isUint {
			return fmt.Errorf("%w: cell %s holds %T", ErrNotCounter, c.name, eff)
		}
		ov.Add(c.overlayKey(), int64(delta), func(d int64) { c.rawAdd(d) })
		return nil
	}
	if _, ok := c.rawRead().(uint64); !ok {
		return fmt.Errorf("%w: cell %s holds %T", ErrNotCounter, c.name, c.rawRead())
	}
	ex.LogUndo(stm.Undo{Obj: c, Op: undoAdd, Delta: int64(delta)})
	c.rawAdd(int64(delta))
	return nil
}

// ReadUint reads the cell as a uint64 counter. Shared mode.
func (c *Cell) ReadUint(ex stm.Executor) (uint64, error) {
	v, err := c.Read(ex)
	if err != nil {
		return 0, err
	}
	n, ok := v.(uint64)
	if !ok {
		return 0, fmt.Errorf("%w: cell %s holds %T", ErrNotCounter, c.name, v)
	}
	return n, nil
}

func (c *Cell) overlayKey() stm.OverlayKey {
	return stm.OverlayKey{Obj: c.id}
}

func (c *Cell) rawRead() any {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur.val
}

func (c *Cell) rawWrite(v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.set(v)
}

func (c *Cell) rawAdd(delta int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, _ := c.cur.val.(uint64)
	c.set(uint64(int64(n) + delta))
}

// set writes v into a version of the cell's own. Caller holds the mutex.
func (c *Cell) set(v any) {
	if !c.owned {
		c.cur, c.owned = &cellVersion{}, true
	}
	c.cur.val, c.cur.rooted = v, false
}

// Undo implements stm.Undoer: it takes back one write this cell logged.
func (c *Cell) Undo(u *stm.Undo) {
	switch u.Op {
	case undoRestore:
		c.rawWrite(u.Old)
	case undoAdd:
		c.rawAdd(-u.Delta)
	}
}

// objectName implements object.
func (c *Cell) objectName() string { return c.name }

// root implements object.
func (c *Cell) root(h *hasher) (types.Hash, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.cur
	if cur.rooted {
		return cur.root, nil
	}
	b, err := appendValue(append(h.buf[:0], commitCell), cur.val)
	if err != nil {
		return types.Hash{}, err
	}
	h.buf = b
	cur.root, cur.rooted = sha256.Sum256(b), true
	return cur.root, nil
}

// snapshot implements object.
func (c *Cell) snapshot() version {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.owned = false
	return version{cell: c.cur}
}

// restore implements object.
func (c *Cell) restore(v version) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cur, c.owned = v.cell, false
}
