package storage

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"contractstm/internal/stm"
	"contractstm/internal/types"
)

// Map is a boosted hash table: the translation of a Solidity mapping
// (§6: "Solidity mapping objects are implemented as boosted hashtables,
// where key values are used to index abstract locks").
//
// Concurrency: the abstract lock for key k is {Scope: name, Key: k}; the raw
// table (a persistent trie, trie.go) is the linearizable base object
// boosting wraps, and is guarded by plain mutexes because edits to
// distinct keys share the nodes above them. A large map is split into 16
// stripes by the first nibble of a key's placement, each under a mutex of
// its own, so operations on keys in different stripes — the commuting
// operations of a validator's lock-free replay — do not take turns. A
// mutex is held only for the raw operation, never across a lock wait.
type Map struct {
	name  string
	id    uint64
	store *Store
	raw   rawMap
	// structs parses the struct values this map stores (DecodeStructs);
	// nil when it stores none.
	structs func([]byte) (any, error)
}

// rawMap is the map's current version, held either whole or in stripes.
// A map is striped exactly when every slot of its trie's top node holds a
// child: then stripe s holds, at depth 1, the subtree the top node holds
// in slot s, and splitting or reassembling the top node moves pointers
// only. Small maps, which cannot meet the rule, stay one trie at depth 0
// under whole's mutex and pay for no stripe. The rule is applied only in
// snapshot and restore, with every mutex held; between two of those the
// stripes may shrink or empty, and the next snapshot reassembles them.
//
// The entry count is base, the count at the last snapshot or restore,
// plus what each stripe has added since, so neither snapshot nor restore
// walks the trie to count it.
type rawMap struct {
	whole stripe
	// stripes is allocated the first time the map stripes, and kept. An
	// operation uses it only while striped is true; both change only
	// with every mutex held.
	stripes *[16]stripe
	striped atomic.Bool
	base    int
	// epoch is the epoch whose nodes may be edited in place. It changes
	// only with every mutex held, so any one of them is enough to read it.
	epoch uint64
}

// stripe is one mutex's share of a map: the whole trie at depth 0, or the
// subtree of one top-node slot at depth 1. A one-entry stripe is a node
// holding only that entry, which the top node would hold inline.
type stripe struct {
	mu    sync.Mutex
	root  *node
	depth int
	// added is the entries inserted minus those removed since the map's
	// last snapshot or restore.
	added int
	// Padding to a cache line, so that workers on neighbouring stripes do
	// not share one.
	_ [32]byte
}

// NewMap creates a boosted map registered in s under the given name (which
// becomes its lock scope and state-root prefix).
func NewMap(s *Store, name string) (*Map, error) {
	// Epoch 0 is left to versions no map ever edits in place (readState).
	m := &Map{name: name, store: s, raw: rawMap{epoch: 1}}
	id, err := s.register(name, m)
	if err != nil {
		return nil, err
	}
	m.id = id
	return m, nil
}

// DecodeStructs declares that m stores struct values and gives the
// inverse of their Encoder.EncodeValue, which reading persisted state
// back needs. decode must accept exactly what EncodeValue produces. Call
// it while setting the map up, before the store is shared.
func (m *Map) DecodeStructs(decode func([]byte) (any, error)) { m.structs = decode }

// Name returns the map's lock scope.
func (m *Map) Name() string { return m.name }

func (m *Map) lock(key string) stm.LockID {
	if m.store.coarse() {
		return stm.LockID{Scope: m.name}
	}
	return stm.LockID{Scope: m.name, Key: key}
}

// intern places key and returns the map's own copy of it: the string its
// binding already stores, or a fresh copy when key is unbound. Every
// operation works with what intern returns and keeps no reference to the
// key it was given, so a caller's key may live on its stack (KeyAddr's
// does) and only a key the map does not bind allocates. That copy is paid
// by reads too: a Get, GetUint or Contains of an unbound key copies it,
// since the lock it names may outlive the call (in a held set, a trace or
// a profile), and a KeyUint key of 256 or more, already made on the heap,
// is copied once more. The lookup is a critical section of its own; the
// operation's read or write takes the key's stripe mutex again.
func (m *Map) intern(key string) (placement, string) {
	p := placeKey(key)
	st := m.raw.lock(&p)
	e := st.root.lookup(&p, key, st.depth)
	var k string
	if e != nil {
		k = e.key
	}
	st.mu.Unlock()
	if e == nil {
		k = strings.Clone(key)
	}
	return p, k
}

// Get returns the value bound to key, or (nil, false) when absent.
// A shared-mode storage operation.
func (m *Map) Get(ex stm.Executor, key string) (any, bool, error) {
	p, k := m.intern(key)
	return m.get(ex, &p, k)
}

func (m *Map) get(ex stm.Executor, p *placement, key string) (any, bool, error) {
	if err := ex.Access(m.lock(key), stm.ModeShared, ex.Schedule().MapRead); err != nil {
		return nil, false, err
	}
	if ov := ex.Overlay(); ov != nil {
		if v, deleted, ok := ov.Get(m.overlayKey(key)); ok {
			if n, isUint := v.(uint64); isUint && n == 0 {
				return nil, false, nil // canonical zero: see rawPut
			}
			return v, !deleted, nil
		}
		if d, buffered := ov.Delta(m.overlayKey(key)); buffered {
			// Read-your-increments: a buffered delta is visible to the
			// buffering transaction as raw value plus delta. Deltas are
			// only buffered against verified uint64 counters.
			base, _ := m.rawGet(p, key)
			n, _ := base.(uint64)
			n = uint64(int64(n) + d)
			if n == 0 {
				return nil, false, nil // canonical zero
			}
			return n, true, nil
		}
	}
	v, ok := m.rawGet(p, key)
	return v, ok, nil
}

// Contains reports whether key is bound. A shared-mode storage operation.
func (m *Map) Contains(ex stm.Executor, key string) (bool, error) {
	_, ok, err := m.Get(ex, key)
	return ok, err
}

// Put binds key to val. An exclusive-mode storage operation whose inverse
// restores the prior binding (or absence).
func (m *Map) Put(ex stm.Executor, key string, val any) error {
	p, k := m.intern(key)
	if err := ex.Access(m.lock(k), stm.ModeExclusive, ex.Schedule().MapWrite); err != nil {
		return err
	}
	if ov := ex.Overlay(); ov != nil {
		ov.Put(m.overlayKey(k), val, false, func(v any, deleted bool) {
			m.applyOverlay(k, v, deleted)
		})
		return nil
	}
	prev, had := m.rawGet(&p, k)
	if had {
		ex.LogUndo(stm.Undo{Obj: m, Op: undoRestore, Key: k, Old: prev})
	} else {
		ex.LogUndo(stm.Undo{Obj: m, Op: undoUnbind, Key: k})
	}
	m.rawPut(&p, k, val)
	return nil
}

// Delete removes key's binding. An exclusive-mode storage operation whose
// inverse re-adds the binding.
func (m *Map) Delete(ex stm.Executor, key string) error {
	p, k := m.intern(key)
	if err := ex.Access(m.lock(k), stm.ModeExclusive, ex.Schedule().MapDelete); err != nil {
		return err
	}
	if ov := ex.Overlay(); ov != nil {
		ov.Put(m.overlayKey(k), nil, true, func(v any, deleted bool) {
			m.applyOverlay(k, v, deleted)
		})
		return nil
	}
	prev, had := m.rawGet(&p, k)
	if !had {
		return nil
	}
	ex.LogUndo(stm.Undo{Obj: m, Op: undoRestore, Key: k, Old: prev})
	m.rawDelete(&p, k)
	return nil
}

// AddUint adds delta to the uint64 counter bound to key (missing keys count
// as zero). An increment-mode operation: concurrent AddUints on the same
// key commute, which is what keeps Ballot's vote tallies parallel. The
// inverse subtracts delta.
func (m *Map) AddUint(ex stm.Executor, key string, delta uint64) error {
	p, k := m.intern(key)
	return m.addUint(ex, &p, k, m.addMode(), int64(delta), 0)
}

// addMode returns the lock mode for AddUint: increment normally, but
// exclusive under either ablation (no-increment or coarse region locks,
// which cannot see commutativity).
func (m *Map) addMode() stm.Mode {
	if m.store.coarse() {
		return stm.ModeExclusive
	}
	return m.store.incrementMode()
}

// SubUint subtracts delta from the uint64 counter bound to key, failing
// with ErrUnderflow if the counter is smaller than delta. Unlike AddUint
// this is NOT commutative (it observes the current value), so it takes the
// lock exclusively. The inverse adds delta back.
func (m *Map) SubUint(ex stm.Executor, key string, delta uint64) error {
	p, k := m.intern(key)
	return m.addUint(ex, &p, k, stm.ModeExclusive, -int64(delta), delta)
}

// addUint is AddUint and SubUint: add delta to the counter at key, which
// must not be below floor.
func (m *Map) addUint(ex stm.Executor, p *placement, key string, mode stm.Mode, delta int64, floor uint64) error {
	if err := ex.Access(m.lock(key), mode, ex.Schedule().MapWrite); err != nil {
		return err
	}
	// Buffered regimes (lazy and OCC) record the increment as a delta
	// entry, not an absolute value: deltas from different transactions
	// accumulate at apply time, so commutativity survives buffering — and
	// an increment never clobbers (or is clobbered by) a buffered write
	// to the same slot, because delta-after-Put folds into the buffered
	// value.
	if ov := ex.Overlay(); ov != nil {
		base, err := m.effectiveUint(ov, p, key)
		if err != nil {
			return err
		}
		if base < floor {
			return fmt.Errorf("%s[%q]: %d - %d: %w", m.name, key, base, floor, ErrUnderflow)
		}
		ov.Add(m.overlayKey(key), delta, func(d int64) { m.rawAdd(key, d) })
		return nil
	}
	// Eager: two critical sections, intern's lookup and then rawAddAt's
	// floor check and add. Plain subtraction is a correct inverse
	// in any interleaving of commuting adds because the raw layer
	// canonicalizes zero counters to absent bindings (EVM storage
	// semantics); see rawPut.
	if err := m.rawAddAt(p, key, delta, floor); err != nil {
		return err
	}
	ex.LogUndo(stm.Undo{Obj: m, Op: undoAdd, Key: key, Delta: delta})
	return nil
}

// effectiveUint reads the counter at key as seen through an overlay: a
// buffered absolute value, raw plus a buffered delta, or raw (absent
// counts as zero). It fails with ErrNotCounter on non-uint64 slots.
func (m *Map) effectiveUint(ov *stm.Overlay, p *placement, key string) (uint64, error) {
	if v, deleted, ok := ov.Get(m.overlayKey(key)); ok {
		if deleted {
			return 0, nil
		}
		n, isUint := v.(uint64)
		if !isUint {
			return 0, fmt.Errorf("%w: %s[%q] holds %T", ErrNotCounter, m.name, key, v)
		}
		return n, nil
	}
	var base uint64
	if cur, had := m.rawGet(p, key); had {
		n, isUint := cur.(uint64)
		if !isUint {
			return 0, fmt.Errorf("%w: %s[%q] holds %T", ErrNotCounter, m.name, key, cur)
		}
		base = n
	}
	d, _ := ov.Delta(m.overlayKey(key))
	return uint64(int64(base) + d), nil
}

// GetUint reads the counter at key (0 when absent). Shared mode.
func (m *Map) GetUint(ex stm.Executor, key string) (uint64, error) {
	p, k := m.intern(key)
	v, ok, err := m.get(ex, &p, k)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil
	}
	n, isUint := v.(uint64)
	if !isUint {
		return 0, fmt.Errorf("%w: %s[%q] holds %T", ErrNotCounter, m.name, k, v)
	}
	return n, nil
}

func (m *Map) overlayKey(key string) stm.OverlayKey {
	return stm.OverlayKey{Obj: m.id, Key: key}
}

func (m *Map) applyOverlay(key string, v any, deleted bool) {
	p := placeKey(key)
	if deleted {
		m.rawDelete(&p, key)
		return
	}
	m.rawPut(&p, key, v)
}

// raw accessors, each a short critical section on the mutex of the key's
// stripe; the key's placement is hashed before the mutex is taken.

func (m *Map) rawGet(p *placement, key string) (any, bool) {
	st := m.raw.lock(p)
	defer st.mu.Unlock()
	return st.root.find(p, key, st.depth)
}

// rawPut stores a binding. Like EVM storage, writing the zero counter
// clears the slot: uint64(0) and "absent" are one canonical state, which is
// what makes subtraction a correct inverse for commutative adds in every
// abort interleaving.
func (m *Map) rawPut(p *placement, key string, v any) {
	st := m.raw.lock(p)
	defer st.mu.Unlock()
	st.set(m.raw.epoch, p, key, v)
}

func (m *Map) rawDelete(p *placement, key string) {
	st := m.raw.lock(p)
	defer st.mu.Unlock()
	st.unset(m.raw.epoch, p, key)
}

func (m *Map) rawAdd(key string, delta int64) {
	p := placeKey(key)
	st := m.raw.lock(&p)
	defer st.mu.Unlock()
	v, _ := st.root.find(&p, key, st.depth)
	cur, _ := v.(uint64)
	st.set(m.raw.epoch, &p, key, uint64(int64(cur)+delta))
}

// rawAddAt is rawAdd with the key already placed and the eager path's
// checks inside the critical section: a slot that holds no counter, or a
// counter below floor, is refused unchanged.
func (m *Map) rawAddAt(p *placement, key string, delta int64, floor uint64) error {
	st := m.raw.lock(p)
	defer st.mu.Unlock()
	v, had := st.root.find(p, key, st.depth)
	cur, isUint := v.(uint64)
	if had && !isUint {
		return fmt.Errorf("%w: %s[%q] holds %T", ErrNotCounter, m.name, key, v)
	}
	if cur < floor {
		return fmt.Errorf("%s[%q]: %d - %d: %w", m.name, key, cur, floor, ErrUnderflow)
	}
	st.set(m.raw.epoch, p, key, uint64(int64(cur)+delta))
	return nil
}

// lock locks and returns the stripe that holds the key placed at p: the
// whole map, or the stripe of p's first nibble. A snapshot or restore may
// stripe or unstripe the map while lock waits, so the choice is checked
// again under the mutex.
func (r *rawMap) lock(p *placement) *stripe {
	for {
		st := &r.whole
		if r.striped.Load() {
			st = &r.stripes[p[0]>>4]
		}
		st.mu.Lock()
		if r.striped.Load() == (st != &r.whole) {
			return st
		}
		st.mu.Unlock()
	}
}

// lockAll takes every mutex of the map, whole's first.
func (r *rawMap) lockAll() {
	r.whole.mu.Lock()
	if r.stripes != nil {
		for i := range r.stripes {
			r.stripes[i].mu.Lock()
		}
	}
}

func (r *rawMap) unlockAll() {
	if r.stripes != nil {
		for i := range r.stripes {
			r.stripes[i].mu.Unlock()
		}
	}
	r.whole.mu.Unlock()
}

// count returns the number of entries. The caller holds every mutex.
func (r *rawMap) count() int {
	n := r.base + r.whole.added
	if r.stripes != nil {
		for i := range r.stripes {
			n += r.stripes[i].added
		}
	}
	return n
}

// roots returns the stripes' roots. The caller holds every mutex and the
// map is striped.
func (r *rawMap) roots() *[16]*node {
	var roots [16]*node
	for i := range r.stripes {
		roots[i] = r.stripes[i].root
	}
	return &roots
}

// settle makes v the current contents and applies the striping rule to
// its top node: O(16) whatever the map holds. The caller holds every
// mutex.
func (r *rawMap) settle(v version) {
	r.base = v.count
	r.whole.added = 0
	striped := v.trie != nil && v.trie.nodemap == 1<<16-1
	if striped && r.stripes == nil {
		// Held from birth, like every other mutex, for unlockAll.
		r.stripes = new([16]stripe)
		for i := range r.stripes {
			r.stripes[i].depth = 1
			r.stripes[i].mu.Lock()
		}
	}
	if r.stripes != nil {
		for i := range r.stripes {
			r.stripes[i].root, r.stripes[i].added = nil, 0
			if striped {
				r.stripes[i].root = v.trie.kids[i]
			}
		}
	}
	r.whole.root = nil
	if !striped {
		r.whole.root = v.trie
	}
	r.striped.Store(striped)
}

// set binds key to v, or unbinds it when v is the zero counter, editing
// nodes of epoch in place. The caller holds st's mutex.
func (st *stripe) set(epoch uint64, p *placement, key string, v any) {
	if n, isUint := v.(uint64); isUint && n == 0 {
		st.unset(epoch, p, key) // canonical zero: see rawPut
		return
	}
	root, added := st.root.put(epoch, p, key, v, st.depth)
	st.root = root
	if added {
		st.added++
	}
}

// unset unbinds key. A root left with no entry and no child is an empty
// stripe. The caller holds st's mutex.
func (st *stripe) unset(epoch uint64, p *placement, key string) {
	root, removed := st.root.remove(epoch, p, key, st.depth)
	if !removed {
		return
	}
	st.added--
	if root.datamap|root.nodemap == 0 {
		root = nil
	}
	st.root = root
}

// Undo implements stm.Undoer: it takes back one write this map logged.
func (m *Map) Undo(u *stm.Undo) {
	p := placeKey(u.Key)
	switch u.Op {
	case undoRestore:
		m.rawPut(&p, u.Key, u.Old)
	case undoUnbind:
		m.rawDelete(&p, u.Key)
	case undoAdd:
		_ = m.rawAddAt(&p, u.Key, -u.Delta, 0)
	}
}

// Len returns the raw size (diagnostics/tests only; not transactional).
func (m *Map) Len() int {
	m.raw.lockAll()
	defer m.raw.unlockAll()
	return m.raw.count()
}

// GetIn reads key's binding in the version of this map that snap holds,
// whatever the map has become since. A snapshot's nodes are never edited,
// so this takes no lock and may run beside transactions.
func (m *Map) GetIn(snap Snapshot, key string) (any, bool) {
	if m.id >= uint64(len(snap.versions)) {
		return nil, false
	}
	p := placeKey(key)
	return snap.versions[m.id].trie.find(&p, key, 0)
}

// objectName implements object.
func (m *Map) objectName() string { return m.name }

// root implements object. A striped map's stripes are hashed straight
// into the top node's preimage, with no top node built.
func (m *Map) root(h *hasher) (types.Hash, error) {
	m.raw.lockAll()
	defer m.raw.unlockAll()
	if !m.raw.striped.Load() {
		return h.mapRoot(m.raw.whole.root)
	}
	return h.slots(m.raw.roots())
}

// snapshot implements object: the version is the top node, and bumping the
// epoch freezes everything under it. A striped map's top node is
// assembled from the stripes.
func (m *Map) snapshot() version {
	m.raw.lockAll()
	defer m.raw.unlockAll()
	v := version{trie: m.raw.whole.root, count: m.raw.count()}
	if m.raw.striped.Load() {
		v.trie = assemble(m.raw.epoch, m.raw.roots())
	}
	m.raw.epoch++
	m.raw.settle(v)
	return v
}

// restore implements object: v's top node is split into stripes when the
// striping rule holds. The map's epoch is newer than every node v
// reaches, so the first edit of each copies it.
func (m *Map) restore(v version) {
	m.raw.lockAll()
	defer m.raw.unlockAll()
	m.raw.settle(v)
}
