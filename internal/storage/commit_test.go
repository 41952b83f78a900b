package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"contractstm/internal/gas"
	"contractstm/internal/runtime"
	"contractstm/internal/stm"
	"contractstm/internal/types"
)

// The oracle for the state commitment is its definition, computed from
// nothing but the contents: no trie, no cache, no history. Everything the
// store computes incrementally must equal it.

// model is the expected contents of a diffWorld's four objects.
type model struct {
	m, sm map[string]any
	a     []any
	c     any
}

func (md model) clone() model {
	cp := model{m: make(map[string]any, len(md.m)), sm: make(map[string]any, len(md.sm)), c: md.c}
	for k, v := range md.m {
		cp.m[k] = v
	}
	for k, v := range md.sm {
		cp.sm[k] = v
	}
	cp.a = append([]any(nil), md.a...)
	return cp
}

func mustEncode(t testing.TB, v any) []byte {
	t.Helper()
	enc, err := encodeValue(v)
	if err != nil {
		t.Fatalf("encode %#v: %v", v, err)
	}
	return enc
}

type placed struct {
	key  string
	path placement
	leaf types.Hash
}

// nibbleOf is the oracle's own reading of a placement.
func nibbleOf(p placement, depth int) int {
	return int(p[depth/2]>>(4*(1-depth%2))) & 15
}

func oracleLeaf(t testing.TB, key string, v any) types.Hash {
	b := binary.BigEndian.AppendUint32([]byte{0x00}, uint32(len(key)))
	b = append(b, key...)
	return sha256.Sum256(append(b, mustEncode(t, v)...))
}

func oracleMap(t testing.TB, m map[string]any) types.Hash {
	if len(m) == 0 {
		return sha256.Sum256([]byte{0x02})
	}
	es := make([]placed, 0, len(m))
	for k, v := range m {
		es = append(es, placed{key: k, path: placeKey(k), leaf: oracleLeaf(t, k, v)})
	}
	sort.Slice(es, func(i, j int) bool { return es[i].key < es[j].key })
	return oracleSubtree(es, 0)
}

// oracleSubtree commits to entries (sorted by key) that share their first
// depth nibbles.
func oracleSubtree(es []placed, depth int) types.Hash {
	if len(es) == 1 {
		return es[0].leaf
	}
	if depth == 64 {
		b := binary.BigEndian.AppendUint32([]byte{0x03}, uint32(len(es)))
		for _, e := range es {
			b = append(b, e.leaf[:]...)
		}
		return sha256.Sum256(b)
	}
	var slots [16][]placed
	for _, e := range es {
		n := nibbleOf(e.path, depth)
		slots[n] = append(slots[n], e)
	}
	var occupied uint16
	var subs []byte
	for n, slot := range slots {
		if len(slot) > 0 {
			occupied |= 1 << n
			h := oracleSubtree(slot, depth+1)
			subs = append(subs, h[:]...)
		}
	}
	b := binary.BigEndian.AppendUint16([]byte{0x01}, occupied)
	return sha256.Sum256(append(b, subs...))
}

func oracleArray(t testing.TB, a []any) types.Hash {
	b := binary.BigEndian.AppendUint32([]byte{0x04}, uint32(len(a)))
	for _, v := range a {
		enc := mustEncode(t, v)
		b = append(binary.BigEndian.AppendUint32(b, uint32(len(enc))), enc...)
	}
	return sha256.Sum256(b)
}

func oracleCell(t testing.TB, v any) types.Hash {
	return sha256.Sum256(append([]byte{0x05}, mustEncode(t, v)...))
}

// oracleStore folds named object roots; names in any order.
func oracleStore(roots map[string]types.Hash) types.Hash {
	names := make([]string, 0, len(roots))
	for n := range roots {
		names = append(names, n)
	}
	sort.Strings(names)
	b := binary.BigEndian.AppendUint32([]byte{0x06}, uint32(len(names)))
	for _, n := range names {
		h := roots[n]
		b = append(binary.BigEndian.AppendUint32(b, uint32(len(n))), n...)
		b = append(b, h[:]...)
	}
	return sha256.Sum256(b)
}

func (md model) root(t testing.TB) types.Hash {
	return oracleStore(map[string]types.Hash{
		"d/map":     oracleMap(t, md.m),
		"d/structs": oracleMap(t, md.sm),
		"d/array":   oracleArray(t, md.a),
		"d/cell":    oracleCell(t, md.c),
	})
}

// getRaw, putRaw and deleteRaw are the raw accessors with the key placed
// for them, for tests that edit a map outside any transaction.
func (m *Map) getRaw(key string) (any, bool) {
	p := placeKey(key)
	return m.rawGet(&p, key)
}

func (m *Map) putRaw(key string, v any) {
	p := placeKey(key)
	m.rawPut(&p, key, v)
}

func (m *Map) deleteRaw(key string) {
	p := placeKey(key)
	m.rawDelete(&p, key)
}

// weakPlacement keeps one byte of the real placement, so a few dozen keys
// already share whole paths: long single-child chains and collision
// buckets, which SHA-256 itself never produces.
func weakPlacement(t testing.TB) {
	weakenPlacement = func(p placement) placement { return placement{0: p[0]} }
	t.Cleanup(func() { weakenPlacement = nil })
}

// diffWorld is a store with one object of each kind (two maps, one of
// them holding struct values) driven beside its model.
type diffWorld struct {
	s     *Store
	m, sm *Map
	a     *Array
	c     *Cell
	model model
	kept  []keptSnapshot
	// undone records the writes a revert or a child's abort took back.
	undone map[undone]bool
}

// keptSnapshot is a retained snapshot with what it must restore to.
type keptSnapshot struct {
	snap  Snapshot
	model model
	root  types.Hash
	state []byte
}

func newDiffObjects(t testing.TB) (*Store, *Map, *Map, *Array, *Cell) {
	t.Helper()
	s := NewStore()
	m, err := NewMap(s, "d/map")
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewMap(s, "d/structs")
	if err != nil {
		t.Fatal(err)
	}
	sm.DecodeStructs(decodePair)
	a, err := NewArray(s, "d/array")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCell(s, "d/cell", uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	return s, m, sm, a, c
}

func newDiffWorld(t testing.TB) *diffWorld {
	w := &diffWorld{model: model{m: map[string]any{}, sm: map[string]any{}, c: uint64(0)}, undone: map[undone]bool{}}
	w.s, w.m, w.sm, w.a, w.c = newDiffObjects(t)
	return w
}

// script is the bytes that drive a run; it reads as zeros once spent.
type script struct {
	data []byte
	pos  int
}

func (sc *script) next() int {
	if sc.pos >= len(sc.data) {
		return 0
	}
	b := sc.data[sc.pos]
	sc.pos++
	return int(b)
}

func (sc *script) spent() bool { return sc.pos >= len(sc.data) }

func (sc *script) value() any {
	n := sc.next()
	switch n % 9 {
	case 0:
		return uint64(0) // canonically absent in a map
	case 1:
		return uint64(n)
	case 2:
		return n%2 == 0
	case 3:
		return n
	case 4:
		return fmt.Sprint("s", n)
	case 5:
		return types.AddressFromUint64(uint64(n))
	case 6:
		return types.HashString(fmt.Sprint(n))
	case 7:
		return types.Amount(n)
	default:
		return nil
	}
}

// step runs one scripted step and checks the commitment after it.
func (w *diffWorld) step(t testing.TB, sc *script) {
	t.Helper()
	switch op := sc.next() % 12; {
	case op < 8:
		w.transact(t, sc)
	case op == 8:
		w.keep(t, sc)
	case op == 9:
		if len(w.kept) > 0 {
			k := w.kept[sc.next()%len(w.kept)]
			w.s.Restore(k.snap)
			w.model = k.model.clone()
		}
	case op == 10:
		w.rebuild(t)
	default:
		if len(w.kept) > 0 {
			w.checkKept(t, sc.next()%len(w.kept))
		}
	}
	w.check(t)
}

// check compares the store with the model: root, sizes, and every value.
func (w *diffWorld) check(t testing.TB) {
	t.Helper()
	got, err := w.s.StateRoot()
	if err != nil {
		t.Fatalf("state root: %v", err)
	}
	if want := w.model.root(t); got != want {
		t.Fatalf("incremental root %s, from-scratch oracle %s", got.Short(), want.Short())
	}
	for _, side := range []struct {
		m    *Map
		want map[string]any
	}{{w.m, w.model.m}, {w.sm, w.model.sm}} {
		if side.m.Len() != len(side.want) {
			t.Fatalf("%s holds %d entries, model %d", side.m.Name(), side.m.Len(), len(side.want))
		}
		for k, v := range side.want {
			if got, ok := side.m.getRaw(k); !ok || got != v {
				t.Fatalf("%s[%q] = %#v (bound %v), model %#v", side.m.Name(), k, got, ok, v)
			}
		}
	}
}

// regimes begin the root transactions diffWorld runs, one per way a root
// can execute storage operations. The eager speculative, serial and
// replay roots write in place and undo from their log (undo); the lazy
// speculative and OCC roots buffer their writes.
var regimes = []struct {
	name  string
	undo  bool
	begin func(th runtime.Thread) *stm.Tx
}{
	{"eager", true, func(th runtime.Thread) *stm.Tx {
		return stm.BeginSpeculative(stm.NewManager(gas.DefaultSchedule()), 0, th, 10_000_000, stm.PolicyEager)
	}},
	{"serial", true, func(th runtime.Thread) *stm.Tx { return stm.BeginSerial(0, th, 10_000_000, gas.DefaultSchedule()) }},
	{"replay", true, func(th runtime.Thread) *stm.Tx { return stm.BeginReplay(0, th, 10_000_000, gas.DefaultSchedule()) }},
	{"lazy", false, func(th runtime.Thread) *stm.Tx {
		return stm.BeginSpeculative(stm.NewManager(gas.DefaultSchedule()), 0, th, 10_000_000, stm.PolicyLazy)
	}},
	{"occ", false, func(th runtime.Thread) *stm.Tx { return stm.BeginOCC(0, th, 10_000_000, gas.DefaultSchedule()) }},
}

// undoOps names every write that has an inverse, as operate reports it.
var undoOps = []string{
	"Map.Put new", "Map.Put overwrite", "Map.Delete", "Map.AddUint", "Map.SubUint",
	"Array.Set", "Array.Push", "Array.AddUint", "Cell.Write", "Cell.AddUint",
}

// undone is one write taken back: in which regime, and by a revert of
// its root or an abort of the nested child it ran in.
type undone struct {
	regime, op string
	byChild    bool
}

// transact runs a few operations in one root transaction under a scripted
// regime, sometimes followed by a few in a nested child that commits or
// aborts, and then commits, aborts or reverts the root. Operations may
// fail (underflow, not a counter, out of range); a failed one has no
// effect. A child's abort must put the state root back byte for byte to
// what it was when the child began, and a root's abort or revert to what
// it was before the transaction; each write taken back is recorded in
// w.undone.
func (w *diffWorld) transact(t testing.TB, sc *script) {
	t.Helper()
	rg := regimes[sc.next()%len(regimes)]
	before, rootBefore := w.model.clone(), w.root(t)
	settled := true
	_, err := runtime.NewSimRunner().Run(1, func(th runtime.Thread) {
		tx := rg.begin(th)
		ops := w.operations(tx, sc)
		if sc.next()%2 == 0 {
			child, err := tx.BeginNested()
			if err != nil {
				t.Errorf("begin nested: %v", err)
				return
			}
			mid, midRoot := w.model.clone(), w.root(t)
			childOps := w.operations(child, sc)
			if sc.next()%2 == 0 {
				if err := child.Abort(); err != nil {
					t.Errorf("abort child: %v", err)
				}
				w.model = mid
				if got := w.root(t); got != midRoot {
					t.Errorf("%s: child abort leaves root %s, was %s when it began", rg.name, got.Short(), midRoot.Short())
				}
				w.recordUndone(rg.name, childOps, true)
			} else {
				if err := child.Commit(); err != nil {
					t.Errorf("commit child: %v", err)
				}
				ops = append(ops, childOps...)
			}
		}
		switch sc.next() % 4 {
		case 0:
			settled = false
			if err := tx.Abort(); err != nil {
				t.Errorf("abort: %v", err)
			}
		case 1:
			settled = false
			if err := tx.Revert(); err != nil {
				t.Errorf("revert: %v", err)
			}
			w.recordUndone(rg.name, ops, false)
		default:
			if err := tx.Commit(); err != nil {
				t.Errorf("commit: %v", err)
			}
			if ov := tx.PendingWrites(); ov != nil {
				ov.Apply()
			}
		}
	})
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if !settled {
		w.model = before
		if got := w.root(t); got != rootBefore {
			t.Fatalf("%s: undoing the root leaves root %s, was %s before it", rg.name, got.Short(), rootBefore.Short())
		}
	}
}

// root returns the store's current state root, failing the test on error.
func (w *diffWorld) root(t testing.TB) types.Hash {
	root, err := w.s.StateRoot()
	if err != nil {
		t.Errorf("state root: %v", err)
	}
	return root
}

// operations performs one to four scripted operations under tx and
// returns the names of those that took effect.
func (w *diffWorld) operations(tx *stm.Tx, sc *script) []string {
	var ops []string
	for n := 1 + sc.next()%4; n > 0; n-- {
		if op := w.operate(tx, sc); op != "" {
			ops = append(ops, op)
		}
	}
	return ops
}

func (w *diffWorld) recordUndone(regime string, ops []string, byChild bool) {
	for _, op := range ops {
		w.undone[undone{regime: regime, op: op, byChild: byChild}] = true
	}
}

// operate performs one scripted storage operation on the store and, if it
// succeeded, on the model, and returns its name ("" if it failed).
func (w *diffWorld) operate(tx *stm.Tx, sc *script) string {
	md := &w.model
	key := fmt.Sprint("k", sc.next()%40)
	setCounter := func(m map[string]any, n uint64) {
		if n == 0 {
			delete(m, key)
		} else {
			m[key] = n
		}
	}
	put := func(m map[string]any) string {
		if _, had := m[key]; had {
			return "Map.Put overwrite"
		}
		return "Map.Put new"
	}
	switch sc.next() % 12 {
	case 0, 1:
		v, op := sc.value(), put(md.m)
		if w.m.Put(tx, key, v) == nil {
			if v == uint64(0) {
				delete(md.m, key)
			} else {
				md.m[key] = v
			}
			return op
		}
	case 2:
		if _, had := md.m[key]; w.m.Delete(tx, key) == nil && had {
			delete(md.m, key)
			return "Map.Delete"
		}
	case 3, 4:
		d := uint64(1 + sc.next()%3)
		if w.m.AddUint(tx, key, d) == nil {
			cur, _ := md.m[key].(uint64)
			setCounter(md.m, cur+d)
			return "Map.AddUint"
		}
	case 5, 6:
		// Often exactly the current value: down to zero and absent.
		cur, _ := md.m[key].(uint64)
		d := cur
		if sc.next()%2 == 0 {
			d = uint64(1 + sc.next()%3)
		}
		if w.m.SubUint(tx, key, d) == nil {
			setCounter(md.m, cur-d)
			return "Map.SubUint"
		}
	case 7:
		p := pair{byte(sc.next()), byte(sc.next())}
		if sc.next()%4 == 0 {
			if _, had := md.sm[key]; w.sm.Delete(tx, key) == nil && had {
				delete(md.sm, key)
				return "Map.Delete"
			}
		} else if op := put(md.sm); w.sm.Put(tx, key, p) == nil {
			md.sm[key] = p
			return op
		}
	case 8:
		// Counters half the time, so that Array.AddUint finds some.
		v := sc.value()
		if sc.next()%2 == 0 {
			v = uint64(1 + sc.next())
		}
		if _, err := w.a.Push(tx, v); err == nil {
			md.a = append(md.a, v)
			return "Array.Push"
		}
	case 9:
		i, v := sc.next()%8, sc.value()
		if w.a.Set(tx, i, v) == nil {
			md.a[i] = v
			return "Array.Set"
		}
	case 10:
		i, d := sc.next()%8, uint64(1+sc.next()%3)
		if w.a.AddUint(tx, i, d) == nil {
			md.a[i] = md.a[i].(uint64) + d
			return "Array.AddUint"
		}
	default:
		if sc.next()%2 == 0 {
			v := sc.value()
			if w.c.Write(tx, v) == nil {
				md.c = v
				return "Cell.Write"
			}
		} else if d := uint64(1 + sc.next()%3); w.c.AddUint(tx, d) == nil {
			md.c = md.c.(uint64) + d
			return "Cell.AddUint"
		}
	}
	return ""
}

// keep retains a snapshot of the current state, replacing a scripted one
// once eight are held.
func (w *diffWorld) keep(t testing.TB, sc *script) {
	t.Helper()
	state, err := w.s.EncodeState()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	k := keptSnapshot{snap: w.s.Snapshot(), model: w.model.clone(), root: w.model.root(t), state: state}
	if len(w.kept) < 8 {
		w.kept = append(w.kept, k)
	} else {
		w.kept[sc.next()%len(w.kept)] = k
	}
}

// checkKept restores retained snapshot i and requires the root and the
// contents it was taken at, then returns to the present: whatever happened
// since must not have reached into it.
func (w *diffWorld) checkKept(t testing.TB, i int) {
	t.Helper()
	k := w.kept[i]
	now := w.s.Snapshot()
	w.s.Restore(k.snap)
	root, err := w.s.StateRoot()
	if err != nil {
		t.Fatalf("state root: %v", err)
	}
	state, err := w.s.EncodeState()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if root != k.root || !bytes.Equal(state, k.state) {
		t.Fatalf("retained snapshot %d restores to root %s, taken at %s (contents equal: %v)",
			i, root.Short(), k.root.Short(), bytes.Equal(state, k.state))
	}
	w.s.Restore(now)
}

// rebuild carries the state into a fresh store through the state stream:
// the same contents by a different history must give the same root and
// the same bytes.
func (w *diffWorld) rebuild(t testing.TB) {
	t.Helper()
	state, err := w.s.EncodeState()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	fresh, _, _, _, _ := newDiffObjects(t)
	snap, err := fresh.DecodeState(state)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	fresh.Restore(snap)
	got, err := fresh.StateRoot()
	if err != nil {
		t.Fatalf("state root: %v", err)
	}
	if want := w.model.root(t); got != want {
		t.Fatalf("rebuilt store hashes to %s, oracle %s", got.Short(), want.Short())
	}
	if again, err := fresh.EncodeState(); err != nil || !bytes.Equal(again, state) {
		t.Fatalf("rebuilt store encodes differently (err %v)", err)
	}
}

// runScript drives a whole script (at most steps steps of it) and ends by
// checking every retained snapshot. It returns the writes it saw undone.
func runScript(t testing.TB, data []byte, steps int) map[undone]bool {
	t.Helper()
	w, sc := newDiffWorld(t), &script{data: data}
	w.check(t)
	for i := 0; i < steps && !sc.spent(); i++ {
		w.step(t, sc)
	}
	for i := range w.kept {
		w.checkKept(t, i)
	}
	w.check(t)
	return w.undone
}

// TestStateRootIncremental is the generated differential test of the
// commitment: random histories of every kind of write under every regime,
// interleaved with snapshots, restores to any retained snapshot and trips
// through the state stream, against the from-scratch oracle after every
// step. The weak placement runs the same histories through chains and
// collision buckets. The histories must take back every write that has an
// inverse both by reverting its root and by aborting the nested child it
// ran in, under every regime that keeps an undo log.
func TestStateRootIncremental(t *testing.T) {
	seeds, steps := 24, 160
	if testing.Short() {
		seeds = 6
	}
	seen := map[undone]bool{}
	for _, placementName := range []string{"sha256", "weak"} {
		t.Run(placementName, func(t *testing.T) {
			if placementName == "weak" {
				weakPlacement(t)
			}
			for seed := int64(1); seed <= int64(seeds); seed++ {
				data := make([]byte, 16*steps)
				rand.New(rand.NewSource(seed)).Read(data)
				ok := t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
					for u := range runScript(t, data, steps) {
						seen[u] = true
					}
				})
				if !ok {
					t.Fatalf("failing seed: %d (placement %s)", seed, placementName)
				}
			}
		})
	}
	if testing.Short() {
		return // six seeds are too few to reach every write under every regime
	}
	for _, rg := range regimes {
		for _, op := range undoOps {
			for _, byChild := range []bool{false, true} {
				if u := (undone{regime: rg.name, op: op, byChild: byChild}); rg.undo && !seen[u] {
					t.Errorf("no history undid %s under %s (by a child's abort: %v)", op, rg.name, byChild)
				}
			}
		}
	}
}

// FuzzStateRootIncremental drives the same step function from bytes. The
// first byte picks the placement.
func FuzzStateRootIncremental(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Add([]byte{1, 8, 0, 3, 3, 1, 1, 1, 9, 0, 11, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 && data[0]%2 == 1 {
			weakPlacement(t)
		}
		runScript(t, data, 400)
	})
}

// TestCollisionBucket: keys whose whole placements collide sit in one
// bucket, in key order whatever the insertion order, and leave it one by
// one without trace.
func TestCollisionBucket(t *testing.T) {
	elsewhere := placement(sha256.Sum256([]byte("elsewhere")))
	weakenPlacement = func(p placement) placement {
		if p == elsewhere {
			return p
		}
		return placement{}
	}
	t.Cleanup(func() { weakenPlacement = nil })

	build := func(keys ...string) (*Store, *Map) {
		s := NewStore()
		m := mustMap(t, s, "m")
		for _, k := range keys {
			m.putRaw(k, uint64(len(k)))
		}
		return s, m
	}
	root := func(s *Store) types.Hash {
		h, err := s.StateRoot()
		if err != nil {
			t.Fatalf("state root: %v", err)
		}
		return h
	}
	want := func(keys ...string) types.Hash {
		m := map[string]any{}
		for _, k := range keys {
			m[k] = uint64(len(k))
		}
		return oracleStore(map[string]types.Hash{"m": oracleMap(t, m)})
	}

	s1, m1 := build("a", "bb", "ccc", "elsewhere")
	s2, _ := build("ccc", "elsewhere", "bb", "a")
	if root(s1) != root(s2) || root(s1) != want("a", "bb", "ccc", "elsewhere") {
		t.Fatal("a collision bucket's root depends on insertion order, or is not the oracle's")
	}
	for _, k := range []string{"a", "bb", "ccc"} {
		if v, ok := m1.getRaw(k); !ok || v != uint64(len(k)) {
			t.Fatalf("bucket lookup of %q: %v %v", k, v, ok)
		}
	}
	if _, ok := m1.getRaw("dddd"); ok {
		t.Fatal("found a key that collides with the bucket but is not in it")
	}
	snap := s1.Snapshot()
	m1.deleteRaw("bb")
	if root(s1) != want("a", "ccc", "elsewhere") {
		t.Fatal("root after leaving a three-key bucket")
	}
	m1.deleteRaw("a")
	if root(s1) != want("ccc", "elsewhere") {
		t.Fatal("root after the bucket shrank to one key: it must collapse to an inline entry")
	}
	m1.deleteRaw("elsewhere")
	if root(s1) != want("ccc") || m1.Len() != 1 {
		t.Fatal("root of a single entry must be its leaf")
	}
	s1.Restore(snap)
	if root(s1) != want("a", "bb", "ccc", "elsewhere") || m1.Len() != 4 {
		t.Fatal("deleting out of a bucket reached into the snapshot taken before")
	}
}

// TestStateRootSeparatesKeyFromValue: moving bytes across the key/value
// boundary changes the root.
func TestStateRootSeparatesKeyFromValue(t *testing.T) {
	rootOf := func(key, val string) types.Hash {
		s := NewStore()
		mustMap(t, s, "m").putRaw(key, val)
		h, err := s.StateRoot()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	if rootOf("k1", "v1") == rootOf("k1v", "1") {
		t.Fatal("state root does not separate key and value boundaries")
	}
	if rootOf("k", "1") == rootOf("k", "2") {
		t.Fatal("changing a value did not change the state root")
	}
}

// TestStateRootOfEmptyObjects: empty objects have fixed roots, distinct by
// kind and bound to their names.
func TestStateRootOfEmptyObjects(t *testing.T) {
	rootOf := func(build func(*Store)) types.Hash {
		s := NewStore()
		build(s)
		h, err := s.StateRoot()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	none := rootOf(func(*Store) {})
	emptyMap := rootOf(func(s *Store) { mustMap(t, s, "x") })
	emptyArray := rootOf(func(s *Store) {
		if _, err := NewArray(s, "x"); err != nil {
			t.Fatal(err)
		}
	})
	otherName := rootOf(func(s *Store) { mustMap(t, s, "y") })
	if none != oracleStore(nil) || emptyMap != oracleStore(map[string]types.Hash{"x": sha256.Sum256([]byte{0x02})}) {
		t.Fatal("empty store or empty map is not the fixed hash the commitment defines")
	}
	if emptyMap == none || emptyMap == emptyArray || emptyMap == otherName {
		t.Fatal("empty objects of different kinds or names share a root")
	}
	// A map emptied by deletes is an empty map again.
	s := NewStore()
	m := mustMap(t, s, "x")
	m.putRaw("a", uint64(1))
	m.putRaw("b", uint64(2))
	m.rawAdd("a", -1)
	m.deleteRaw("b")
	if h, _ := s.StateRoot(); h != emptyMap {
		t.Fatal("a map emptied by deletes does not hash like a map that was never written")
	}
}

// TestStateRootHashesOnlyWrittenLeaves pins the leaf-hash cache: after a
// root, a block that writes K distinct keys of a large map — overwrites,
// inserts, deletes that pull a sibling back inline — makes the next root
// hash exactly the K written leaves (a delete leaves none to hash). A
// dirtied node's other entries and every entry that moved keep their
// cached hash.
func TestStateRootHashesOnlyWrittenLeaves(t *testing.T) {
	const size, k = 1 << 14, 600
	s := NewStore()
	m := mustMap(t, s, "m")
	contents := make(map[string]any, size+k)
	for i := 0; i < size; i++ {
		key := fmt.Sprint("k", i)
		m.putRaw(key, uint64(i+1))
		contents[key] = uint64(i + 1)
	}
	var h hasher
	if _, err := s.stateRoot(&h); err != nil {
		t.Fatal(err)
	}
	if h.leaves != size {
		t.Fatalf("first root hashed %d leaves of %d", h.leaves, size)
	}
	s.Snapshot() // later writes copy their paths, as a block's do
	for i := 0; i < k/2; i++ {
		over, fresh, gone := fmt.Sprint("k", 7*i), fmt.Sprint("new", i), fmt.Sprint("k", 7*i+3)
		m.putRaw(over, "v"+over)
		contents[over] = "v" + over
		m.putRaw(fresh, uint64(1))
		contents[fresh] = uint64(1)
		m.deleteRaw(gone)
		delete(contents, gone)
	}
	h = hasher{}
	got, err := s.stateRoot(&h)
	if err != nil {
		t.Fatal(err)
	}
	if h.leaves != k {
		t.Errorf("root after writing %d keys hashed %d leaves", k, h.leaves)
	}
	if want := oracleStore(map[string]types.Hash{"m": oracleMap(t, contents)}); got != want {
		t.Fatalf("root %s, oracle %s", got.Short(), want.Short())
	}
}

// TestGetInDuringStateRoot: the hasher fills the leaf and node caches of
// nodes that retained snapshots share, while readers use GetIn on those
// snapshots with no lock. Under -race this shows the caches are not
// shared memory with the readers; without it, that every snapshot still
// reads as it was taken.
func TestGetInDuringStateRoot(t *testing.T) {
	const keys, rounds, readers = 512, 40, 2
	s := NewStore()
	m := mustMap(t, s, "m")
	key := func(i int) string { return fmt.Sprint("k", i) }
	for i := 0; i < keys; i++ {
		m.putRaw(key(i), uint64(1))
	}
	type retained struct {
		snap Snapshot
		val  uint64 // every key of the snapshot binds val
	}
	snaps := make([]chan retained, readers)
	done := make(chan error, readers)
	for r := range snaps {
		snaps[r] = make(chan retained, rounds)
		go func(in <-chan retained) {
			var held []retained
			for {
				select {
				case rt, ok := <-in:
					if !ok {
						done <- nil
						return
					}
					held = append(held, rt)
				default:
				}
				for _, rt := range held {
					for i := 0; i < keys; i += 7 {
						if v, ok := m.GetIn(rt.snap, key(i)); !ok || v != rt.val {
							done <- fmt.Errorf("snapshot of round %d reads %q = %v (%v)", rt.val, key(i), v, ok)
							return
						}
					}
				}
			}
		}(snaps[r])
	}
	for round := uint64(1); round <= rounds; round++ {
		for i := 0; i < keys; i++ {
			m.putRaw(key(i), round)
		}
		// Taken before the root: its nodes carry no hash yet, so the root
		// below fills caches in nodes the readers hold.
		snap := s.Snapshot()
		for _, in := range snaps {
			in <- retained{snap, round}
		}
		if _, err := s.StateRoot(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.EncodeState(); err != nil {
			t.Fatal(err)
		}
	}
	for _, in := range snaps {
		close(in)
	}
	for range snaps {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// plainTrie builds contents as one trie at depth 0, the way readState
// does: the shape a map's stripes must be indistinguishable from.
func plainTrie(contents map[string]any) *node {
	var n *node
	for k, v := range contents {
		p := placeKey(k)
		n, _ = n.put(0, &p, k, v, 0)
	}
	return n
}

// checkPlain compares m with the plain trie of want: size, every binding,
// the map's root, and a snapshot's version read through GetIn and hashed.
func checkPlain(t testing.TB, s *Store, m *Map, want map[string]any) {
	t.Helper()
	var h hasher
	wantRoot, err := h.mapRoot(plainTrie(want))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := m.root(&h); err != nil || got != wantRoot {
		t.Fatalf("%s: root %s (err %v), plain trie %s", m.Name(), got.Short(), err, wantRoot.Short())
	}
	if m.Len() != len(want) {
		t.Fatalf("%s holds %d entries, model %d", m.Name(), m.Len(), len(want))
	}
	snap := s.Snapshot()
	if v := snap.versions[m.id]; v.count != len(want) {
		t.Fatalf("%s: snapshot counts %d entries, model %d", m.Name(), v.count, len(want))
	} else if got, err := h.mapRoot(v.trie); err != nil || got != wantRoot {
		t.Fatalf("%s: snapshot's top node hashes to %s (err %v), plain trie %s", m.Name(), got.Short(), err, wantRoot.Short())
	}
	for k, v := range want {
		if got, ok := m.getRaw(k); !ok || got != v {
			t.Fatalf("%s[%q] = %#v (bound %v), model %#v", m.Name(), k, got, ok, v)
		}
		if got, ok := m.GetIn(snap, k); !ok || got != v {
			t.Fatalf("GetIn %s[%q] = %#v (bound %v), model %#v", m.Name(), k, got, ok, v)
		}
	}
}

// raceOp is one operation of a concurrent round: AddUint when add is set,
// otherwise a Put of val (the zero counter unbinds) or, when del is set, a
// Delete.
type raceOp struct {
	key      string
	add, del bool
	val      uint64
}

// raceRound has two goroutines run ops[0] and ops[1] at once, each in a
// replay root on a thread of its own — the validator's lock-free replay,
// where only the map's mutexes order the two — and then applies both to
// the model. Puts and deletes touch only their goroutine's own keys and
// adds commute, so the outcome is the model's whatever the interleaving.
func (w *diffWorld) raceRound(t testing.TB, ops [2][]raceOp) {
	t.Helper()
	_, err := runtime.NewOSRunner(nil).Run(2, func(th runtime.Thread) {
		tx := stm.BeginReplay(types.TxID(th.ID()), th, 10_000_000, gas.DefaultSchedule())
		for _, op := range ops[th.ID()] {
			var err error
			switch {
			case op.add:
				err = w.m.AddUint(tx, op.key, op.val)
			case op.del:
				err = w.m.Delete(tx, op.key)
			default:
				err = w.m.Put(tx, op.key, op.val)
			}
			if err != nil {
				t.Errorf("%+v: %v", op, err)
				return
			}
		}
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if t.Failed() {
		t.FailNow()
	}
	md := w.model.m
	for _, side := range ops {
		for _, op := range side {
			cur, _ := md[op.key].(uint64)
			switch {
			case op.add:
				cur += op.val
			case op.del:
				cur = 0
			default:
				cur = op.val
			}
			if cur == 0 {
				delete(md, op.key)
			} else {
				md[op.key] = cur
			}
		}
	}
}

// TestConcurrentStripes: two goroutines edit one striped map at once,
// first on disjoint keys and then also adding to keys both touch, and
// after each round the map must be the plain trie of the model — same
// contents, same root — and the store the from-scratch oracle's. A
// snapshot between rounds starts a new epoch, so each round's first write
// to a stripe copies its nodes while the other goroutine edits another.
// CI runs it repeatedly under -race.
func TestConcurrentStripes(t *testing.T) {
	const rounds, perRound, shared = 16, 48, 8
	w := newDiffWorld(t)
	for i := 0; i < 400; i++ {
		k := fmt.Sprint("base", i)
		w.m.putRaw(k, uint64(i+1))
		w.model.m[k] = uint64(i + 1)
	}
	w.s.Snapshot()
	if !w.m.raw.striped.Load() {
		t.Fatal("a map of 400 keys is not striped")
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < rounds; round++ {
		overlap := round >= rounds/2
		var ops [2][]raceOp
		for g := range ops {
			for i := 0; i < perRound; i++ {
				op := raceOp{key: fmt.Sprintf("own%d/%d", g, rng.Intn(64)), val: uint64(rng.Intn(4))}
				switch r := rng.Intn(8); {
				case overlap && r < 3:
					op = raceOp{key: fmt.Sprint("shared", rng.Intn(shared)), add: true, val: uint64(1 + rng.Intn(3))}
				case r < 5:
					op.add, op.val = true, op.val+1
				case r == 5:
					op.del = true
				}
				ops[g] = append(ops[g], op)
			}
		}
		w.raceRound(t, ops)
		w.check(t)
		checkPlain(t, w.s, w.m, w.model.m)
	}
}
