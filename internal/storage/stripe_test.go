package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sort"
	"strings"
	"testing"

	"contractstm/internal/types"
)

// unstriped returns a store whose one map, named name, holds contents as
// one trie at depth 0 whatever its size: the reference a striped map's
// root and state stream must be byte-identical to.
func unstriped(t testing.TB, name string, contents map[string]any) *Store {
	t.Helper()
	s := NewStore()
	m := mustMap(t, s, name)
	m.raw.whole.root, m.raw.base = plainTrie(contents), len(contents)
	return s
}

// stripeWorld is one map driven beside its contents, with retained
// snapshots.
type stripeWorld struct {
	s    *Store
	m    *Map
	want map[string]any
	// keys is want's keys, in an order that depends only on the seed.
	keys []string
	kept []stripeKept
	// crossed counts the snapshots and restores that striped an
	// unstriped map (true) or unstriped a striped one (false).
	crossed map[bool]int
	// sizes counts the sizes the map was checked at while striped.
	sizes map[int]int
}

type stripeKept struct {
	snap Snapshot
	want map[string]any
}

func cloneContents(c map[string]any) map[string]any {
	cp := make(map[string]any, len(c))
	for k, v := range c {
		cp[k] = v
	}
	return cp
}

// check compares the map with the unstriped trie of its contents: state
// root, state stream, size and every binding.
func (w *stripeWorld) check(t testing.TB) {
	t.Helper()
	ref := unstriped(t, w.m.Name(), w.want)
	wantRoot, err := ref.StateRoot()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := w.s.StateRoot(); err != nil || got != wantRoot {
		t.Fatalf("%d entries (striped %v): root %s (err %v), unstriped %s",
			len(w.want), w.m.raw.striped.Load(), got.Short(), err, wantRoot.Short())
	}
	wantState, err := ref.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := w.s.EncodeState(); err != nil || !bytes.Equal(got, wantState) {
		t.Fatalf("%d entries (striped %v): state stream differs from the unstriped one (err %v)",
			len(w.want), w.m.raw.striped.Load(), err)
	}
	if w.m.Len() != len(w.want) {
		t.Fatalf("holds %d entries, model %d", w.m.Len(), len(w.want))
	}
	for k, v := range w.want {
		if got, ok := w.m.getRaw(k); !ok || got != v {
			t.Fatalf("[%q] = %#v (bound %v), model %#v", k, got, ok, v)
		}
	}
	if w.m.raw.striped.Load() {
		w.sizes[len(w.want)]++
	}
}

// settled applies the striping rule's check after a snapshot or restore:
// the map is striped exactly when every slot of its top node holds a
// child.
func (w *stripeWorld) settled(t testing.TB, wasStriped bool) {
	t.Helper()
	top := plainTrie(w.want)
	rule := top != nil && top.nodemap == 1<<16-1
	if got := w.m.raw.striped.Load(); got != rule {
		t.Fatalf("%d entries: striped %v, the rule says %v", len(w.want), got, rule)
	}
	if rule != wasStriped {
		w.crossed[rule]++
	}
}

// checkKept reads retained snapshot i through GetIn, which never sees a
// stripe, and checks that the snapshot's top node is the plain trie's.
func (w *stripeWorld) checkKept(t testing.TB, i int) {
	t.Helper()
	k := w.kept[i]
	v := k.snap.versions[w.m.id]
	var h hasher
	got, err := h.mapRoot(v.trie)
	if err != nil {
		t.Fatal(err)
	}
	want, err := h.mapRoot(plainTrie(k.want))
	if err != nil {
		t.Fatal(err)
	}
	if got != want || v.count != len(k.want) {
		t.Fatalf("retained version %d: root %s over %d entries, plain trie %s over %d",
			i, got.Short(), v.count, want.Short(), len(k.want))
	}
	for key, val := range k.want {
		if got, ok := w.m.GetIn(k.snap, key); !ok || got != val {
			t.Fatalf("GetIn of retained version %d: [%q] = %#v (bound %v), want %#v", i, key, got, ok, val)
		}
	}
	if _, ok := w.m.GetIn(k.snap, "absent"); ok {
		t.Fatalf("GetIn of retained version %d finds a key never bound", i)
	}
}

// runStripes drives random puts and deletes toward sizes on both sides of
// the striping rule, down to 0, 1 and 2 entries, with snapshots, restores
// of retained snapshots and GetIn on them, checking after every step.
func runStripes(t *testing.T, seed int64, steps int) *stripeWorld {
	s := NewStore()
	w := &stripeWorld{s: s, m: mustMap(t, s, "m"), want: map[string]any{}, crossed: map[bool]int{}, sizes: map[int]int{}}
	rng := rand.New(rand.NewSource(seed))
	// First a striped map emptied key by key with no snapshot on the
	// way, checked at every small size.
	for len(w.want) < 160 {
		w.edit(rng, 160)
	}
	w.kept = append(w.kept, stripeKept{snap: s.Snapshot(), want: cloneContents(w.want)})
	w.settled(t, false)
	for len(w.want) > 0 {
		w.edit(rng, 0)
		if len(w.want) <= 17 || len(w.want)%16 == 0 {
			w.check(t)
		}
	}
	targets := []int{0, 1, 2, 17, 40, 96, 160}
	target := 160
	for step := 0; step < steps; step++ {
		if step%40 == 0 {
			target = targets[rng.Intn(len(targets))]
		}
		switch r := rng.Intn(16); {
		case r == 0:
			was := w.m.raw.striped.Load()
			w.kept = append(w.kept, stripeKept{snap: s.Snapshot(), want: cloneContents(w.want)})
			w.settled(t, was)
		case r == 1 && len(w.kept) > 0:
			was := w.m.raw.striped.Load()
			k := w.kept[rng.Intn(len(w.kept))]
			s.Restore(k.snap)
			w.want = cloneContents(k.want)
			w.keys = w.keys[:0]
			for key := range w.want {
				w.keys = append(w.keys, key)
			}
			sort.Strings(w.keys)
			w.settled(t, was)
		case r == 2 && len(w.kept) > 0:
			w.checkKept(t, rng.Intn(len(w.kept)))
		default:
			// Several edits per step, so the map moves between the
			// targets; one step in four goes all the way, so that a
			// striped map reaches a small target with no snapshot on
			// the way.
			n := 8
			if rng.Intn(4) == 0 {
				n = 400
			}
			for i := 0; i < n; i++ {
				w.edit(rng, target)
			}
		}
		w.check(t)
	}
	for i := range w.kept {
		w.checkKept(t, i)
	}
	return w
}

// edit makes one put or delete that moves the map toward target entries,
// or overwrites a binding once it is there.
func (w *stripeWorld) edit(rng *rand.Rand, target int) {
	var val any = uint64(1 + rng.Intn(1000))
	if rng.Intn(4) == 0 {
		val = fmt.Sprint("v", rng.Intn(1000))
	}
	switch {
	case len(w.want) < target || (len(w.want) == target && rng.Intn(2) == 0):
		k := fmt.Sprint("k", rng.Intn(4096))
		if w.want[k] == nil {
			w.keys = append(w.keys, k)
		}
		w.m.putRaw(k, val)
		w.want[k] = val
	case len(w.keys) > 0:
		i := rng.Intn(len(w.keys))
		k := w.keys[i]
		w.keys[i] = w.keys[len(w.keys)-1]
		w.keys = w.keys[:len(w.keys)-1]
		w.m.deleteRaw(k)
		delete(w.want, k)
	}
}

// TestStripeRule: a map crosses the striping rule in both directions
// under random puts, deletes, snapshots and restores, and is checked at
// 0, 1, 2, 17 and more entries while striped as well as while not. Its
// root and state stream must be byte-identical to the unstriped trie's
// throughout, every retained version must read back through GetIn, and
// after each snapshot or restore the map is striped exactly when the rule
// says. The bucket placement puts one key in eight of each stripe into a
// collision bucket of that stripe.
func TestStripeRule(t *testing.T) {
	seeds, steps := 4, 300
	if testing.Short() {
		seeds = 2
	}
	for _, placementName := range []string{"sha256", "bucket"} {
		t.Run(placementName, func(t *testing.T) {
			if placementName == "bucket" {
				weakenPlacement = func(p placement) placement {
					if p[31]%8 == 0 {
						return placement{0: p[0] & 0xf0}
					}
					return p
				}
				t.Cleanup(func() { weakenPlacement = nil })
			}
			crossed, sizes := map[bool]int{}, map[int]int{}
			for seed := int64(1); seed <= int64(seeds); seed++ {
				w := runStripes(t, seed, steps)
				for k, n := range w.crossed {
					crossed[k] += n
				}
				for k, n := range w.sizes {
					sizes[k] += n
				}
			}
			if crossed[true] == 0 || crossed[false] == 0 {
				t.Errorf("the rule was crossed %d times into stripes and %d times out of them; want both",
					crossed[true], crossed[false])
			}
			for _, n := range []int{0, 1, 2, 17} {
				if sizes[n] == 0 {
					t.Errorf("never checked a striped map holding %d entries", n)
				}
			}
		})
	}
}

// clearCaches drops every hash cache in m's current version, so that the
// next root hashes each of its nodes and leaves again.
func clearCaches(m *Map) {
	m.raw.lockAll()
	defer m.raw.unlockAll()
	var clear func(n *node)
	clear = func(n *node) {
		if n == nil {
			return
		}
		n.hash = types.Hash{}
		for i := range n.entries {
			n.entries[i].hash = types.Hash{}
		}
		if n.kids != nil {
			for _, k := range n.kids {
				clear(k)
			}
		}
	}
	clear(m.raw.whole.root)
	if m.raw.stripes != nil {
		for i := range m.raw.stripes {
			clear(m.raw.stripes[i].root)
		}
	}
}

// checkFanOut hashes s from cold caches at GOMAXPROCS = 1, where every
// stripe of m is hashed on the caller, and again at 2, 3 and 16, where
// helpers take stripes: each root must be the inline one, hashed over
// as many leaves, and each error the inline one's. It returns the inline
// error.
func checkFanOut(t testing.TB, s *Store, m *Map) error {
	t.Helper()
	rootAt := func(procs int) (types.Hash, int, error) {
		defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(procs))
		clearCaches(m)
		var h hasher
		root, err := s.stateRoot(&h)
		return root, h.leaves, err
	}
	_, _ = s.StateRoot() // caches every other object's root, so only m's leaves are counted
	want, wantLeaves, wantErr := rootAt(1)
	for _, procs := range []int{2, 3, 16} {
		got, leaves, err := rootAt(procs)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%d entries, GOMAXPROCS %d: error %v, inline %v", m.Len(), procs, err, wantErr)
		}
		if err == nil && (got != want || leaves != wantLeaves) {
			t.Fatalf("%d entries, GOMAXPROCS %d: root %s over %d leaves, inline %s over %d",
				m.Len(), procs, got.Short(), leaves, want.Short(), wantLeaves)
		}
	}
	return wantErr
}

// stripedMap returns a store whose map m holds keys k0 … k(n-1), striped
// by a snapshot, and the keys grouped by stripe.
func stripedMap(t testing.TB, n int) (*Store, *Map, [16][]string) {
	t.Helper()
	s := NewStore()
	m := mustMap(t, s, "m")
	var byStripe [16][]string
	for i := 0; i < n; i++ {
		k := fmt.Sprint("k", i)
		m.putRaw(k, uint64(i+1))
		p := placeKey(k)
		byStripe[p[0]>>4] = append(byStripe[p[0]>>4], k)
	}
	s.Snapshot()
	if !m.raw.striped.Load() {
		t.Fatalf("a map of %d keys is not striped", n)
	}
	return s, m, byStripe
}

// TestStripeFanOutBuckets: a striped map whose stripes hold collision
// buckets — one key in eight of each stripe lands in its stripe's bucket
// — hashes to the inline root at every GOMAXPROCS.
func TestStripeFanOutBuckets(t *testing.T) {
	weakenPlacement = func(p placement) placement {
		if p[31]%8 == 0 {
			return placement{0: p[0] & 0xf0}
		}
		return p
	}
	defer func() { weakenPlacement = nil }()
	s, m, _ := stripedMap(t, 600)
	checkFanOut(t, s, m)
	for i := 0; i < 600; i += 5 {
		m.putRaw(fmt.Sprint("k", i), "v")
		m.deleteRaw(fmt.Sprint("k", i+1))
	}
	checkFanOut(t, s, m)
}

// TestStripeFanOutSmallStripes: a striped map emptied stripe by stripe
// with no snapshot on the way — stripes empty, stripes of one entry that
// the top node would hold inline, then two single stripes, one, none —
// hashes to the inline root at every GOMAXPROCS.
func TestStripeFanOutSmallStripes(t *testing.T) {
	s, m, byStripe := stripedMap(t, 400)
	keep := func(st, n int) {
		for _, k := range byStripe[st][n:] {
			m.deleteRaw(k)
		}
		byStripe[st] = byStripe[st][:n]
	}
	for st := 0; st < 8; st++ {
		keep(st, st/4) // 0–3 empty, 4–7 single
	}
	checkFanOut(t, s, m)
	for st := 8; st < 16; st++ {
		keep(st, 1)
	}
	checkFanOut(t, s, m)
	for st := 4; st < 14; st++ {
		keep(st, 0)
	}
	checkFanOut(t, s, m) // stripes 14 and 15, single
	keep(14, 0)
	checkFanOut(t, s, m) // stripe 15 alone, and single
	keep(15, 0)
	checkFanOut(t, s, m) // every stripe empty
	if !m.raw.striped.Load() || m.Len() != 0 {
		t.Fatalf("striped %v with %d entries, want a striped empty map", m.raw.striped.Load(), m.Len())
	}
}

// TestStripeFanOutAcrossRule: snapshots and restores move a map across
// the striping rule both ways, beside a small map that never stripes, and
// after each the store hashes to the inline root at every GOMAXPROCS.
func TestStripeFanOutAcrossRule(t *testing.T) {
	s := NewStore()
	w := &stripeWorld{s: s, m: mustMap(t, s, "m"), want: map[string]any{}, crossed: map[bool]int{}, sizes: map[int]int{}}
	mustMap(t, s, "small").putRaw("x", uint64(1))
	rng := rand.New(rand.NewSource(51))
	targets := []int{0, 1, 2, 17, 40, 160, 400}
	for step := 0; step < 40; step++ {
		target := targets[rng.Intn(len(targets))]
		for i := 0; i < 200; i++ {
			w.edit(rng, target)
		}
		checkFanOut(t, s, w.m)
		was := w.m.raw.striped.Load()
		if rng.Intn(3) > 0 || len(w.kept) == 0 {
			w.kept = append(w.kept, stripeKept{snap: s.Snapshot(), want: cloneContents(w.want)})
		} else {
			k := w.kept[rng.Intn(len(w.kept))]
			s.Restore(k.snap)
			w.want = cloneContents(k.want)
			w.keys = w.keys[:0]
			for key := range w.want {
				w.keys = append(w.keys, key)
			}
			sort.Strings(w.keys)
		}
		w.settled(t, was)
		checkFanOut(t, s, w.m)
	}
	if w.crossed[true] == 0 || w.crossed[false] == 0 {
		t.Errorf("the rule was crossed %d times into stripes and %d times out of them; want both",
			w.crossed[true], w.crossed[false])
	}
}

// TestStripeFanOutLowestSlotError: with values no encoding accepts in
// stripes 3 and 11, the root fails with stripe 3's error at every
// GOMAXPROCS, whichever goroutine reaches stripe 11 first.
func TestStripeFanOutLowestSlotError(t *testing.T) {
	s, m, byStripe := stripedMap(t, 400)
	m.putRaw(byStripe[3][0], make(chan int))
	m.putRaw(byStripe[11][0], func() {})
	for i := 0; i < 20; i++ {
		err := checkFanOut(t, s, m)
		if err == nil || !strings.Contains(err.Error(), "chan int") {
			t.Fatalf("root error %v, want stripe 3's chan int", err)
		}
	}
}

// TestStripeFanOutBesideGetIn runs TestGetInDuringStateRoot, whose map of
// 512 keys is striped, at GOMAXPROCS 8: seven helpers fill the caches of
// nodes that retained snapshots share, beside the lock-free GetIn readers
// of those snapshots. CI repeats it under -race.
func TestStripeFanOutBesideGetIn(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(8))
	TestGetInDuringStateRoot(t)
}
