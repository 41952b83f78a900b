package storage

import (
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
	"sort"

	"contractstm/internal/crypto"
	"contractstm/internal/types"
)

// A Map keeps its bindings in a persistent 16-way trie. An entry's path is
// the nibbles of SHA-256(key), so where a key lands is a pure function of
// the key and cannot be steered cheaply: map keys carry client-chosen bytes
// (document hashes, addresses), and a grindable placement would let one
// client pile keys under one path.
//
// The shape is a pure function of the contents. A slot holds an entry
// inline when exactly one key of the map has the slot's prefix, and a child
// node when two or more do; once all 64 nibbles are spent the keys that
// still collide sit in one key-sorted bucket. Deleting re-inlines a child
// that is left with a single entry, so no history leaves a trace.
//
// Versions share structure. A node carries the epoch it was born in; a
// node of the map's current epoch is edited in place, an older one is
// copied before its first edit (path copying), and taking a snapshot bumps
// the epoch. So everything a snapshot reaches is immutable apart from the
// hash caches, which are functions of those immutable contents.
//
// The caches — a node's hash and an entry's leaf hash — are written by
// the hasher on nodes a snapshot may share, while GetIn reads that
// snapshot with no lock. That is no race: a cache is written only while
// the caller of Map.root holds every mutex of the map, a snapshot reader
// reads only an entry's key and value and a node's maps, entries slice
// and kids, never a cache, and walk, which copies whole entries, runs
// with every mutex held too.
//
// A large map keeps its trie in 16 stripes (Map), each the subtree of one
// slot of the top node, at depth 1. assemble builds the ordinary top node
// from them and hasher.slots hashes them as that node, so versions, the
// state stream and the commitment never see a stripe. slots shares the
// stripes out with crypto.Fan, the fan a block's commitments use too,
// while the caller holds every mutex: stripes are disjoint, so each cache
// has one writer, and Fan joins every stripe before Map.root releases
// the mutexes.

// placement is a key's path through the trie, one nibble per level.
type placement [sha256.Size]byte

// maxDepth is the number of nibbles in a placement; nodes at this depth
// are collision buckets.
const maxDepth = 2 * sha256.Size

// placeKey hashes a key to its placement. It keeps no reference to key,
// so a caller's key may live on its stack.
func placeKey(key string) placement {
	p := placement(sha256.Sum256([]byte(key)))
	if weakenPlacement != nil {
		p = weakenPlacement(p)
	}
	return p
}

// weakenPlacement, when set, rewrites every placement, so tests can force
// the collisions SHA-256 never yields. It sees the placement, not the key,
// so that placeKey keeps none.
var weakenPlacement func(placement) placement

// bit returns the slot bit of the nibble at depth.
func (p *placement) bit(depth int) uint16 {
	b := p[depth>>1]
	if depth&1 == 0 {
		b >>= 4
	}
	return 1 << (b & 15)
}

// entry is one binding. hash caches its leaf commitment; the zero hash
// means not computed. Whatever moves an entry — own, join, insertAt,
// removeAt, the re-inlining in remove — moves the cache with it, since
// the key and value come along unchanged; only a new value clears it.
type entry struct {
	key  string
	val  any
	hash types.Hash
}

// node is one trie level: up to 16 slots, each empty, an inline entry
// (datamap) or a child (nodemap). Inline entries are packed in slot order;
// children sit at their slot's index in an array that only a node with
// children allocates — most nodes are the bottom ones, with two to four
// entries and no child, and the layout keeps those at 80 bytes plus their
// entries. A bucket (depth == maxDepth) has no slots: its entries are
// sorted by key.
type node struct {
	// hash caches the node's commitment; the zero hash means not
	// computed, and every edit clears it along its path.
	hash    types.Hash
	entries []entry
	kids    *[16]*node
	epoch   uint64
	datamap uint16
	nodemap uint16
}

// index is the packed position of bit's entry.
func (n *node) index(bit uint16) int { return bits.OnesCount16(n.datamap & (bit - 1)) }

// slot is the slot number of a slot bit.
func slot(bit uint16) int { return bits.TrailingZeros16(bit) }

// single reports whether n holds exactly one entry and nothing else — the
// shape that must be inlined into the parent.
func (n *node) single() bool { return len(n.entries) == 1 && n.nodemap == 0 }

// find looks key up under n, a node at depth.
func (n *node) find(p *placement, key string, depth int) (any, bool) {
	if e := n.lookup(p, key, depth); e != nil {
		return e.val, true
	}
	return nil, false
}

// lookup returns key's entry under n, a node at depth, or nil when key is
// unbound. The entry is valid only as long as nothing edits n.
func (n *node) lookup(p *placement, key string, depth int) *entry {
	for ; n != nil; depth++ {
		if depth == maxDepth {
			i := sort.Search(len(n.entries), func(i int) bool { return n.entries[i].key >= key })
			if i < len(n.entries) && n.entries[i].key == key {
				return &n.entries[i]
			}
			return nil
		}
		bit := p.bit(depth)
		if n.datamap&bit != 0 {
			if e := &n.entries[n.index(bit)]; e.key == key {
				return e
			}
			return nil
		}
		if n.nodemap&bit == 0 {
			return nil
		}
		n = n.kids[slot(bit)]
	}
	return nil
}

// own returns n ready to be edited in epoch: n itself if it was born in
// epoch, a copy otherwise, with room for spare more entries. Either way
// its cached hash is dropped.
func (n *node) own(epoch uint64, spare int) *node {
	if n.epoch != epoch {
		old := n
		if old.kids != nil {
			// One allocation for the copy and its child array: copies of
			// upper nodes are what every written key pays per level.
			b := &struct {
				node
				array [16]*node
			}{array: *old.kids}
			n = &b.node
			n.kids = &b.array
		} else {
			n = new(node)
		}
		n.epoch, n.datamap, n.nodemap = epoch, old.datamap, old.nodemap
		if len(old.entries)+spare > 0 {
			n.entries = append(make([]entry, 0, len(old.entries)+spare), old.entries...)
		}
	}
	n.hash = types.Hash{}
	return n
}

// insertAt returns s with v at position i. A full slice is reallocated at
// exactly the new length, not doubled: a state holds one small slice per
// node, and the slack doubling leaves in each adds up.
func insertAt(s []entry, i int, v entry) []entry {
	if len(s) < cap(s) {
		s = s[:len(s)+1]
		copy(s[i+1:], s[i:])
		s[i] = v
		return s
	}
	out := make([]entry, len(s)+1)
	copy(out, s[:i])
	out[i] = v
	copy(out[i+1:], s[i:])
	return out
}

// removeAt returns s without position i, clearing the vacated slot so that
// it holds no reference.
func removeAt(s []entry, i int) []entry {
	copy(s[i:], s[i+1:])
	s[len(s)-1] = entry{}
	return s[:len(s)-1]
}

// setKid puts k (nil to clear) in bit's slot of n, which the caller owns.
func (n *node) setKid(bit uint16, k *node) {
	if k == nil {
		n.kids[slot(bit)] = nil
		if n.nodemap &^= bit; n.nodemap == 0 {
			n.kids = nil
		}
		return
	}
	if n.kids == nil {
		n.kids = new([16]*node)
	}
	n.kids[slot(bit)] = k
	n.nodemap |= bit
}

// put binds key to val under n (nil for an empty trie) and returns the
// node to use in n's place, and whether the key is new.
func (n *node) put(epoch uint64, p *placement, key string, val any, depth int) (*node, bool) {
	if n == nil {
		return &node{epoch: epoch, datamap: p.bit(depth), entries: []entry{{key: key, val: val}}}, true
	}
	if depth == maxDepth {
		n = n.own(epoch, 1)
		i := sort.Search(len(n.entries), func(i int) bool { return n.entries[i].key >= key })
		if i < len(n.entries) && n.entries[i].key == key {
			n.entries[i].val = val
			n.entries[i].hash = types.Hash{}
			return n, false
		}
		n.entries = insertAt(n.entries, i, entry{key: key, val: val})
		return n, true
	}
	bit := p.bit(depth)
	spare := 0
	if (n.datamap|n.nodemap)&bit == 0 {
		spare = 1 // an empty slot: the key goes inline here
	}
	n = n.own(epoch, spare)
	switch {
	case n.datamap&bit != 0:
		i := n.index(bit)
		if n.entries[i].key == key {
			n.entries[i].val = val
			n.entries[i].hash = types.Hash{}
			return n, false
		}
		// Two keys under one slot: both move into a child.
		old := n.entries[i]
		oldPlace := placeKey(old.key)
		n.entries = removeAt(n.entries, i)
		n.datamap &^= bit
		n.setKid(bit, join(epoch, old, &oldPlace, entry{key: key, val: val}, p, depth+1))
		return n, true
	case n.nodemap&bit != 0:
		kid, added := n.kids[slot(bit)].put(epoch, p, key, val, depth+1)
		n.kids[slot(bit)] = kid
		return n, added
	default:
		n.entries = insertAt(n.entries, n.index(bit), entry{key: key, val: val})
		n.datamap |= bit
		return n, true
	}
}

// join builds the node at depth that holds exactly the two entries a and
// b, whose placements agree on every nibble before depth.
func join(epoch uint64, a entry, pa *placement, b entry, pb *placement, depth int) *node {
	if depth == maxDepth {
		if b.key < a.key {
			a, b = b, a
		}
		return &node{epoch: epoch, entries: []entry{a, b}}
	}
	bitA, bitB := pa.bit(depth), pb.bit(depth)
	if bitA == bitB {
		n := &node{epoch: epoch}
		n.setKid(bitA, join(epoch, a, pa, b, pb, depth+1))
		return n
	}
	if bitB < bitA {
		a, b = b, a
	}
	return &node{epoch: epoch, datamap: bitA | bitB, entries: []entry{a, b}}
}

// remove unbinds key under n and returns the node to use in n's place, and
// whether the key was bound. Nothing is copied when it was not.
func (n *node) remove(epoch uint64, p *placement, key string, depth int) (*node, bool) {
	if n == nil {
		return nil, false
	}
	if depth == maxDepth {
		i := sort.Search(len(n.entries), func(i int) bool { return n.entries[i].key >= key })
		if i == len(n.entries) || n.entries[i].key != key {
			return n, false
		}
		n = n.own(epoch, 0)
		n.entries = removeAt(n.entries, i)
		return n, true
	}
	bit := p.bit(depth)
	if n.datamap&bit != 0 {
		i := n.index(bit)
		if n.entries[i].key != key {
			return n, false
		}
		n = n.own(epoch, 0)
		n.entries = removeAt(n.entries, i)
		n.datamap &^= bit
		return n, true
	}
	if n.nodemap&bit == 0 {
		return n, false
	}
	kid, removed := n.kids[slot(bit)].remove(epoch, p, key, depth+1)
	if !removed {
		return n, false
	}
	n = n.own(epoch, 0)
	if kid.single() {
		// One key left under this slot: it belongs inline here.
		n.setKid(bit, nil)
		n.entries = insertAt(n.entries, n.index(bit), kid.entries[0])
		n.datamap |= bit
	} else {
		n.kids[slot(bit)] = kid
	}
	return n, true
}

// assemble returns the top node whose slot s holds roots[s], a subtree at
// depth 1: nothing when nil, its entry inline when it holds one, a child
// otherwise. It is nil when every root is. The node is born in epoch.
func assemble(epoch uint64, roots *[16]*node) *node {
	var datamap, nodemap uint16
	inline := 0
	for s, r := range roots {
		switch {
		case r == nil:
		case r.single():
			datamap |= 1 << s
			inline++
		default:
			nodemap |= 1 << s
		}
	}
	if datamap|nodemap == 0 {
		return nil
	}
	var n *node
	if nodemap != 0 {
		b := &struct {
			node
			array [16]*node
		}{}
		n = &b.node
		n.kids = &b.array
	} else {
		n = new(node)
	}
	n.epoch, n.datamap, n.nodemap = epoch, datamap, nodemap
	if inline > 0 {
		n.entries = make([]entry, 0, inline)
	}
	for s, r := range roots {
		switch {
		case r == nil:
		case r.single():
			n.entries = append(n.entries, r.entries[0])
		default:
			n.kids[s] = r
		}
	}
	return n
}

// walk appends every entry under n to dst, in an order that depends only
// on the contents.
func (n *node) walk(dst []entry) []entry {
	if n == nil {
		return dst
	}
	dst = append(dst, n.entries...)
	if n.kids != nil {
		for _, k := range n.kids {
			dst = k.walk(dst)
		}
	}
	return dst
}

// Commitment. The state root is consensus-visible, so the bytes hashed
// here are part of the block format (DESIGN.md, "State store and
// commitment"). Every preimage starts with a distinct tag, so a leaf can
// never be passed off as an interior node or an object of another kind.
const (
	commitLeaf   byte = 0x00 // tag, u32 len(key), key, value encoding
	commitNode   byte = 0x01 // tag, u16 occupied slots, one hash per occupied slot
	commitEmpty  byte = 0x02 // tag: a map with no entry
	commitBucket byte = 0x03 // tag, u32 count, leaf hashes by ascending key
	commitArray  byte = 0x04 // tag, u32 length, then per element u32 len, value encoding
	commitCell   byte = 0x05 // tag, value encoding
	commitStore  byte = 0x06 // tag, u32 count, then per object by name: u32 len, name, root
)

// emptyMapRoot is the root of a map with no entry.
var emptyMapRoot = types.Hash(sha256.Sum256([]byte{commitEmpty}))

// hasher carries the scratch buffer the commitment's preimages are
// assembled in, and counts the leaves it hashed.
type hasher struct {
	buf    []byte
	leaves int
}

// leaf returns one entry's commitment: the hash of its full key and its
// tagged value encoding, computed once and cached in the entry. The
// caller holds every mutex of the map.
func (h *hasher) leaf(e *entry) (types.Hash, error) {
	if e.hash != (types.Hash{}) {
		return e.hash, nil
	}
	b := append(h.buf[:0], commitLeaf)
	b = binary.BigEndian.AppendUint32(b, uint32(len(e.key)))
	b = append(b, e.key...)
	b, err := appendValue(b, e.val)
	if err != nil {
		return types.Hash{}, err
	}
	h.buf = b
	h.leaves++
	e.hash = sha256.Sum256(b)
	return e.hash, nil
}

// mapRoot is the commitment of the map whose top node is n: a map with
// one entry is that entry's leaf, like any other subtree.
func (h *hasher) mapRoot(n *node) (types.Hash, error) {
	switch {
	case n == nil:
		return emptyMapRoot, nil
	case n.single():
		return h.leaf(&n.entries[0])
	default:
		return h.node(n, 0)
	}
}

// slots is the commitment of the map whose top node assemble would build
// from roots, hashed without building it. The preimage is assembled in
// slot order after fanOut's join, whoever hashed each stripe.
func (h *hasher) slots(roots *[16]*node) (types.Hash, error) {
	var occupied uint16
	for s, r := range roots {
		if r != nil {
			occupied |= 1 << s
		}
	}
	switch {
	case occupied == 0:
		return emptyMapRoot, nil
	case occupied&(occupied-1) == 0 && roots[slot(occupied)].single():
		return h.leaf(&roots[slot(occupied)].entries[0])
	}
	var subs [16]types.Hash // a zero hash: hashed below, on the caller
	n := bits.OnesCount16(occupied)
	if helpers := crypto.Helpers(n); helpers > 0 {
		if err := h.fanOut(roots, occupied, n, helpers, &subs); err != nil {
			return types.Hash{}, err
		}
	}
	var stack [3 + 16*types.HashLen]byte
	b := append(stack[:0], commitNode)
	b = binary.BigEndian.AppendUint16(b, occupied)
	for ; occupied != 0; occupied &= occupied - 1 {
		s := slot(occupied & -occupied)
		if subs[s] == (types.Hash{}) {
			var err error
			if subs[s], err = h.subtree(roots[s]); err != nil {
				return types.Hash{}, err
			}
		}
		b = append(b, subs[s][:]...)
	}
	return sha256.Sum256(b), nil
}

// subtree is the commitment of a stripe: a top-node slot's subtree.
func (h *hasher) subtree(r *node) (types.Hash, error) {
	if r.single() {
		return h.leaf(&r.entries[0])
	}
	return h.node(r, 1)
}

// stripeWork is a striped root's stripes as crypto.Fan tasks: task i
// hashes the i-th occupied stripe with worker w's hasher.
type stripeWork struct {
	roots [16]*node
	slots [16]uint8 // task i's slot
	hs    [16]stripeHasher
	subs  [16]types.Hash
	errs  [16]error
}

// stripeHasher is one worker's hasher and a cache line of padding, so
// any two workers' hashers are more than a line apart: every leaf writes
// its hasher's buf and count, and a line holding two hashers would
// bounce between the workers' cores for the whole fan.
type stripeHasher struct {
	hasher
	_ [64]byte
}

func (f *stripeWork) Task(w, i int) {
	s := f.slots[i]
	f.subs[s], f.errs[s] = f.hs[w].subtree(f.roots[s])
}

// fanOut hashes the n stripes occupied in roots into subs with
// crypto.Fan, the caller's hasher working as worker 0 and adding every
// helper's leaf count to its own. A failure is the lowest failing slot's.
func (h *hasher) fanOut(roots *[16]*node, occupied uint16, n, helpers int, subs *[16]types.Hash) error {
	f := &stripeWork{roots: *roots}
	for i := 0; occupied != 0; occupied &= occupied - 1 {
		f.slots[i] = uint8(slot(occupied & -occupied))
		i++
	}
	f.hs[0].hasher = *h
	crypto.Fan(f, n, helpers)
	*h = f.hs[0].hasher
	for w := 1; w <= helpers; w++ {
		h.leaves += f.hs[w].leaves
	}
	*subs = f.subs
	for _, err := range f.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// node returns the commitment of a subtree with two or more entries,
// hashing only what has no cached hash.
func (h *hasher) node(n *node, depth int) (types.Hash, error) {
	if n.hash != (types.Hash{}) {
		return n.hash, nil
	}
	if depth == maxDepth {
		return h.bucket(n)
	}
	var stack [3 + 16*types.HashLen]byte
	b := append(stack[:0], commitNode)
	occupied := n.datamap | n.nodemap
	b = binary.BigEndian.AppendUint16(b, occupied)
	e := 0
	for ; occupied != 0; occupied &= occupied - 1 {
		var sub types.Hash
		var err error
		if bit := occupied & -occupied; n.datamap&bit != 0 {
			sub, err = h.leaf(&n.entries[e])
			e++
		} else {
			sub, err = h.node(n.kids[slot(bit)], depth+1)
		}
		if err != nil {
			return types.Hash{}, err
		}
		b = append(b, sub[:]...)
	}
	n.hash = sha256.Sum256(b)
	return n.hash, nil
}

// bucket returns the commitment of a collision bucket.
func (h *hasher) bucket(n *node) (types.Hash, error) {
	b := append(make([]byte, 0, 5+len(n.entries)*types.HashLen), commitBucket)
	b = binary.BigEndian.AppendUint32(b, uint32(len(n.entries)))
	for i := range n.entries {
		sub, err := h.leaf(&n.entries[i])
		if err != nil {
			return types.Hash{}, err
		}
		b = append(b, sub[:]...)
	}
	n.hash = sha256.Sum256(b)
	return n.hash, nil
}
