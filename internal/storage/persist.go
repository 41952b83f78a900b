package storage

import (
	"fmt"
	"sort"

	"contractstm/internal/codec"
)

// State serialization. A Snapshot's contents are positional (indexed by
// registration order), which is useless across process restarts, so the
// state stream pairs every object's contents with its name:
//
//	u32 object count; each, in registration order:
//	  string name
//	  Cell:  value
//	  Map:   u32 entry count; each, by ascending key: string key, value
//	  Array: u32 length; each element: value
//	value = u32 length, then the tagged encoding of encode.go
//
// Decoding is directed by the decoding store: recovery requires the same
// genesis setup to have registered the same objects in the same order,
// object i's name must match, and object i itself reads its contents, so
// the bytes — which may come from a peer — can only ever yield the shape
// that object restores from. Any mismatch is an error rather than silent
// state corruption. Encoding the same state always gives the same bytes.

// Minimum encoded sizes, for codec.Reader.Count.
const (
	minStateValue = 4 + 1
	minMapEntry   = 4 + minStateValue
)

// EncodeState renders the store's current contents as a state stream for
// durable persistence. The store must be quiescent.
func (s *Store) EncodeState() ([]byte, error) {
	objs := s.objectList()
	dst := codec.AppendU32(nil, uint32(len(objs)))
	for _, o := range objs {
		dst = codec.AppendString(dst, o.objectName())
		var err error
		if dst, err = o.appendState(dst); err != nil {
			return nil, fmt.Errorf("storage: encode state of %q: %w", o.objectName(), err)
		}
	}
	return dst, nil
}

// DecodeState parses a state stream into a Snapshot aligned with s's
// objects, ready for Restore. Nothing in s changes.
func (s *Store) DecodeState(data []byte) (Snapshot, error) {
	objs := s.objectList()
	r := codec.NewReader(data)
	n, err := r.U32()
	if err != nil {
		return Snapshot{}, fmt.Errorf("storage: decode state: %w", err)
	}
	if int64(n) != int64(len(objs)) {
		return Snapshot{}, fmt.Errorf("storage: decode state: %w: state has %d objects, store has %d",
			codec.ErrFormat, n, len(objs))
	}
	snap := Snapshot{versions: make([]version, len(objs))}
	for i, o := range objs {
		name, err := r.String()
		if err == nil && name != o.objectName() {
			err = fmt.Errorf("%w: object %d is %q in the state, %q in the store", codec.ErrFormat, i, name, o.objectName())
		}
		if err == nil {
			snap.versions[i], err = o.readState(r)
		}
		if err != nil {
			return Snapshot{}, fmt.Errorf("storage: decode state of %q: %w", o.objectName(), err)
		}
	}
	if err := r.Done(); err != nil {
		return Snapshot{}, fmt.Errorf("storage: decode state: %w", err)
	}
	return snap, nil
}

// appendStateValue appends one stored value. structs is the storing
// object's struct decoder, nil if it has none; writing a struct it cannot
// read back would only fail at recovery, so it fails here.
func appendStateValue(dst []byte, v any, structs func([]byte) (any, error)) ([]byte, error) {
	if _, isStruct := v.(Encoder); isStruct && structs == nil {
		return nil, fmt.Errorf("storage: %T stored in an object with no struct decoder", v)
	}
	enc, err := encodeValue(v)
	if err != nil {
		return nil, err
	}
	return codec.AppendBytes(dst, enc), nil
}

func readStateValue(r *codec.Reader, structs func([]byte) (any, error)) (any, error) {
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	enc, err := r.Take(int(n))
	if err != nil {
		return nil, err
	}
	return decodeValue(enc, structs)
}

// appendState implements object.
func (c *Cell) appendState(dst []byte) ([]byte, error) {
	return appendStateValue(dst, c.rawRead(), nil)
}

// readState implements object.
func (c *Cell) readState(r *codec.Reader) (version, error) {
	v, err := readStateValue(r, nil)
	return version{cell: &cellVersion{val: v}}, err
}

// appendState implements object. The trie holds its entries in placement
// order; the stream wants them by key.
func (m *Map) appendState(dst []byte) ([]byte, error) {
	m.raw.lockAll()
	entries := make([]entry, 0, m.raw.count())
	if m.raw.striped.Load() {
		for i := range m.raw.stripes {
			entries = m.raw.stripes[i].root.walk(entries)
		}
	} else {
		entries = m.raw.whole.root.walk(entries)
	}
	m.raw.unlockAll()
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	dst = codec.AppendU32(dst, uint32(len(entries)))
	for _, e := range entries {
		dst = codec.AppendString(dst, e.key)
		var err error
		if dst, err = appendStateValue(dst, e.val, m.structs); err != nil {
			return nil, fmt.Errorf("key %q: %w", e.key, err)
		}
	}
	return dst, nil
}

// readState implements object. Keys must ascend strictly — the order
// appendState writes — so no key repeats and an accepted stream
// re-encodes to itself. The version is built in epoch 0, which no map
// edits in place.
func (m *Map) readState(r *codec.Reader) (version, error) {
	n, err := r.Count(minMapEntry)
	if err != nil {
		return version{}, err
	}
	var built *node
	prev := ""
	for i := 0; i < n; i++ {
		k, err := r.String()
		if err != nil {
			return version{}, err
		}
		if i > 0 && k <= prev {
			return version{}, fmt.Errorf("%w: key %q does not ascend", codec.ErrFormat, k)
		}
		v, err := readStateValue(r, m.structs)
		if err != nil {
			return version{}, fmt.Errorf("key %q: %w", k, err)
		}
		if v == uint64(0) {
			// A map never holds one (rawPut), so appendState never
			// wrote this.
			return version{}, fmt.Errorf("%w: key %q binds the zero counter, which is stored as absent", codec.ErrFormat, k)
		}
		p := placeKey(k)
		built, _ = built.put(0, &p, k, v, 0)
		prev = k
	}
	return version{trie: built, count: n}, nil
}

// appendState implements object.
func (a *Array) appendState(dst []byte) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	dst = codec.AppendU32(dst, uint32(len(a.cur.elems)))
	for i, v := range a.cur.elems {
		var err error
		if dst, err = appendStateValue(dst, v, nil); err != nil {
			return nil, fmt.Errorf("index %d: %w", i, err)
		}
	}
	return dst, nil
}

// readState implements object.
func (a *Array) readState(r *codec.Reader) (version, error) {
	n, err := r.Count(minStateValue)
	if err != nil {
		return version{}, err
	}
	elems := make([]any, n)
	for i := range elems {
		if elems[i], err = readStateValue(r, nil); err != nil {
			return version{}, fmt.Errorf("index %d: %w", i, err)
		}
	}
	return version{array: &arrayVersion{elems: elems}}, nil
}
