// Package storage implements boosted storage objects — the paper's state
// variables: mappings, arrays and scalar cells — on top of the stm layer.
//
// Every operation maps to an abstract lock chosen so that operations on
// distinct locks commute (§3 "Storage Operations"):
//
//   - Map: one lock per key ("binding Alice's address … commutes with
//     binding Bob's");
//   - Array: one lock per index plus a length lock;
//   - Cell: a single lock.
//
// Operation modes follow commutativity: reads are shared, writes exclusive,
// and numeric "+= d" updates use increment mode (its inverse is "-= d"),
// which is what lets all Ballot votes for one proposal proceed in parallel.
//
// Each mutation registers an inverse with the executing transaction (eager
// policy) or lands in the transaction-local overlay (lazy policy); reads are
// overlay-aware. The same code therefore serves the speculative miner, the
// serial baseline and the validator's lock-free replay.
package storage

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"contractstm/internal/codec"
	"contractstm/internal/stm"
	"contractstm/internal/types"
)

// Errors returned by storage operations.
var (
	// ErrOutOfRange reports an array access beyond the current length; the
	// contract layer converts it into a throw, like Solidity's automatic
	// revert on out-of-bounds indexing.
	ErrOutOfRange = errors.New("storage: index out of range")
	// ErrNotCounter reports AddUint on a slot that does not hold a uint64.
	ErrNotCounter = errors.New("storage: value is not a uint64 counter")
	// ErrUnderflow reports SubUint below zero.
	ErrUnderflow = errors.New("storage: counter underflow")
	// ErrDuplicateName reports two objects created with the same name.
	ErrDuplicateName = errors.New("storage: duplicate object name")
)

// Ops of the stm.Undo records the objects log (eager policy): each record
// names what its Undo must do to take one write back.
const (
	// undoRestore puts Old back: at Key (Map), at Index (Array) or as the
	// value (Cell).
	undoRestore uint8 = iota + 1
	// undoUnbind removes Key, which the write bound (Map).
	undoUnbind
	// undoAdd subtracts Delta from the counter at Key, at Index or in the
	// cell.
	undoAdd
	// undoTruncate cuts the array back to Index elements (Push).
	undoTruncate
)

// object is the interface all boosted objects implement for the Store.
type object interface {
	// objectName returns the lock scope, the name the state root binds
	// the object's commitment to.
	objectName() string
	// root returns the commitment of the current contents, reusing every
	// hash still cached from earlier calls.
	root(h *hasher) (types.Hash, error)
	// snapshot returns a handle on the current contents, which later
	// writes leave untouched.
	snapshot() version
	// restore makes v the current contents again; v stays valid.
	restore(v version)
	// appendState appends the contents in the state stream's encoding
	// (persist.go).
	appendState(dst []byte) ([]byte, error)
	// readState reads what appendState wrote as a version to restore.
	readState(r *codec.Reader) (version, error)
}

// version is one object's contents at some moment, in whichever field the
// object's kind uses. Versions are immutable and share structure with
// their neighbours, so holding one costs what was written since, not the
// size of the object.
type version struct {
	trie  *node         // Map: top node (nil when empty)
	count int           // Map: number of entries
	array *arrayVersion // Array
	cell  *cellVersion  // Cell
}

// Store owns a set of boosted objects and provides state commitments and
// snapshot/restore. One Store models the persistent contract state of one
// simulated chain; benchmarks restore a snapshot between the serial,
// mining and validation runs of the same block.
type Store struct {
	mu      sync.Mutex
	objects []object
	byName  map[string]object
	nextID  uint64
	// The ablation switches are read on every storage access, so they are
	// atomics rather than fields under mu, which every worker would share.
	//
	// noIncrement downgrades increment-mode operations to exclusive; an
	// ablation switch showing what the paper's Ballot result would look
	// like without commutative boosting (see bench_test.go).
	noIncrement atomic.Bool
	// coarseLocks switches every object to a single object-level lock,
	// reproducing the "more traditional implementation" the paper argues
	// against (§3): locks on memory regions rather than semantic units,
	// producing false conflicts between commuting operations.
	coarseLocks atomic.Bool
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{byName: make(map[string]object)}
}

// register adds an object and allocates its overlay id.
func (s *Store) register(name string, obj object) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.byName[name]; dup {
		return 0, fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	id := s.nextID
	s.nextID++
	s.objects = append(s.objects, obj)
	s.byName[name] = obj
	return id, nil
}

// objectList returns a copy of the registered objects, in registration
// order.
func (s *Store) objectList() []object {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]object(nil), s.objects...)
}

// StateRoot returns the commitment over every object's contents: the
// per-object roots, bound to their names and folded in name order. Each
// object hashes only what changed since its root was last computed, in
// whatever version that happened. It must not be called while
// transactions are in flight.
func (s *Store) StateRoot() (types.Hash, error) {
	var h hasher
	return s.stateRoot(&h)
}

// stateRoot is StateRoot with the hasher supplied, so tests can count
// what it hashed.
func (s *Store) stateRoot(h *hasher) (types.Hash, error) {
	objs := s.objectList()
	sort.Slice(objs, func(i, j int) bool { return objs[i].objectName() < objs[j].objectName() })
	fold := binary.BigEndian.AppendUint32([]byte{commitStore}, uint32(len(objs)))
	for _, o := range objs {
		root, err := o.root(h)
		if err != nil {
			return types.Hash{}, fmt.Errorf("state root of %q: %w", o.objectName(), err)
		}
		fold = binary.BigEndian.AppendUint32(fold, uint32(len(o.objectName())))
		fold = append(fold, o.objectName()...)
		fold = append(fold, root[:]...)
	}
	return sha256.Sum256(fold), nil
}

// Snapshot is a handle on the state at one moment: one version per
// object, in registration order. Taking and restoring one costs a few
// words per object whatever the objects hold. Values stored in boosted
// objects must be treated as immutable (store fresh structs rather than
// mutating in place); under that convention a snapshot never changes.
type Snapshot struct {
	versions []version
}

// Snapshot captures the current state.
func (s *Store) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{versions: make([]version, len(s.objects))}
	for i, o := range s.objects {
		snap.versions[i] = o.snapshot()
	}
	return snap
}

// Restore rewinds all objects to a snapshot taken from this store, which
// stays valid and can be restored again. Objects created after the
// snapshot keep their (newer) contents.
func (s *Store) Restore(snap Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, v := range snap.versions {
		if i < len(s.objects) {
			s.objects[i].restore(v)
		}
	}
}

// SetNoIncrement toggles the increment-mode ablation: when enabled, every
// AddUint acquires its abstract lock exclusively instead of in increment
// mode, so commuting updates conflict. Benchmarks only.
func (s *Store) SetNoIncrement(disable bool) { s.noIncrement.Store(disable) }

// incrementMode returns the lock mode for commutative adds under the
// store's current ablation setting.
func (s *Store) incrementMode() stm.Mode {
	if s.noIncrement.Load() {
		return stm.ModeExclusive
	}
	return stm.ModeIncrement
}

// SetCoarseLocks toggles the lock-granularity ablation: when enabled,
// every operation on an object maps to one object-level abstract lock
// (reads shared, all updates exclusive), like region/page locking. The
// paper predicts — and BenchmarkAblationCoarseLocks confirms — that the
// resulting false conflicts destroy most of the available concurrency.
func (s *Store) SetCoarseLocks(coarse bool) { s.coarseLocks.Store(coarse) }

// coarse reports whether object-level locking is in force.
func (s *Store) coarse() bool { return s.coarseLocks.Load() }
