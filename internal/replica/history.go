// Package replica turns any follower node into a first-class read
// replica and event relay: bounded-staleness /v1 reads served at the
// follower's durable height, historical balance queries materialized by
// nearest-snapshot-plus-tail-replay, and an SSE relay that consumes one
// upstream subscribe stream and re-fans it out through the follower's
// own broker — thousands of downstream subscribers cost the miner a
// single connection.
//
// The package sits above internal/node (it attaches to a node through
// the narrow node.HistoryReader and status-decorator hooks; the node
// never imports it) and rides the existing durability gate: everything
// a replica serves went through node.DurableBlock or the validated
// import path first, so a replica read can never expose a block a crash
// on the miner could void.
package replica

import (
	"container/list"
	"fmt"
	"sync"

	"contractstm/internal/api"
	"contractstm/internal/contract"
	"contractstm/internal/node"
	"contractstm/internal/runtime"
	"contractstm/internal/storage"
	"contractstm/internal/types"
	"contractstm/internal/validator"
)

// Defaults for HistoryConfig's zero values.
const (
	// DefaultCheckpointEvery is the replay-checkpoint cadence in blocks.
	DefaultCheckpointEvery = 64
	// DefaultMaxCheckpoints bounds retained cadence checkpoints (the
	// seed is kept separately and never evicted).
	DefaultMaxCheckpoints = 8
	// DefaultMaxMaterialized bounds the LRU of exactly-materialized
	// heights.
	DefaultMaxMaterialized = 8
)

// HistoryConfig assembles a History.
type HistoryConfig struct {
	// Node is the follower the history reads blocks from (required).
	Node *node.Node
	// World is a dedicated shadow world built by the same deterministic
	// genesis setup as the node's (required). The history owns it after
	// AttachHistory: it is restored to the node's snapshot and replayed
	// forward, and must not be shared with anything else.
	World *contract.World
	// Workers sizes the tail-replay validation pool (0 = 3).
	Workers int
	// Runner executes tail replay (nil = real OS threads).
	Runner runtime.Runner
	// CheckpointEvery is the cadence, in blocks, at which forward replay
	// records a restore point (0 = DefaultCheckpointEvery).
	CheckpointEvery int
	// MaxCheckpoints bounds retained cadence checkpoints; the oldest is
	// dropped first, degrading to a longer replay from the seed rather
	// than an error (0 = DefaultMaxCheckpoints).
	MaxCheckpoints int
	// MaxMaterialized bounds the LRU of exactly-materialized heights
	// (0 = DefaultMaxMaterialized).
	MaxMaterialized int
}

// History materializes historical state reads for one node: it keeps a
// shadow world it can rewind to the nearest retained snapshot at or
// under a requested height and replay forward through the validator,
// with a bounded LRU of exactly-materialized heights so repeated
// queries near each other stay cheap. It implements node.HistoryReader.
//
// Blocks are pulled lazily through node.DurableBlock, so the durability
// gate is inherited: a height the node has not durably reached answers
// api.ErrHeightAhead, and one below the seed snapshot (the oldest state
// the history ever saw) answers api.ErrHeightUnavailable.
type History struct {
	n       *node.Node
	workers int
	runner  runtime.Runner
	every   int
	maxCkpt int
	maxLRU  int

	// applyMu serializes all materialization: the shadow world advances
	// (or rewinds) one request at a time, and tail replay runs the full
	// validator under it — a deliberate long-hold lock, named so (the
	// execMu idiom; never a bookkeeping "mu").
	applyMu sync.Mutex

	world   *contract.World
	applied uint64 // height the shadow world currently sits at
	floor   uint64 // seed height: nothing below it materializes
	seed    storage.Snapshot
	// ckpts are cadence restore points, ascending by height.
	ckpts []histEntry
	// lru is the exactly-materialized cache: list front = most recent,
	// byHeight indexes it. Never iterated as a map.
	lru      *list.List
	byHeight map[uint64]*list.Element
}

// histEntry is one retained restore point.
type histEntry struct {
	height uint64
	snap   storage.Snapshot
}

// AttachHistory seeds a History from the node's current state
// checkpoint and attaches it as the node's historical-read
// materializer. The history floor is the checkpoint height: a recovered
// or fast-synced node serves history from where its state is actually
// reconstructible, not from a genesis it may no longer hold.
func AttachHistory(n *node.Node, cfg HistoryConfig) (*History, error) {
	if n == nil || cfg.World == nil {
		return nil, fmt.Errorf("replica: history needs a node and a shadow world")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	if cfg.Runner == nil {
		cfg.Runner = runtime.NewOSRunner(nil)
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = DefaultCheckpointEvery
	}
	if cfg.MaxCheckpoints <= 0 {
		cfg.MaxCheckpoints = DefaultMaxCheckpoints
	}
	if cfg.MaxMaterialized <= 0 {
		cfg.MaxMaterialized = DefaultMaxMaterialized
	}
	snap, err := n.SnapshotNow()
	if err != nil {
		return nil, fmt.Errorf("replica: history seed: %w", err)
	}
	if err := cfg.World.RestoreState(snap.State); err != nil {
		return nil, fmt.Errorf("replica: history seed at %d: %w", snap.Height(), err)
	}
	root, err := cfg.World.StateRoot()
	if err != nil {
		return nil, fmt.Errorf("replica: history seed: %w", err)
	}
	if root != snap.Header.StateRoot {
		return nil, fmt.Errorf("replica: history seed %d: shadow world hashes to %s, checkpoint claims %s — different genesis setup?",
			snap.Height(), root.Short(), snap.Header.StateRoot.Short())
	}
	h := &History{
		n:        n,
		workers:  cfg.Workers,
		runner:   cfg.Runner,
		every:    cfg.CheckpointEvery,
		maxCkpt:  cfg.MaxCheckpoints,
		maxLRU:   cfg.MaxMaterialized,
		world:    cfg.World,
		applied:  snap.Height(),
		floor:    snap.Height(),
		seed:     cfg.World.Snapshot(),
		lru:      list.New(),
		byHeight: make(map[uint64]*list.Element),
	}
	n.SetHistory(h)
	return h, nil
}

// Floor reports the oldest height the history can materialize.
func (h *History) Floor() uint64 { return h.floor }

// BalanceAtHeight implements node.HistoryReader: materialize the state
// at the requested height and read one balance from it.
func (h *History) BalanceAtHeight(addr types.Address, height uint64) (types.Amount, error) {
	h.applyMu.Lock()
	defer h.applyMu.Unlock()
	if height < h.floor {
		return 0, fmt.Errorf("replica: height %d below history floor %d: %w",
			height, h.floor, api.ErrHeightUnavailable)
	}
	if err := h.materialize(height); err != nil {
		return 0, err
	}
	bal, err := h.world.BalanceIn(h.world.Snapshot(), addr)
	if err != nil {
		return 0, fmt.Errorf("replica: balance read: %w", err)
	}
	return bal, nil
}

// materialize brings the shadow world to exactly the given height:
// start from the best retained base at or under it (the current world,
// an LRU hit, a cadence checkpoint, or the seed), replay the durable
// tail through the validator, and cache the result. Caller holds
// applyMu.
func (h *History) materialize(height uint64) error {
	if h.applied == height {
		return nil
	}
	if base, ok := h.lookupLRU(height); ok {
		// Exact hit: restore, no replay.
		h.world.Restore(base)
		h.applied = height
		return nil
	}
	if baseH, snap, restore := h.bestBase(height); restore {
		h.world.Restore(snap)
		h.applied = baseH
	}
	pre := h.world.Snapshot()
	preApplied := h.applied
	for bh := h.applied + 1; bh <= height; bh++ {
		b, ok := h.n.DurableBlock(bh)
		if !ok {
			h.world.Restore(pre)
			h.applied = preApplied
			return fmt.Errorf("replica: block %d not durable yet: %w", bh, api.ErrHeightAhead)
		}
		if _, err := validator.Validate(h.runner, h.world, b, validator.Config{Workers: h.workers}); err != nil {
			h.world.Restore(pre)
			h.applied = preApplied
			return fmt.Errorf("replica: replay block %d: %w", bh, err)
		}
		h.applied = bh
		h.maybeCheckpoint()
	}
	h.cacheMaterialized(height)
	return nil
}

// bestBase picks the highest retained restore point at or under height.
// restore=false means the current world (already at or under height) is
// the best start and no rewind is needed.
func (h *History) bestBase(height uint64) (baseH uint64, snap storage.Snapshot, restore bool) {
	bestH := h.floor
	best := h.seed
	for _, e := range h.ckpts {
		if e.height <= height && e.height >= bestH {
			bestH, best = e.height, e.snap
		}
	}
	for el := h.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(histEntry)
		if e.height <= height && e.height >= bestH {
			bestH, best = e.height, e.snap
		}
	}
	if h.applied <= height && h.applied >= bestH {
		return h.applied, storage.Snapshot{}, false
	}
	return bestH, best, true
}

// maybeCheckpoint records a cadence restore point at the current
// applied height, evicting the oldest beyond the bound. Caller holds
// applyMu.
func (h *History) maybeCheckpoint() {
	if h.applied%uint64(h.every) != 0 {
		return
	}
	for _, e := range h.ckpts {
		if e.height == h.applied {
			return
		}
	}
	h.ckpts = append(h.ckpts, histEntry{height: h.applied, snap: h.world.Snapshot()})
	if len(h.ckpts) > h.maxCkpt {
		// Dropping the oldest only lengthens a cold replay (the seed
		// still floors the window); it never shrinks what is servable.
		// The rest move down and the vacated slot is cleared: reslicing
		// from the front would leave the evicted version reachable
		// through the backing array.
		last := copy(h.ckpts, h.ckpts[1:])
		h.ckpts[last] = histEntry{}
		h.ckpts = h.ckpts[:last]
	}
}

// lookupLRU returns the materialized snapshot at exactly height, marking
// it most recently used.
func (h *History) lookupLRU(height uint64) (storage.Snapshot, bool) {
	el, ok := h.byHeight[height]
	if !ok {
		return storage.Snapshot{}, false
	}
	h.lru.MoveToFront(el)
	return el.Value.(histEntry).snap, true
}

// cacheMaterialized stores the current world as the materialization of
// height, evicting the least recently used beyond the bound.
func (h *History) cacheMaterialized(height uint64) {
	if el, ok := h.byHeight[height]; ok {
		h.lru.MoveToFront(el)
		return
	}
	el := h.lru.PushFront(histEntry{height: height, snap: h.world.Snapshot()})
	h.byHeight[height] = el
	if h.lru.Len() > h.maxLRU {
		oldest := h.lru.Back()
		h.lru.Remove(oldest)
		delete(h.byHeight, oldest.Value.(histEntry).height)
	}
}
