package replica

import (
	"errors"
	"testing"

	"contractstm/internal/api"
	"contractstm/internal/contract"
	"contractstm/internal/node"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

const (
	histBlocks    = 4
	histBlockSize = 6
)

func histParams() workload.Params {
	return workload.Params{
		Kind: workload.KindToken, Transactions: histBlocks * histBlockSize,
		ConflictPercent: 20, Seed: 47,
	}
}

// histWorld regenerates the deterministic genesis world and call list —
// callable repeatedly so upstream node, replica node and shadow world
// all start bit-identical.
func histWorld(t *testing.T) (*contract.World, []contract.Call) {
	t.Helper()
	wl, err := workload.Generate(histParams())
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	return wl.World, wl.Calls
}

func histNode(t *testing.T) (*node.Node, []contract.Call) {
	t.Helper()
	world, calls := histWorld(t)
	n, err := node.New(node.Config{World: world, Workers: 3, Runner: runtime.NewSimRunner()})
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}
	return n, calls
}

// mineChain advances n by `blocks` blocks off the workload's call list.
func mineChain(t *testing.T, n *node.Node, calls []contract.Call, blocks int) {
	t.Helper()
	n.SubmitAll(calls[:blocks*histBlockSize])
	for i := 0; i < blocks; i++ {
		if _, err := n.MineOne(histBlockSize); err != nil {
			t.Fatalf("mine %d: %v", i+1, err)
		}
	}
}

// rootAt asserts the shadow world, materialized at height, hashes to
// exactly the state root the chain committed at that height.
func rootAt(t *testing.T, h *History, n *node.Node, height uint64) {
	t.Helper()
	h.applyMu.Lock()
	defer h.applyMu.Unlock()
	if err := h.materialize(height); err != nil {
		t.Fatalf("materialize %d: %v", height, err)
	}
	root, err := h.world.StateRoot()
	if err != nil {
		t.Fatalf("state root at %d: %v", height, err)
	}
	b, ok := n.BlockAt(height)
	if !ok {
		t.Fatalf("no block at %d", height)
	}
	if root != b.Header.StateRoot {
		t.Fatalf("height %d: materialized root %s, chain committed %s",
			height, root.Short(), b.Header.StateRoot.Short())
	}
}

// TestHistoryMaterializesExactHeights: every historical height
// reproduces the exact committed state root — forward from the seed,
// backward after overshooting, and repeatedly (LRU hits).
func TestHistoryMaterializesExactHeights(t *testing.T) {
	n, calls := histNode(t)
	shadow, _ := histWorld(t)
	h, err := AttachHistory(n, HistoryConfig{
		World: shadow, Runner: runtime.NewSimRunner(), CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatalf("AttachHistory: %v", err)
	}
	mineChain(t, n, calls, histBlocks)

	// Forward, backward, and revisits — an access pattern that forces
	// replay, rewind-to-checkpoint, and LRU hits.
	for _, height := range []uint64{2, 4, 1, 3, 2, 4} {
		rootAt(t, h, n, height)
	}
	// The balance route works over the same materialization (workload
	// accounts live in contract storage; the ledger read must still
	// succeed at a rewound height).
	if _, err := h.BalanceAtHeight(types.AddressFromUint64(1), 1); err != nil {
		t.Fatalf("BalanceAtHeight(1): %v", err)
	}
}

// TestHistoryHeightAhead: a height past the durable tip answers
// api.ErrHeightAhead (the retryable kind) and leaves the history able
// to serve once the block lands.
func TestHistoryHeightAhead(t *testing.T) {
	n, calls := histNode(t)
	shadow, _ := histWorld(t)
	h, err := AttachHistory(n, HistoryConfig{World: shadow, Runner: runtime.NewSimRunner()})
	if err != nil {
		t.Fatalf("AttachHistory: %v", err)
	}
	mineChain(t, n, calls, 2)

	if _, err := h.BalanceAtHeight(types.AddressFromUint64(1), 3); !errors.Is(err, api.ErrHeightAhead) {
		t.Fatalf("ahead err = %v", err)
	}
	// The failed attempt must not have corrupted the shadow world.
	rootAt(t, h, n, 2)

	// Once height 3 is durable the same query succeeds.
	n.SubmitAll(calls[2*histBlockSize : 3*histBlockSize])
	if _, err := n.MineOne(histBlockSize); err != nil {
		t.Fatalf("mine: %v", err)
	}
	rootAt(t, h, n, 3)
}

// TestHistoryFloor: a history attached to an already-advanced node
// floors at the attach-point checkpoint — heights below it answer
// api.ErrHeightUnavailable, heights above materialize normally.
func TestHistoryFloor(t *testing.T) {
	n, calls := histNode(t)
	mineChain(t, n, calls, 2)

	// The shadow world seeds from the node's height-2 checkpoint, so it
	// must accept that state regardless of its own starting content.
	shadow, _ := histWorld(t)
	h, err := AttachHistory(n, HistoryConfig{World: shadow, Runner: runtime.NewSimRunner()})
	if err != nil {
		t.Fatalf("AttachHistory: %v", err)
	}
	if h.Floor() != 2 {
		t.Fatalf("floor = %d, want 2", h.Floor())
	}
	if _, err := h.BalanceAtHeight(types.AddressFromUint64(1), 1); !errors.Is(err, api.ErrHeightUnavailable) {
		t.Fatalf("below-floor err = %v", err)
	}

	n.SubmitAll(calls[2*histBlockSize : histBlocks*histBlockSize])
	for i := 2; i < histBlocks; i++ {
		if _, err := n.MineOne(histBlockSize); err != nil {
			t.Fatalf("mine: %v", err)
		}
	}
	rootAt(t, h, n, 3)
	rootAt(t, h, n, 4)
}

// TestHistoryBoundedCaches: the materialized-height LRU and the cadence
// checkpoints stay within their configured bounds no matter the access
// pattern.
func TestHistoryBoundedCaches(t *testing.T) {
	n, calls := histNode(t)
	shadow, _ := histWorld(t)
	h, err := AttachHistory(n, HistoryConfig{
		World: shadow, Runner: runtime.NewSimRunner(),
		CheckpointEvery: 1, MaxCheckpoints: 2, MaxMaterialized: 2,
	})
	if err != nil {
		t.Fatalf("AttachHistory: %v", err)
	}
	mineChain(t, n, calls, histBlocks)

	for _, height := range []uint64{1, 2, 3, 4, 1, 4, 2} {
		rootAt(t, h, n, height)
	}
	h.applyMu.Lock()
	lruLen, ckpts := h.lru.Len(), len(h.ckpts)
	indexed := len(h.byHeight)
	// Four checkpoints were taken against a bound of two. Count what the
	// whole backing array still holds, not just the slice: an evicted
	// entry left behind there keeps its version of the world alive.
	retained := 0
	for _, e := range h.ckpts[:cap(h.ckpts)] {
		if e.height != 0 {
			retained++
		}
	}
	h.applyMu.Unlock()
	if lruLen > 2 || indexed != lruLen {
		t.Fatalf("LRU len = %d (indexed %d), bound 2", lruLen, indexed)
	}
	if ckpts != 2 || retained != 2 {
		t.Fatalf("checkpoints = %d, versions still reachable = %d, want 2 and 2", ckpts, retained)
	}
}

// TestHistoryRejectsForeignWorld: a shadow world with different genesis
// content cannot silently seed — the state-root cross-check refuses it.
func TestHistoryRejectsForeignWorld(t *testing.T) {
	n, _ := histNode(t)
	foreign, err := workload.Generate(workload.Params{
		Kind: workload.KindBallot, Transactions: 8, Seed: 1,
	})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	if _, err := AttachHistory(n, HistoryConfig{World: foreign.World, Runner: runtime.NewSimRunner()}); err == nil {
		t.Fatal("foreign shadow world accepted")
	}
}
