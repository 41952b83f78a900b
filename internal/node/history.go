package node

import (
	"fmt"
	"sync"

	"contractstm/internal/api"
	"contractstm/internal/types"
)

// historyDepth is how many durable versions a node that retains history
// keeps. A version shares structure with its neighbours and costs what
// its block wrote — 0.25–0.65 KB per transaction measured on the
// benchmark's block shapes, so a full ring is 6–41 MB there.
const historyDepth = 128

// history is the ring of a node's newest durable views, what
// GET /v1/state/{addr}?height=H reads from. Only markDurable feeds it —
// a block's verdict, in height order, or an installed checkpoint — so a
// rolled-back block never enters it, the retained heights are contiguous
// and height mod historyDepth is a view's slot: storing one overwrites,
// and so releases, the version historyDepth below it.
type history struct {
	// mu guards the fields below and orders durable-view publication
	// with retention. A leaf lock, held for a slot access only: no other
	// lock is taken under it (installSnapshotState publishes holding
	// n.mu, so it must never want n.mu).
	mu     sync.Mutex
	on     bool
	newest uint64
	views  [historyDepth]*durableView
}

// push retains v as the newest view. One that does not extend the window
// by one — a checkpoint installed ahead of it — has nothing retained that
// connects to it, and the window restarts there. Caller holds mu.
func (h *history) push(v *durableView) {
	if v.height != h.newest+1 {
		h.views = [historyDepth]*durableView{}
	}
	h.views[v.height%historyDepth] = v
	h.newest = v.height
}

// RetainHistory turns on historical reads: from the current durable
// height on, the node keeps its newest historyDepth durable versions and
// BalanceAtHeight answers from them. Off by default — a node nobody asks
// about the past (a miner, a plain follower) should not pay the memory.
func (n *Node) RetainHistory() {
	h := &n.history
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.on {
		h.on = true
		h.push(n.durable.Load())
	}
}

// BalanceAtHeight implements api.Backend: a balance read at a
// historical block height, from the version retained for it. A height
// above the durable one is "behind" (412 on the wire) even if the live
// world has sealed past it — a read must never expose a block a crash
// could void; one under the retained window, or any on a node that
// retains none, is unavailable (404). The read shares no lock with block
// execution or with the node's bookkeeping.
func (n *Node) BalanceAtHeight(addr types.Address, height uint64) (types.Amount, error) {
	if height > n.servedHeight() {
		return 0, fmt.Errorf("node: height %d: %w", height, api.ErrHeightAhead)
	}
	n.history.mu.Lock()
	view := n.history.views[height%historyDepth]
	n.history.mu.Unlock()
	if view == nil || view.height != height {
		return 0, fmt.Errorf("node: height %d: %w", height, api.ErrHeightUnavailable)
	}
	bal, err := n.world.BalanceIn(view.state, addr)
	if err != nil {
		return 0, fmt.Errorf("node: balance read: %w", err)
	}
	return bal, nil
}
