package node

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"contractstm/internal/api"
	"contractstm/internal/api/wire"
	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/mempool"
	"contractstm/internal/persist"
	"contractstm/internal/types"
)

// This file is the node's side of the versioned API: *Node implements
// api.Backend, and Handler exposes the api.Server built in New. The
// server owns HTTP concerns (schema, limits, timeouts, metrics); the
// node owns semantics — and in particular the durability gate: every
// block surface the API serves (blocks, head, receipts, events) is
// bounded by what the persistence layer has acknowledged.

// Handler returns the node's HTTP API, the /v1 routes. The handler is
// built once per node, so request metrics aggregate across callers.
func (n *Node) Handler() http.Handler { return n.server }

// SubmitTx implements api.Backend: the admission-controlled intake. It
// differs from Submit — the node's own trusted path — in three ways: the
// call runs the full admission pipeline (dedup, per-sender caps, rate
// limits, byte budget), a duplicate of a transaction the node already
// tracks short-circuits to the existing receipt instead of re-entering
// the pool, and eviction casualties get terminal evicted receipts so
// their submitters learn the outcome by polling. A transaction whose
// receipt is StatusEvicted may re-enter: eviction is terminal for that
// attempt, not for the payload. Receipt history is an LRU, so a
// duplicate older than the receipt window re-admits — acceptable,
// because re-executing a forgotten transaction is the pre-admission
// status quo, not a new hazard. Submissions to one pool shard run one
// at a time under its admitMu, so a transaction's receipt reads what the
// pool last decided for it.
func (n *Node) SubmitTx(call contract.Call, priority uint8) api.SubmitResult {
	tx := mempool.TxOf(call)
	id := tx.ID
	mu := &n.admitMu[n.pool.ShardIndex(call.Sender)]
	mu.Lock()
	defer mu.Unlock()
	if ref, ok := n.receipts.Lookup(id); ok && ref.Status() != wire.StatusEvicted {
		return api.SubmitResult{ID: id, Verdict: mempool.VerdictDuplicate.String(), Duplicate: true}
	}
	d := n.pool.AdmitTx(tx, priority)
	res := api.SubmitResult{
		ID:         id,
		Verdict:    d.Verdict.String(),
		Admitted:   d.Verdict.Admitted(),
		Duplicate:  d.Verdict == mempool.VerdictDuplicate,
		RetryAfter: d.RetryAfter,
	}
	if res.Admitted {
		n.receipts.MarkPending(id)
	}
	for _, dr := range d.Dropped {
		n.receipts.MarkEvicted(dr.ID)
	}
	return res
}

// ImportBlock implements api.Backend over AcceptBlock, folding the
// idempotent re-import case into a non-error answer.
func (n *Node) ImportBlock(b chain.Block) (alreadyKnown bool, err error) {
	if err := n.AcceptBlock(b); err != nil {
		if errors.Is(err, ErrAlreadyKnown) {
			return true, nil
		}
		return false, err
	}
	return false, nil
}

// servedHeight is the highest height the wire API exposes: the durable
// height, on every node. A block is sealed onto the chain before its WAL
// record is durable, so the chain head alone may be one a crash voids; a
// syncing follower must never hold such a block, or it could fork.
func (n *Node) servedHeight() uint64 { return n.durable.Load().height }

// DurableBlock implements api.Backend: the block at height, only if it
// is at or under the durability line. The crash rule covers the pull
// path — the API must never hand out a sealed-not-durable block, or a
// client could hold state the node loses in a crash.
func (n *Node) DurableBlock(height uint64) (chain.Block, bool) {
	if height > n.servedHeight() {
		return chain.Block{}, false
	}
	return n.BlockAt(height)
}

// DurableHead implements api.Backend: the newest durable block. The
// sealed chain always holds its durable prefix, so the lookup cannot
// miss; a pruned chain's base is durable by construction.
func (n *Node) DurableHead() chain.Block {
	if b, ok := n.BlockAt(n.servedHeight()); ok {
		return b
	}
	return n.Head()
}

// Snapshot implements api.Backend.
func (n *Node) Snapshot() (persist.Snapshot, error) { return n.SnapshotNow() }

// SnapshotWire implements api.Backend: the cached framed snapshot bytes
// of a durable node (immutable between checkpoint writes), or nil.
func (n *Node) SnapshotWire() []byte {
	if n.log == nil {
		return nil
	}
	return n.log.LatestSnapshotWire()
}

// BalanceAt implements api.Backend: one account's balance at the durable
// head, and the height of that head. Both come out of one load of the
// published durable view, whose state is an immutable version of the
// world, so the pair was true together whatever has sealed or become
// durable since — and the read takes no lock: it neither waits for an
// executing block nor can it see a sealed-not-durable one.
func (n *Node) BalanceAt(addr types.Address) (types.Amount, uint64, error) {
	view := n.durable.Load()
	bal, err := n.world.BalanceIn(view.state, addr)
	if err != nil {
		return 0, 0, fmt.Errorf("node: balance read: %w", err)
	}
	return bal, view.height, nil
}

// ReadStamp implements api.Backend: the durable height reads are served
// at, plus how long ago it advanced in milliseconds (0 before the first
// advance — a fresh non-durable node has no staleness clock yet).
func (n *Node) ReadStamp() (uint64, int64) {
	height := n.servedHeight()
	at := n.lastDurableAt.Load()
	if at == 0 {
		return height, 0
	}
	stale := time.Now().UnixMilli() - at
	if stale < 0 {
		stale = 0
	}
	return height, stale
}

// SetStatusDecorator forwards to the API server's status hook — the
// replica relay reports itself in GET /v1/status through this.
func (n *Node) SetStatusDecorator(fn func(*wire.Status)) {
	n.server.SetStatusDecorator(fn)
}

// RefuseWrites forwards to the API server: POST /v1/tx and POST /v1/mine
// answer 403 read_replica from now on. replica.New calls it — a node that
// follows an upstream must not seal blocks of its own.
func (n *Node) RefuseWrites() { n.server.RefuseWrites() }

// Status summarizes the node.
type Status struct {
	Height          uint64     `json:"height"`
	HeadHash        types.Hash `json:"headHash"`
	PoolLen         int        `json:"poolLen"`
	Engine          string     `json:"engine"`
	MinedBlocks     int        `json:"minedBlocks"`
	ValidatedBlocks int        `json:"validatedBlocks"`
	TotalRetries    int        `json:"totalRetries"`
	// DurableHeight is the newest block that has had its durability
	// verdict; Height - DurableHeight is the sealed-not-durable window.
	// It never exceeds Height. On a node without a data dir the verdict
	// follows the seal immediately.
	DurableHeight uint64 `json:"durableHeight"`
	// PipelineDepth and InFlight describe the sealed-not-durable window:
	// its size (0 when it is 1 — a synchronous node, or any node without
	// a data dir, whose verdicts are inline), and how many blocks
	// currently sit between their seal and their durability verdict.
	PipelineDepth int `json:"pipelineDepth,omitempty"`
	InFlight      int `json:"inFlight,omitempty"`
	// Persistent reports whether the node runs with a durable data dir;
	// RecoveredBlocks and SnapshotHeight describe its recovery state.
	// SnapshotErrors counts failed checkpoint writes since start — any
	// non-zero value means the WAL is growing unpruned.
	Persistent      bool   `json:"persistent"`
	RecoveredBlocks int    `json:"recoveredBlocks,omitempty"`
	SnapshotHeight  uint64 `json:"snapshotHeight,omitempty"`
	SnapshotErrors  int64  `json:"snapshotErrors,omitempty"`
	// WAL I/O counters (persistent nodes): appends and framed bytes
	// written, fsync count and summed latency in microseconds, and how
	// group commits batched — the numbers that attribute a block rate to
	// the disk.
	WalAppends      int64 `json:"walAppends,omitempty"`
	WalBytesWritten int64 `json:"walBytesWritten,omitempty"`
	WalFsyncs       int64 `json:"walFsyncs,omitempty"`
	WalFsyncMicros  int64 `json:"walFsyncMicros,omitempty"`
	WalGroupCommits int64 `json:"walGroupCommits,omitempty"`
	WalMaxGroup     int   `json:"walMaxGroup,omitempty"`
	// ChainBase is the oldest height the node still holds (non-zero on a
	// fast-synced, pruned node).
	ChainBase uint64 `json:"chainBase,omitempty"`
	// Mempool is the sharded pool's admission accounting: cumulative
	// verdict counters, evictions, byte footprint and per-shard
	// occupancy.
	Mempool mempool.StatsSnapshot `json:"mempool"`
}

// CurrentStatus snapshots node statistics. It never blocks behind an
// in-flight block execution (see MineOne's locking discipline).
func (n *Node) CurrentStatus() Status {
	// n.eng is fixed at construction, so its kind is read before taking
	// the lock rather than calling into the engine under it.
	engineKind := n.eng.Kind().String()
	n.mu.Lock()
	defer n.mu.Unlock()
	head := n.chain.Head()
	st := Status{
		Height:          head.Header.Number,
		HeadHash:        head.Header.Hash(),
		PoolLen:         n.pool.Len(),
		Engine:          engineKind,
		MinedBlocks:     n.tally[mined],
		ValidatedBlocks: n.tally[imported],
		TotalRetries:    n.totalRetries,
		DurableHeight:   n.servedHeight(),
		InFlight:        len(n.win.inflight),
		ChainBase:       n.chain.Base(),
	}
	if n.win.depth > 1 {
		st.PipelineDepth = n.win.depth
	}
	st.Mempool = n.pool.Stats()
	if n.log != nil {
		st.Persistent = true
		st.RecoveredBlocks = n.tally[recovered]
		st.SnapshotErrors = n.snapshotErrs.Load()
		st.SnapshotHeight = n.lastSnapHeight.Load()
		// MetricsSnapshot is lock-free (atomic counters), so this cannot
		// stall the status path behind an in-flight fsync.
		m := n.log.MetricsSnapshot()
		st.WalAppends = m.Appends
		st.WalBytesWritten = m.BytesWritten
		st.WalFsyncs = m.Fsyncs
		st.WalFsyncMicros = m.FsyncTime.Microseconds()
		st.WalGroupCommits = m.GroupCommits
		st.WalMaxGroup = m.MaxGroup
	}
	return st
}

// APIStatus implements api.Backend: CurrentStatus in wire form (hashes
// as hex strings). The API field stays nil; the serving layer fills it.
func (n *Node) APIStatus() wire.Status {
	st := n.CurrentStatus()
	return wire.Status{
		Height:          st.Height,
		HeadHash:        st.HeadHash.String(),
		PoolLen:         st.PoolLen,
		Engine:          st.Engine,
		MinedBlocks:     st.MinedBlocks,
		ValidatedBlocks: st.ValidatedBlocks,
		TotalRetries:    st.TotalRetries,
		DurableHeight:   st.DurableHeight,
		PipelineDepth:   st.PipelineDepth,
		InFlight:        st.InFlight,
		Persistent:      st.Persistent,
		RecoveredBlocks: st.RecoveredBlocks,
		SnapshotHeight:  st.SnapshotHeight,
		SnapshotErrors:  st.SnapshotErrors,
		WalAppends:      st.WalAppends,
		WalBytesWritten: st.WalBytesWritten,
		WalFsyncs:       st.WalFsyncs,
		WalFsyncMicros:  st.WalFsyncMicros,
		WalGroupCommits: st.WalGroupCommits,
		WalMaxGroup:     st.WalMaxGroup,
		ChainBase:       st.ChainBase,
		Mempool: &wire.MempoolStatus{
			Admitted:       st.Mempool.Admitted,
			Replaced:       st.Mempool.Replaced,
			Duplicate:      st.Mempool.Duplicate,
			RateLimited:    st.Mempool.RateLimited,
			SenderLimit:    st.Mempool.SenderLimit,
			ShardSaturated: st.Mempool.ShardSaturated,
			PoolOverloaded: st.Mempool.PoolOverloaded,
			Evicted:        st.Mempool.Evicted,
			Bytes:          st.Mempool.Bytes,
			Shards:         len(st.Mempool.ShardOccupancy),
			ShardOccupancy: st.Mempool.ShardOccupancy,
		},
	}
}
