// Package node assembles the library into a runnable service: a mempool,
// a speculative parallel miner, a deterministic parallel validator and a
// hash-linked chain behind the versioned /v1 HTTP API of internal/api.
// It is the "downstream user" layer: cmd/nodesrv serves it, and the tests
// drive a miner node and a validator node end to end over HTTP.
//
// Endpoints (see docs/API.md):
//
//	POST /v1/tx            {sender, contract, function, args, value, gasLimit} → {id, poolLen}
//	GET  /v1/tx/{id}       → receipt (pending | committed | aborted), durable blocks only
//	POST /v1/mine          {blockSize}       → mines one block from the pool
//	POST /v1/blocks        (flat block bytes) → validate + append (validator nodes)
//	GET  /v1/blocks/N      → flat block bytes (durable blocks only)
//	GET  /v1/head          → durable head summary JSON
//	GET  /v1/status        → height, pool depth, stats, API metrics
//	GET  /v1/state/{addr}  → account balance
//	GET  /v1/snapshot      → state checkpoint (snapshot fast-sync)
//	GET  /v1/subscribe     → SSE stream of durable blocks + receipts
//
// Transactions arrive as JSON with a small typed argument encoding
// (wire.Arg); blocks travel in the chain package's flat wire format so the
// schedule metadata survives byte-exact. Every submitted transaction gets
// a content-derived ID (wire.TxIDOf); its receipt — status, gas used,
// abort reason, block coordinates, schedule position — becomes queryable
// only once the containing block is durable, which is the crash rule
// extended to the client API.
//
// With Config.DataDir set the node is durable: every appended block goes
// to a write-ahead log before it becomes visible, state snapshots are
// written periodically (checkpoint.go), and New recovers a previous run's
// chain by loading the newest snapshot and replaying the WAL tail through
// the validator (recover.go) — so recovery re-verifies the published
// (S, H) schedules exactly as a peer would.
//
// Every block — mined here, imported from a peer (import.go), or replayed
// from the WAL by New — crosses one lifecycle, seal → persist → verdict,
// with one rollback for a failed persist; lifecycle.go holds it, beside
// the one sealed-not-durable window. Its rule: nothing is visible before
// it is durable. The chain head has two notions — the sealed height (what
// mining builds on) and the durable height (what a crash provably keeps;
// Status reports both) — and every read surface is gated by the durable
// one.
package node

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"contractstm/internal/api"
	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/mempool"
	"contractstm/internal/miner"
	"contractstm/internal/persist"
	"contractstm/internal/runtime"
	"contractstm/internal/storage"
	"contractstm/internal/txpool"
	"contractstm/internal/types"
)

// Config assembles a node.
type Config struct {
	// World is the node's contract state at the current chain head.
	World *contract.World
	// Workers is the mining/validation pool size.
	Workers int
	// Runner executes mining and validation (nil = real OS threads).
	Runner runtime.Runner
	// SelectionPolicy picks block transactions from the pool.
	SelectionPolicy txpool.Policy
	// Engine selects the block-execution strategy (default speculative).
	Engine engine.Kind
	// DataDir, when non-empty, makes the node durable: blocks append to
	// a WAL under this directory, state snapshots are written on the
	// Persist cadence, and New transparently recovers a previous run's
	// chain. World must be the same genesis world (same deterministic
	// setup) the directory was created with.
	DataDir string
	// Persist tunes WAL fsync batching and snapshot cadence; zero values
	// mean the persist package defaults. Ignored without DataDir.
	Persist persist.Options
	// PipelineDepth bounds the sealed-not-durable window: how many mined
	// blocks may await their WAL fsync while the next one executes. 0 or
	// 1 is a window of one (durable before MineOne returns), and so is
	// any depth without a DataDir, which has no fsync to overlap. Depth
	// > 1 overlaps execution with persistence; see lifecycle.go for the
	// sealed/durable distinction and the abort rule.
	PipelineDepth int
	// Publish, when non-nil, is called for every locally mined block once
	// it is durable (or immediately after sealing on a node without a
	// DataDir), serially and in height order — the safe point to announce
	// a block to peers. The hook must not call back into the node.
	Publish func(chain.Block)
	// DefaultBlockSize caps mined blocks when a mine request leaves the
	// size unset (0 = api.DefaultBlockSize, 100).
	DefaultBlockSize int
	// DefaultGasLimit is assigned to submitted transactions that leave
	// the gas limit unset (0 = api.DefaultGasLimit, 1e6).
	DefaultGasLimit uint64
	// MaxGasLimit rejects API-submitted transactions whose gas limit
	// exceeds it (0 = api.DefaultMaxGasLimit, 1e8).
	MaxGasLimit uint64
	// SubscriberBuffer sizes each /v1/subscribe subscriber's event
	// buffer (0 = api.DefaultSubscriberBuffer). Relay nodes serving many
	// downstream subscribers raise it.
	SubscriberBuffer int
	// ErrorLog receives node- and API-level serving faults that would
	// otherwise be swallowed (response-encoding failures and the like).
	// Nil logs to the standard logger.
	ErrorLog func(error)
	// Mempool tunes the sharded pool and its admission pipeline (shard
	// count, per-sender slots and rate limits, byte budget). Zero-value
	// limits are permissive: nothing is shed. The clock (Mempool.Now)
	// defaults to time.Now; the pool itself never reads the wall clock.
	Mempool mempool.Config
	// ImportMode is ignored; see the shim block in import.go.
	ImportMode ImportMode
}

// Node is a single in-process blockchain node.
type Node struct {
	// mu guards the bookkeeping state: chain, pool interactions tied to
	// chain state, counters and the window. It is never held across a
	// block execution, so status queries stay responsive while a block
	// mines.
	mu sync.Mutex
	// execMu serializes world-mutating block work (mining and foreign-
	// block validation): the world advances one block at a time.
	execMu  sync.Mutex
	world   *contract.World
	chain   *chain.Chain
	pool    *mempool.Pool
	workers int
	runner  runtime.Runner
	policy  txpool.Policy
	eng     engine.Engine
	// log is the durable persistence log (nil without Config.DataDir).
	log *persist.Log
	// snapEvery is the snapshot cadence in blocks (<=0 disables);
	// sinceSnap counts blocks sealed since the last snapshot (both
	// guarded by execMu, not n.mu — see maybeSnapshot).
	snapEvery int
	sinceSnap int
	// snapshotErrs counts failed checkpoint writes (atomic: bumped under
	// execMu, read by CurrentStatus under n.mu). Non-zero means the WAL
	// is growing unpruned and recovery time with it — a durable node
	// whose snapshots silently stopped is a monitoring fact, not a
	// detail to swallow.
	snapshotErrs atomic.Int64
	// lastSnapHeight mirrors the log's newest snapshot height (atomic),
	// so CurrentStatus never calls into the persist.Log — whose mutex
	// Append/WriteSnapshot hold across fsyncs — while holding n.mu.
	lastSnapHeight atomic.Uint64
	// win is the sealed-not-durable window (lifecycle.go), guarded by mu.
	win window
	// durable is the newest block that has had its verdict, with the
	// state as of exactly that block (on a node without a data dir the
	// verdict follows the seal at once). Its height never exceeds the
	// sealed height and gates every read; its state is what state reads
	// are served from, so a balance and the height it is reported at come
	// out of one atomic load and need no lock. Never nil after New.
	durable atomic.Pointer[durableView]
	// lastDurableAt is when the durable height last advanced, in unix
	// milliseconds (atomic; 0 until the first advance). The API's
	// X-Chain-Staleness header derives from it.
	lastDurableAt atomic.Int64
	// history retains the newest durable views for the API's ?height=H
	// reads, once RetainHistory turns it on.
	history history
	// publish is the post-durability announce hook (Config.Publish;
	// guarded by n.mu so SetPublish can install it after construction).
	publish func(chain.Block)
	// receipts indexes per-transaction execution results by content-
	// derived ID; entries are recorded only once the containing block is
	// durable (the crash rule extends to the client API). events fans
	// durable blocks out to /v1/subscribe streams.
	receipts *api.ReceiptStore
	events   *api.Broker
	// admitMu orders SubmitTx's receipt marks as the pool ordered its
	// decisions, one mutex per pool shard: the duplicate check, the
	// admission and the pending and evicted marks it causes run as one
	// step. An admission drops only transactions of its own shard, so
	// every mark of one ID is made under that shard's mutex. Without it a
	// submission could mark pending a transaction that a concurrent
	// admission had already evicted, and the transaction would read
	// "pending" — and be refused as a duplicate — while no pool holds it.
	admitMu []sync.Mutex
	// server is the /v1 API layer (built once; Handler returns it).
	server *api.Server
	// errLog is the serving-fault hook (Config.ErrorLog or std log).
	errLog func(error)
	// tally counts sealed blocks by origin (mined, imported, recovered);
	// totalRetries sums the mined blocks' execution retries. Rollback
	// takes un-sealed blocks out again. Guarded by n.mu.
	tally        [3]int
	totalRetries int
}

// origin says which entry point produced a block; the lifecycle differs
// by origin only in what the tally counts, in who waits for the verdict,
// and in that only mined blocks are published to peers.
type origin uint8

const (
	mined origin = iota
	imported
	recovered
)

// durableView is one durable block boundary as readers see it.
type durableView struct {
	height uint64
	state  storage.Snapshot
}

// New creates a node whose genesis commits to the world's current state.
func New(cfg Config) (*Node, error) {
	if cfg.World == nil {
		return nil, fmt.Errorf("node: nil world")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	if cfg.Runner == nil {
		cfg.Runner = runtime.NewOSRunner(nil)
	}
	if cfg.SelectionPolicy == 0 {
		cfg.SelectionPolicy = txpool.PolicyFIFO
	}
	if cfg.Engine == 0 {
		cfg.Engine = engine.KindSpeculative
	}
	eng, err := engine.New(cfg.Engine)
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	root, err := cfg.World.StateRoot()
	if err != nil {
		return nil, fmt.Errorf("node: state root: %w", err)
	}
	poolCfg := cfg.Mempool
	if poolCfg.Now == nil {
		poolCfg.Now = time.Now
	}
	n := &Node{
		world:   cfg.World,
		chain:   chain.New(root),
		pool:    mempool.New(poolCfg),
		workers: cfg.Workers,
		runner:  cfg.Runner,
		policy:  cfg.SelectionPolicy,
		eng:     eng,
	}
	n.admitMu = make([]sync.Mutex, n.pool.Shards())
	n.win.cond.L = &n.mu
	n.win.depth = 1
	// Genesis is durable by definition; no staleness clock starts yet.
	n.durable.Store(&durableView{state: cfg.World.Snapshot()})
	n.errLog = cfg.ErrorLog
	if n.errLog == nil {
		n.errLog = func(err error) { log.Printf("node: %v", err) }
	}
	n.receipts = api.NewReceiptStore(0)
	n.events = api.NewBroker()
	if cfg.DataDir != "" {
		if err := n.openDurable(cfg, root); err != nil {
			// Release the directory lock a partially-opened log holds, or
			// the next open attempt would fail with ErrLocked instead of
			// the real problem.
			if n.log != nil {
				_ = n.log.Close()
			}
			return nil, err
		}
	}
	n.publish = cfg.Publish
	if cfg.PipelineDepth > 1 && n.log != nil {
		n.win.depth = cfg.PipelineDepth
		n.win.stopped = make(chan struct{})
		go n.commitLoop()
	}
	n.server = api.NewServer(api.Config{
		Backend:          n,
		Receipts:         n.receipts,
		Events:           n.events,
		DefaultBlockSize: cfg.DefaultBlockSize,
		DefaultGasLimit:  cfg.DefaultGasLimit,
		MaxGasLimit:      cfg.MaxGasLimit,
		SubscriberBuffer: cfg.SubscriberBuffer,
		ErrorLog:         n.errLog,
	})
	return n, nil
}

// SetPublish installs (or replaces) the post-durability publish hook.
// Call it before mining starts: a hook swapped mid-pipeline may miss
// blocks already past their publish stage.
func (n *Node) SetPublish(f func(chain.Block)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.publish = f
}

// Close persists the pending mempool and cleanly closes the WAL, first
// draining the window so the mempool snapshot reflects every rollback. A
// node without a DataDir has nothing to do beyond the drain. The node
// must be quiescent (callers stop serving first); mining after Close
// fails on the latched window.
func (n *Node) Close() error {
	flushErr := n.Flush()
	if n.log == nil {
		return flushErr
	}
	// Latched last: the overdue checkpoint below drains an open window.
	defer n.shut()
	n.execMu.Lock()
	defer n.execMu.Unlock()
	// A pipelining node defers cadence checkpoints to drain points, and
	// shutdown is the last one: an overdue snapshot writes now, so a node
	// whose mining stopped exactly at a cadence boundary has the disk
	// state of a window-1 node instead of leaving the whole WAL tail for
	// the next recovery to replay.
	if flushErr == nil {
		n.maybeSnapshot()
	}
	if err := n.log.SavePool(n.pool.PendingCalls()); err != nil {
		return fmt.Errorf("node: close: %w", err)
	}
	if err := n.log.Close(); err != nil {
		return fmt.Errorf("node: close: %w", err)
	}
	return flushErr
}

// Kill simulates a crash: the WAL file handles and the data-dir lock are
// released so the directory can be reopened, but nothing graceful
// happens — no pool save, no shutdown courtesy. The durable state is
// exactly what the WAL already holds, which is the point: crash tests
// and demos recover from this. (An actual process kill releases the
// lock the same way, since advisory locks die with their descriptors.)
func (n *Node) Kill() {
	// A crashing node runs no rollback — the process is "gone", so its
	// in-memory world is nobody's business; only the WAL speaks.
	n.shut()
	n.execMu.Lock()
	defer n.execMu.Unlock()
	if n.log != nil {
		_ = n.log.Close()
	}
}

// Submit queues a transaction and tracks it as pending in the receipt
// index, so a client polling the content-derived ID reads "pending"
// rather than "unknown" until the containing block is durable. The ID is
// returned so serving layers derive it exactly once; the pool gets it
// too, with the encoded size, rather than deriving it again.
func (n *Node) Submit(call contract.Call) types.Hash {
	tx := mempool.TxOf(call)
	n.receipts.MarkPending(tx.ID)
	n.pool.SubmitTrusted(tx)
	return tx.ID
}

// SubmitAll queues a batch of transactions atomically: no other
// submitter's calls interleave inside the batch. Like Submit, this is
// the trusted intake — admission control (dedup, caps, rate limits)
// applies only to the API path (SubmitTx), because the node's own
// batches may legitimately contain byte-identical calls.
func (n *Node) SubmitAll(calls []contract.Call) {
	txs := txsOf(calls)
	for _, tx := range txs {
		n.receipts.MarkPending(tx.ID)
	}
	n.pool.SubmitAllTrusted(txs)
}

// txsOf identifies each call once, for the pool and the receipt index.
func txsOf(calls []contract.Call) []mempool.Tx {
	txs := make([]mempool.Tx, len(calls))
	for i, c := range calls {
		txs[i] = mempool.TxOf(c)
	}
	return txs
}

// PoolLen reports queued transactions.
func (n *Node) PoolLen() int { return n.pool.Len() }

// chainRef reads the chain pointer safely: InstallSnapshot swaps it at
// runtime (holding both execMu and n.mu), so readers must hold one of
// the two; the public accessors hold neither, hence this helper.
func (n *Node) chainRef() *chain.Chain {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.chain
}

// Height returns the chain height (genesis = 0).
func (n *Node) Height() uint64 {
	return n.chainRef().Head().Header.Number
}

// Head returns the chain head.
func (n *Node) Head() chain.Block { return n.chainRef().Head() }

// BlockAt returns a block by height.
func (n *Node) BlockAt(h uint64) (chain.Block, bool) { return n.chainRef().BlockAt(h) }

// MineOne selects up to blockSize transactions, executes them with the
// node's engine, seals the block and reports conflict feedback to the
// pool. It returns the sealed block. With a window of 1 the block is
// durable (per the WAL sync policy) before MineOne returns; with a deeper
// window the persist and verdict stages complete asynchronously, and a
// later persist failure rolls the block back and requeues its calls — see
// lifecycle.go.
//
// Locking: execMu serializes the world mutation end to end, but n.mu is
// only taken for the short bookkeeping sections (selection against the
// current head, then the seal), never across the execution itself.
func (n *Node) MineOne(blockSize int) (chain.Block, error) {
	return n.mineOne(blockSize, true)
}

// mineOne is MineOne with a seam: submit=false leaves the block sealed
// but never handed to the persist stage — the crash tests' way of parking
// the node at an exact lifecycle stage; persist(entry) resumes it.
func (n *Node) mineOne(blockSize int, submit bool) (chain.Block, error) {
	if err := n.enter(); err != nil {
		return chain.Block{}, err
	}
	defer n.execMu.Unlock()
	e, res, err := n.mineEntry(blockSize)
	if err == nil {
		err = n.seal(e)
	}
	if err != nil {
		n.release()
		return chain.Block{}, err
	}
	n.reportFeedback(e.sel.Calls, res)
	if submit {
		// Still under execMu: WAL order must match chain order even
		// against a concurrent AcceptBlock.
		if err := n.persist(e); err != nil {
			return chain.Block{}, err
		}
	}
	return e.block, nil
}

// mineEntry is the select + execute stage: pick a batch against the
// sealed head and run it through the engine. On failure the world is
// restored and the batch requeued at its arrival position. Caller holds
// execMu, which guarantees the parent header cannot move underneath us.
func (n *Node) mineEntry(blockSize int) (*inflightEntry, miner.Result, error) {
	n.mu.Lock()
	sel, err := n.pool.SelectBatch(n.policy, blockSize)
	parent := n.chain.Head().Header
	n.mu.Unlock()
	if err != nil {
		return nil, miner.Result{}, fmt.Errorf("node: select: %w", err)
	}
	snap := n.world.Snapshot()
	res, err := miner.MineHashed(n.eng, n.runner, n.world, parent, sel.Calls, sel.TxIDs(),
		engine.Options{Workers: n.workers})
	if err != nil {
		n.world.Restore(snap)
		// The selection was destructive; a failed attempt must not lose
		// the clients' transactions.
		n.pool.RequeueBatch(sel)
		return nil, miner.Result{}, fmt.Errorf("node: mine: %w", err)
	}
	return &inflightEntry{block: res.Block, origin: mined, sel: sel, snap: snap, retries: res.Stats.Retries, txIDs: res.TxIDs}, res, nil
}

// reportFeedback feeds the engine's conflict observations back to the
// pool, each to the one policy that reads it: retried transactions to
// spread, the happens-before pairs to lock-hint. FIFO reads neither.
func (n *Node) reportFeedback(calls []contract.Call, res miner.Result) {
	switch n.policy {
	case txpool.PolicySpread:
		if len(res.Stats.RetriedTxs) == 0 {
			return
		}
		conflicted := make([]contract.Call, len(res.Stats.RetriedTxs))
		for i, id := range res.Stats.RetriedTxs {
			conflicted[i] = calls[id]
		}
		n.pool.ReportConflicts(conflicted)
	case txpool.PolicyLockHint:
		if len(res.Stats.ConflictPairs) == 0 {
			return
		}
		pairs := make([][2]contract.Call, len(res.Stats.ConflictPairs))
		for i, pr := range res.Stats.ConflictPairs {
			pairs[i] = [2]contract.Call{calls[pr[0]], calls[pr[1]]}
		}
		n.pool.ReportConflictPairs(pairs)
	}
}

// MinePipelined mines up to blocks blocks of blockSize through the
// configured pipeline and then drains it, so on a nil error every mined
// block is durable and published. It stops early (without error) when the
// pool runs dry. The returned count is blocks sealed; if the pipeline
// aborted, the error says so and the aborted suffix's calls are back in
// the pool.
func (n *Node) MinePipelined(blocks, blockSize int) (int, error) {
	mined := 0
	for i := 0; i < blocks; i++ {
		if _, err := n.MineOne(blockSize); err != nil {
			if errors.Is(err, txpool.ErrEmpty) {
				break
			}
			_ = n.Flush()
			return mined, err
		}
		mined++
	}
	return mined, n.Flush()
}
