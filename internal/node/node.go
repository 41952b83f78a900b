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
// written periodically, and New recovers a previous run's chain by
// loading the newest snapshot and replaying the WAL tail through the
// validator — so recovery re-verifies the published (S, H) schedules
// exactly as a peer would.
//
// Every block — mined here, imported from a peer, or replayed from the WAL
// by New — crosses the same lifecycle:
//
//	seal    (under execMu) chain.Append, register in the in-flight
//	        window, bump the tally: the sealed head advances
//	persist the WAL append: inline on a node whose window is 1, through
//	        the asynchronous group-commit writer when PipelineDepth > 1;
//	        recovered blocks skip it, the WAL already holds them
//	verdict leave the window, advance the durable height, record
//	        receipts, emit the event, publish a mined block to peers
//
// and one rule: nothing is visible before it is durable. The chain head
// has two notions — the sealed height (what mining builds on) and the
// durable height (what a crash provably keeps; Status reports both) —
// and every read surface is gated by the durable one. A persist failure
// rolls the sealed-not-durable suffix back: world restored, chain
// rewound, calls requeued at their original arrival position. With
// PipelineDepth <= 1 (the default) the window is 1 and MineOne returns
// only after its own verdict; with a deeper window MineOne returns at
// seal, the fsync of block N overlaps the execution of block N+1, and a
// failure additionally latches the node against further sealing.
package node

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"contractstm/internal/api"
	"contractstm/internal/api/wire"
	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/mempool"
	"contractstm/internal/miner"
	"contractstm/internal/persist"
	"contractstm/internal/pipeline"
	"contractstm/internal/runtime"
	"contractstm/internal/storage"
	"contractstm/internal/txpool"
	"contractstm/internal/types"
	"contractstm/internal/validator"
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
	// 1 is a window of one (durable before MineOne returns). Depth > 1
	// overlaps execution with persistence; see the package comment for
	// the sealed/durable distinction and the abort rule.
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
	// MaxBodyBytes bounds JSON request bodies on the API
	// (0 = api.DefaultMaxBodyBytes, 1 MiB).
	MaxBodyBytes int64
	// ReceiptCapacity bounds the in-memory receipt index
	// (0 = api.DefaultReceiptCapacity).
	ReceiptCapacity int
	// SubscriberBuffer sizes each /v1/subscribe subscriber's event
	// buffer (0 = api.DefaultSubscriberBuffer). Relay nodes serving many
	// downstream subscribers raise it.
	SubscriberBuffer int
	// EventReplayDepth is how many published events the broker retains
	// for Last-Event-ID reconnect replay (0 = api.DefaultEventReplayDepth,
	// negative disables replay).
	EventReplayDepth int
	// ErrorLog receives node- and API-level serving faults that would
	// otherwise be swallowed (response-encoding failures and the like).
	// Nil logs to the standard logger.
	ErrorLog func(error)
	// Mempool tunes the sharded pool and its admission pipeline (shard
	// count, per-sender slots and rate limits, byte budget). Zero-value
	// limits are permissive — the node behaves like the single-lock
	// pool. The clock (Mempool.Now) defaults to time.Now; the pool
	// itself never reads the wall clock.
	Mempool mempool.Config
	// ImportMode is ignored; see the shim block in import.go.
	ImportMode ImportMode
}

// Node is a single in-process blockchain node.
type Node struct {
	// mu guards the bookkeeping state: chain, pool interactions tied to
	// chain state, and counters. It is never held across a block
	// execution, so status queries stay responsive while a block mines.
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
	// writer is the asynchronous group-commit WAL appender (nil unless
	// the node is durable with PipelineDepth > 1). All WAL block appends
	// go through it when present, so mined and imported blocks serialize
	// in one queue.
	writer *persist.Writer
	// prod owns the sealed-not-durable window on every node (depth 1 when
	// PipelineDepth <= 1): every block holds a slot from before its seal
	// until its verdict, which is the back-pressure; a failed
	// asynchronous verdict latches it and schedules the abort pass.
	prod *pipeline.Producer
	// inflight is the sealed-not-durable registry, oldest first. Entries
	// are appended under execMu (at seal) and popped from the front as
	// durability verdicts arrive; rollback drains it wholesale. Guarded
	// by n.mu.
	inflight []*inflightEntry
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

// inflightEntry is one executed block on its way through seal → persist
// → verdict, with everything rollback needs to un-seal it. Its two state
// handles share structure with the live world: holding them costs what
// the block wrote, not a copy of the world.
type inflightEntry struct {
	block  chain.Block
	origin origin
	// sel returns a mined block's calls to their arrival position on
	// rollback (empty otherwise).
	sel mempool.Selection
	// snap is the world state before the block executed, post the state
	// after it — what readers are served once the block is durable.
	snap, post storage.Snapshot
	// retries is a mined block's execution retry count, un-tallied on
	// rollback.
	retries int
	// txIDs are the calls' transaction IDs, from whoever hashed the tx
	// root (chain.Seal or validator.Precheck), for the verdict's receipts.
	txIDs []types.Hash
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
	// Genesis is durable by definition; no staleness clock starts yet.
	n.durable.Store(&durableView{state: cfg.World.Snapshot()})
	n.prod = pipeline.New(cfg.PipelineDepth, n.abortPass)
	n.errLog = cfg.ErrorLog
	if n.errLog == nil {
		n.errLog = func(err error) { log.Printf("node: %v", err) }
	}
	n.receipts = api.NewReceiptStore(cfg.ReceiptCapacity)
	replayDepth := cfg.EventReplayDepth
	if replayDepth == 0 {
		replayDepth = api.DefaultEventReplayDepth
	} else if replayDepth < 0 {
		replayDepth = 0
	}
	n.events = api.NewBrokerRetaining(replayDepth)
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
		n.writer = persist.NewWriter(n.log)
	}
	n.server = api.NewServer(api.Config{
		Backend:          n,
		Receipts:         n.receipts,
		Events:           n.events,
		DefaultBlockSize: cfg.DefaultBlockSize,
		DefaultGasLimit:  cfg.DefaultGasLimit,
		MaxGasLimit:      cfg.MaxGasLimit,
		MaxBodyBytes:     cfg.MaxBodyBytes,
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

// publishHook reads the current hook.
func (n *Node) publishHook() func(chain.Block) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.publish
}

// openDurable opens the persistence log and recovers a previous run:
// restore the newest snapshot, replay the WAL tail through the
// validator, and restore the saved mempool. A fresh directory records a
// permanent genesis identity marker plus a restorable genesis snapshot;
// every reopen verifies the marker, so a data dir from a different
// genesis world fails loudly instead of being silently adopted — even
// after snapshot retention has pruned the genesis snapshot itself.
func (n *Node) openDurable(cfg Config, genesisRoot types.Hash) error {
	log, err := persist.Open(cfg.DataDir, cfg.Persist)
	if err != nil {
		return fmt.Errorf("node: %w", err)
	}
	opts := cfg.Persist.WithDefaults()
	n.log = log
	n.snapEvery = opts.SnapshotEvery

	if err := log.EnsureGenesis(chain.GenesisHeader(genesisRoot)); err != nil {
		return fmt.Errorf("node: %w", err)
	}
	snap := log.LatestSnapshot()
	switch {
	case snap == nil:
		// Fresh directory: checkpoint genesis.
		state, err := n.world.EncodeState()
		if err != nil {
			return fmt.Errorf("node: encode genesis state: %w", err)
		}
		if err := log.WriteSnapshot(persist.Snapshot{Header: chain.GenesisHeader(genesisRoot), State: state}); err != nil {
			return fmt.Errorf("node: genesis snapshot: %w", err)
		}
	case snap.Height() == 0:
		if snap.Header != chain.GenesisHeader(genesisRoot) {
			return fmt.Errorf("node: data dir %s belongs to a different genesis (snapshot root %s, world root %s)",
				cfg.DataDir, snap.Header.StateRoot.Short(), genesisRoot.Short())
		}
	default:
		if err := n.restoreCheckpoint(*snap); err != nil {
			return fmt.Errorf("node: %w", err)
		}
		n.chain = chain.NewAt(snap.Header)
		n.lastSnapHeight.Store(snap.Height())
	}

	// Replay the WAL tail through the full validation path: recovery
	// re-verifies every published schedule, so corrupt-but-well-framed
	// records cannot smuggle state in. Each replayed block counts against
	// the snapshot cadence at its seal, so the cadence resumes where the
	// previous run left it.
	from := n.chain.Head().Header.Number + 1
	if err := log.Blocks(from, n.replayBlock); err != nil {
		return fmt.Errorf("node: recover: %w", err)
	}

	calls, err := log.TakePool()
	if err != nil {
		return fmt.Errorf("node: recover pool: %w", err)
	}
	if len(calls) > 0 {
		// Restored calls were admitted in a previous life; they re-enter
		// through the trusted path, never re-run admission.
		n.pool.SubmitAllTrusted(calls)
	}

	// An overdue checkpoint is written now, once. Otherwise a node that
	// crashes more often than every SnapshotEvery blocks would never
	// snapshot past genesis, and its WAL — and recovery time — would grow
	// without bound.
	n.maybeSnapshot()
	// Everything recovered from disk is by definition durable — also a
	// snapshot with no WAL tail behind it, which no verdict announced.
	n.markDurable(n.chain.Head().Header.Number, n.world.Snapshot())
	return nil
}

// restoreCheckpoint loads a checkpoint's state into the world and checks
// that it hashes to the root the checkpoint header claims. The caller
// owns putting the world back if it fails.
func (n *Node) restoreCheckpoint(s persist.Snapshot) error {
	if err := n.world.RestoreState(s.State); err != nil {
		return fmt.Errorf("snapshot %d: %w", s.Height(), err)
	}
	root, err := n.world.StateRoot()
	if err != nil {
		return fmt.Errorf("snapshot %d: state root: %w", s.Height(), err)
	}
	if root != s.Header.StateRoot {
		return fmt.Errorf("snapshot %d: state hashes to %s, header claims %s",
			s.Height(), root.Short(), s.Header.StateRoot.Short())
	}
	return nil
}

// replayBlock takes one recovered block through the lifecycle: validated
// like a peer's block, sealed, and — the WAL already holding it — given
// its verdict on the spot, so its receipts are queryable from the moment
// the node comes back up. Only New calls it, before the node is shared,
// so no locking.
func (n *Node) replayBlock(b chain.Block) error {
	if err := n.prod.Admit(); err != nil {
		return err
	}
	e, err := n.validateEntry(b, validator.Precheck, recovered)
	if err == nil {
		err = n.seal(e)
	}
	if err != nil {
		n.prod.Release()
		return err
	}
	n.verdict(e, nil)
	return nil
}

// RecoveredBlocks reports how many blocks New replayed from the WAL.
func (n *Node) RecoveredBlocks() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.tally[recovered]
}

// Flush drains the window: it blocks until every sealed block has its
// durability verdict (and any abort pass has finished), then reports the
// latched error, if any. Do not call from a publish hook.
func (n *Node) Flush() error {
	if err := n.prod.Flush(); err != nil {
		return fmt.Errorf("node: %w", err)
	}
	return nil
}

// Close persists the pending mempool and cleanly closes the WAL, first
// draining the pipeline so the mempool snapshot reflects every abort. A
// node without a DataDir has nothing to do beyond the drain. The node
// must be quiescent (callers stop serving first); mining after Close
// fails on the closed log.
func (n *Node) Close() error {
	flushErr := n.Flush()
	if n.writer != nil {
		// The writer's latched error, if any, already surfaced in Flush.
		_ = n.writer.Close()
	}
	n.execMu.Lock()
	defer n.execMu.Unlock()
	if n.log == nil {
		return flushErr
	}
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
	// A crashing node runs no abort passes — the process is "gone", so
	// its in-memory world is nobody's business; only the WAL speaks.
	n.prod.Latch(persist.ErrClosed)
	if n.writer != nil {
		n.writer.Kill()
	}
	n.execMu.Lock()
	defer n.execMu.Unlock()
	if n.log != nil {
		_ = n.log.Close()
	}
}

// Submit queues a transaction and tracks it as pending in the receipt
// index, so a client polling the content-derived ID reads "pending"
// rather than "unknown" until the containing block is durable. The ID is
// returned so serving layers derive it exactly once.
func (n *Node) Submit(call contract.Call) types.Hash {
	id := wire.TxIDOf(call)
	n.receipts.MarkPending(id)
	n.pool.SubmitTrusted(call)
	return id
}

// SubmitAll queues a batch of transactions atomically: no other
// submitter's calls interleave inside the batch. Like Submit, this is
// the trusted intake — admission control (dedup, caps, rate limits)
// applies only to the API path (SubmitTx), because the node's own
// batches may legitimately contain byte-identical calls.
func (n *Node) SubmitAll(calls []contract.Call) {
	for _, c := range calls {
		n.receipts.MarkPending(wire.TxIDOf(c))
	}
	n.pool.SubmitAllTrusted(calls)
}

// recordDurable indexes a durable block's receipts and fans the block
// out to event-stream subscribers. Only the verdict calls it — never for
// a sealed-not-durable block, which a crash could still void.
func (n *Node) recordDurable(e *inflightEntry) {
	recs := wire.ReceiptsOf(e.block, e.txIDs)
	for i, id := range e.txIDs {
		n.receipts.Record(id, recs[i])
	}
	n.events.Publish(wire.Event{Block: wire.BlockInfoOf(e.block), Receipts: recs})
}

// markDurable publishes a new durable boundary — the height and the
// state as of that block, as one value — and stamps when it happened, the
// staleness clock behind the API's X-Chain-Staleness header. Every
// durable-height advance funnels through here, which is what lets a node
// that retains history keep the views it publishes: under history.mu, so
// the newest retained view is always the published one.
func (n *Node) markDurable(height uint64, state storage.Snapshot) {
	view := &durableView{height: height, state: state}
	n.history.mu.Lock()
	n.durable.Store(view)
	if n.history.on {
		n.history.push(view)
	}
	n.history.mu.Unlock()
	n.lastDurableAt.Store(time.Now().UnixMilli())
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
// pool. It returns the sealed block. With PipelineDepth <= 1 the block is
// durable (per the WAL sync policy) before MineOne returns; with a deeper
// window the persist and verdict stages complete asynchronously, and a
// later persist failure rolls the block back and requeues its calls — see
// the package comment.
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
		n.prod.Release()
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

// enter opens the lifecycle for one block: it takes a window slot
// (blocking while PipelineDepth blocks await their fsync — the
// back-pressure rule), then execMu, and writes the cadence checkpoint if
// one is due. On error neither the slot nor execMu is held.
func (n *Node) enter() error {
	if err := n.prod.Admit(); err != nil {
		return fmt.Errorf("node: %w", err)
	}
	n.execMu.Lock()
	// A failure latched while we waited: nothing may seal on a suffix the
	// abort pass is (or will be) rolling back.
	err := n.prod.Err()
	if err == nil {
		// Checkpoints need a durable boundary, so when one is due on a
		// pipelining node the window drains first — a periodic group
		// boundary. A latched writer surfaces here; the abort pass runs
		// once we back off.
		err = n.maybeSnapshot()
	}
	if err != nil {
		n.execMu.Unlock()
		n.prod.Release()
		return fmt.Errorf("node: %w", err)
	}
	return nil
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
	res, err := miner.Mine(n.eng, n.runner, n.world, parent, sel.Calls,
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

// precheck yields the outputs of validation's stateless phase for a
// block: validator.Precheck itself where the phase runs inline (a pushed
// block, WAL recovery), or the result the staged pipeline computed ahead
// of time.
type precheck func(chain.Block) (validator.Prechecked, error)

// validateEntry is the execute stage for a block somebody else sealed: a
// peer's (imported) or this node's previous life's (recovered) — the
// stateless phase's verdict, then the stateful one, fork-join replay
// against the world. On rejection the world is restored. Caller holds
// execMu.
func (n *Node) validateEntry(b chain.Block, pc precheck, from origin) (*inflightEntry, error) {
	pre, err := pc(b)
	if err != nil {
		return nil, err
	}
	snap := n.world.Snapshot()
	if _, err := validator.ValidatePrechecked(n.runner, n.world, b, pre, validator.Config{Workers: n.workers}); err != nil {
		n.world.Restore(snap)
		return nil, err
	}
	return &inflightEntry{block: b, origin: from, snap: snap, txIDs: pre.TxIDs}, nil
}

// seal advances the sealed head over an executed block — sealed, not yet
// durable — and registers the entry in the window before execMu drops, so
// rollback (which runs under execMu) always sees every sealed block.
// Sealed blocks count toward the snapshot cadence here. execMu guarantees
// the seal raced nobody, so the append cannot fail short of a bug or a
// mislinked WAL record; if it does the block is undone on the spot.
// Caller holds execMu and a window slot.
func (n *Node) seal(e *inflightEntry) error {
	// The world sits at the block's post-state: this handle is what the
	// verdict will publish to readers.
	e.post = n.world.Snapshot()
	n.mu.Lock()
	err := n.chain.Append(e.block)
	if err == nil {
		n.inflight = append(n.inflight, e)
		n.tally[e.origin]++
		n.totalRetries += e.retries
	}
	n.mu.Unlock()
	if err != nil {
		n.world.Restore(e.snap)
		n.pool.RequeueBatch(e.sel)
		return fmt.Errorf("node: append: %w", err)
	}
	n.sinceSnap++
	return nil
}

// persist hands a sealed block to the WAL and sees to its verdict.
// Without a group-commit writer the append is inline and the verdict
// follows before persist returns; a failure rolls the block back without
// latching, so the next attempt is tried, not refused. With a writer the
// fsync is the writer goroutine's: a mined block returns at once and its
// verdict arrives asynchronously, an imported one waits for its own
// (behind any mined blocks in the same queue). Caller holds execMu.
func (n *Node) persist(e *inflightEntry) error {
	if n.writer == nil {
		if n.log != nil {
			// Persistence I/O runs under execMu alone: fsyncs must not
			// stall status queries on n.mu.
			if err := n.log.Append(e.block); err != nil {
				n.rollback()
				n.prod.Release()
				return fmt.Errorf("node: persist: %w", err)
			}
		}
		n.verdict(e, nil)
		// Window empty, world at the durable head: a due checkpoint
		// writes now. (Nothing to drain, so nothing to fail.)
		_ = n.maybeSnapshot()
		return nil
	}
	done := make(chan error, 1)
	// Enqueue never blocks on I/O.
	n.writer.Enqueue(e.block, func(err error) {
		n.verdict(e, err)
		done <- err
	})
	if e.origin == mined {
		return nil
	}
	if err := <-done; err != nil {
		// The failed verdict latched the node and scheduled an abort
		// pass, which waits for the execMu we hold; roll back here so the
		// caller never sees an error over an un-rolled-back world.
		n.rollback()
		return fmt.Errorf("node: persist: %w", err)
	}
	return nil
}

// verdict is the persist stage's answer for one entry. On success the
// entry leaves the window, the durable height advances, the block's
// receipts become queryable and its event goes out — now, never at seal
// time: a crash between seal and this point voids the block, and served
// receipts must not outlive their block — and then a mined block goes to
// the peer publish hook, so a notified peer can immediately query its
// receipts here. On failure the producer latches and schedules the abort
// pass. Verdicts arrive serially in height order (inline under execMu, or
// from the one writer goroutine), which is what makes the event and
// publish ordering guarantees hold.
func (n *Node) verdict(e *inflightEntry, err error) {
	if err == nil {
		n.mu.Lock()
		if len(n.inflight) > 0 && n.inflight[0] == e {
			// Clear the slot: the backing array outlives the pop, and the
			// entry keeps the pre-block version of the world reachable.
			n.inflight[0] = nil
			n.inflight = n.inflight[1:]
		}
		publish := n.publish
		n.mu.Unlock()
		n.markDurable(e.block.Header.Number, e.post)
		n.recordDurable(e)
		if e.origin == mined && publish != nil {
			publish(e.block)
		}
	}
	n.prod.Complete(err)
}

// rollback voids every sealed-not-durable block: the world goes back to
// the oldest one's pre-state, the chain rewinds under it, the tallies
// forget the blocks, and every mined batch returns to the pool at its
// original arrival position — which is why RequeueBatch merges by arrival
// order rather than trusting rollback order. Caller holds execMu, so it
// cannot race a seal; with nothing in the window it does nothing.
func (n *Node) rollback() {
	n.mu.Lock()
	entries := n.inflight
	n.inflight = nil
	if len(entries) > 0 {
		// Rewind cannot fail: sealed blocks sit strictly above the base.
		_ = n.chain.RewindTo(entries[0].block.Header.Number - 1)
	}
	for _, e := range entries {
		// The blocks' execution stats leave the tallies too, or
		// retries-per-mined-block reads would count phantom blocks.
		n.tally[e.origin]--
		n.totalRetries -= e.retries
	}
	n.mu.Unlock()
	if len(entries) == 0 {
		return
	}
	n.world.Restore(entries[0].snap)
	for _, e := range entries {
		n.pool.RequeueBatch(e.sel)
	}
	if n.sinceSnap -= len(entries); n.sinceSnap < 0 {
		n.sinceSnap = 0
	}
}

// abortPass is the producer's abort pass after a failed asynchronous
// verdict. A block sealed while an earlier pass ran is caught by the
// follow-up pass its own failed verdict schedules.
func (n *Node) abortPass(error) {
	n.execMu.Lock()
	defer n.execMu.Unlock()
	n.rollback()
}

// reportFeedback feeds the engine's conflict observations back to the
// pool: retried transactions always (the spread policy's signal), and the
// full happens-before pair structure when the lock-hint policy is active.
func (n *Node) reportFeedback(calls []contract.Call, res miner.Result) {
	var conflicted []contract.Call
	for _, id := range res.Stats.RetriedTxs {
		conflicted = append(conflicted, calls[id])
	}
	n.pool.ReportConflicts(conflicted)
	if n.policy == txpool.PolicyLockHint && len(res.Stats.ConflictPairs) > 0 {
		pairs := make([][2]contract.Call, 0, len(res.Stats.ConflictPairs))
		for _, pr := range res.Stats.ConflictPairs {
			pairs = append(pairs, [2]contract.Call{calls[pr[0]], calls[pr[1]]})
		}
		n.pool.ReportConflictPairs(pairs)
	}
}

// drain waits out the group-commit writer's queue, so every submitted
// block has had its verdict. Caller holds execMu, so nothing new seals
// meanwhile (verdicts take only n.mu).
func (n *Node) drain() error {
	if n.writer == nil {
		return nil
	}
	if err := n.writer.Flush(); err != nil {
		return fmt.Errorf("pipeline flush: %w", err)
	}
	return nil
}

// maybeSnapshot writes the cadence checkpoint when one is due. A
// checkpoint describes a durable boundary, so it is written only under
// execMu (which the caller holds; it also guards n.sinceSnap and keeps
// the chain pointer stable) with the window drained: sealed == durable
// and the world sits exactly at the chain head. n.mu is deliberately NOT
// held across the state encoding and snapshot fsyncs. Only a failed drain
// is an error; a failed snapshot is dropped rather than failing a block:
// the WAL already holds the blocks, so durability is intact and only
// recovery speed suffers; the next cadence tick tries again — and the
// failure shows in Status.SnapshotErrors.
func (n *Node) maybeSnapshot() error {
	if n.log == nil || n.snapEvery <= 0 || n.sinceSnap < n.snapEvery {
		return nil
	}
	if err := n.drain(); err != nil {
		return err
	}
	n.sinceSnap = 0
	state, err := n.world.EncodeState()
	if err != nil {
		n.snapshotErrs.Add(1)
		return nil
	}
	head := n.chain.Head().Header
	if err := n.log.WriteSnapshot(persist.Snapshot{Header: head, State: state}); err != nil {
		n.snapshotErrs.Add(1)
		return nil
	}
	n.lastSnapHeight.Store(head.Number)
	return nil
}

// Errors reported by block import.
var (
	// ErrAlreadyKnown reports an import of a block the chain already
	// holds. Imports are idempotent: callers (gossip, catch-up sync) may
	// treat it as success.
	ErrAlreadyKnown = errors.New("node: block already known")
	// ErrFork reports an import that conflicts with a different block
	// already committed at the same height — chain divergence.
	ErrFork = errors.New("node: fork: conflicting block for committed height")
)

// AcceptBlock validates a foreign block against the node's state and
// takes it through the same seal → persist → verdict lifecycle as a mined
// block, returning once it is durable — the validator-node path. On
// rejection the world state is restored. Like MineOne, it holds execMu
// (not n.mu) across the validation execution.
//
// Import is idempotent: a block already on the chain returns
// ErrAlreadyKnown without re-executing; a different block at an occupied
// height returns ErrFork. Both checks run before validation, so repeated
// gossip of old blocks costs two hashes, not a replay.
func (n *Node) AcceptBlock(b chain.Block) error {
	return n.acceptBlock(b, validator.Precheck)
}

// acceptBlock is the one import core, behind AcceptBlock (a pushed block,
// which runs the stateless phase here) and ImportPrechecked (a pulled one,
// whose stateless phase already ran on the staged pipeline). pc is called
// only once the block's linkage holds, so both callers fail at the same
// point with the same bytes.
func (n *Node) acceptBlock(b chain.Block, pc precheck) error {
	if err := n.enter(); err != nil {
		return err
	}
	defer n.execMu.Unlock()
	e, err := n.importEntry(b, pc)
	if err == nil {
		err = n.seal(e)
	}
	if err != nil {
		n.prod.Release()
		return err
	}
	return n.persist(e)
}

// importEntry checks a foreign block's linkage against the sealed head
// and validates it. Caller holds execMu.
func (n *Node) importEntry(b chain.Block, pc precheck) (*inflightEntry, error) {
	n.mu.Lock()
	head := n.chain.Head().Header
	n.mu.Unlock()
	if b.Header.Number <= head.Number {
		known, held := n.chain.HashAt(b.Header.Number)
		if !held {
			// A pruned (snapshot fast-synced) chain no longer holds this
			// height and cannot distinguish a duplicate from a fork; old
			// gossip on a converged chain is treated as already known.
			return nil, ErrAlreadyKnown
		}
		if known == b.Header.Hash() {
			return nil, ErrAlreadyKnown
		}
		return nil, fmt.Errorf("%w: height %d has %s, got %s",
			ErrFork, b.Header.Number, known.Short(), b.Header.Hash().Short())
	}
	if b.Header.Number != head.Number+1 {
		return nil, fmt.Errorf("node: accept: %w: got %d, want %d",
			chain.ErrBadNumber, b.Header.Number, head.Number+1)
	}
	if b.Header.ParentHash != head.Hash() {
		return nil, fmt.Errorf("node: accept: %w: got %s, want %s",
			chain.ErrBadParent, b.Header.ParentHash.Short(), head.Hash().Short())
	}
	e, err := n.validateEntry(b, pc, imported)
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	return e, nil
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

// ErrStaleSnapshot reports an InstallSnapshot at or below the current
// head: installing it would rewind a chain that is already ahead.
var ErrStaleSnapshot = errors.New("node: snapshot not ahead of local head")

// InstallSnapshot adopts a state checkpoint from a peer — the receiving
// half of snapshot fast-sync. The encoded state must hash to the state
// root the checkpoint header claims (self-consistency); trust in the
// header itself is the fast-sync trade-off, exactly like trusting a
// configured genesis. The chain restarts pruned at the checkpoint
// height, the mempool is untouched, and a durable node drops its now
// disconnected history and re-roots its log at the checkpoint. The
// window drains first: swapping world and chain under a sealed-not-
// durable block would leave its verdict, or its rollback, nothing
// consistent to land on.
func (n *Node) InstallSnapshot(s persist.Snapshot) error {
	n.execMu.Lock()
	defer n.execMu.Unlock()
	if err := n.drain(); err != nil {
		return fmt.Errorf("node: install snapshot: %w", err)
	}
	// The in-memory swap happens under n.mu; the checkpoint's durability
	// write runs after it, outside the bookkeeping lock (execMu, still
	// held, is what keeps the world at a block boundary throughout).
	if err := n.installSnapshotState(s); err != nil {
		return err
	}
	if n.log != nil {
		if err := n.log.InstallSnapshot(s); err != nil {
			// State is installed and consistent; only durability of the
			// checkpoint failed. Surface it — the caller may retry sync
			// into a healthier directory.
			return fmt.Errorf("node: install snapshot: %w", err)
		}
	}
	return nil
}

// installSnapshotState swaps the node's in-memory world and chain to the
// checkpoint, leaving both untouched on any error. Caller holds execMu.
func (n *Node) installSnapshotState(s persist.Snapshot) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.inflight) > 0 {
		return fmt.Errorf("node: install snapshot: %d sealed blocks await their durability verdict", len(n.inflight))
	}
	if s.Height() <= n.chain.Head().Header.Number {
		return fmt.Errorf("%w: snapshot %d, head %d", ErrStaleSnapshot, s.Height(), n.chain.Head().Header.Number)
	}
	old := n.world.Snapshot()
	if err := n.restoreCheckpoint(s); err != nil {
		n.world.Restore(old)
		return fmt.Errorf("node: install %w", err) // err opens "snapshot N: …"
	}
	n.chain = chain.NewAt(s.Header)
	n.sinceSnap = 0
	n.lastSnapHeight.Store(s.Height())
	// The installed checkpoint is this chain's new root: everything the
	// node now holds is at least as durable as the snapshot itself.
	n.markDurable(s.Height(), n.world.Snapshot())
	return nil
}

// SnapshotNow returns a state checkpoint: a durable node serves its
// newest persisted snapshot (cheap — no state encoding, no lock held
// against mining; the fast-syncing peer replays the tail through full
// validation anyway), a non-durable node generates one at the current
// head on the spot (holding execMu, so the world is at a block
// boundary). This is what GET /snapshot serves, which is why any node
// can seed a fast-syncing late joiner.
func (n *Node) SnapshotNow() (persist.Snapshot, error) {
	if n.log != nil {
		if s := n.log.LatestSnapshot(); s != nil {
			return *s, nil
		}
	}
	n.execMu.Lock()
	defer n.execMu.Unlock()
	// A generated checkpoint must describe a durable boundary, never a
	// sealed-not-durable head a crash could void — the same rule the
	// /head and /blocks gates enforce — so the window drains first.
	if err := n.drain(); err != nil {
		return persist.Snapshot{}, fmt.Errorf("node: snapshot: %w", err)
	}
	head := n.chain.Head().Header
	state, err := n.world.EncodeState()
	if err != nil {
		return persist.Snapshot{}, fmt.Errorf("node: snapshot: %w", err)
	}
	return persist.Snapshot{Header: head, State: state}, nil
}

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
	// its configured size (0 on a synchronous node, whose window is 1),
	// and how many blocks currently sit between their seal and their
	// durability verdict.
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
		InFlight:        len(n.inflight),
		ChainBase:       n.chain.Base(),
	}
	if d := n.prod.Depth(); d > 1 {
		st.PipelineDepth = d
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
