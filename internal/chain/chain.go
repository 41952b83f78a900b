// Package chain implements the blockchain substrate: hash-linked blocks
// carrying transactions, receipts, a state commitment — and, following the
// paper's proposal, the scheduling metadata (serial order S, happens-before
// edges H, and per-transaction lock profiles) that lets validators replay
// the miner's parallel schedule deterministically (§4: "A miner includes
// these profiles in the blockchain along with usual information").
package chain

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"contractstm/internal/codec"
	"contractstm/internal/contract"
	"contractstm/internal/crypto"
	"contractstm/internal/sched"
	"contractstm/internal/stm"
	"contractstm/internal/types"
)

// Errors reported by chain operations.
var (
	// ErrBadParent reports a block whose parent hash does not match the
	// chain tip.
	ErrBadParent = errors.New("chain: parent hash mismatch")
	// ErrBadNumber reports a block with a non-consecutive height.
	ErrBadNumber = errors.New("chain: block number mismatch")
	// ErrBadCommitment reports header commitments that do not match the
	// block body (tx root, receipt root or schedule hash).
	ErrBadCommitment = errors.New("chain: header commitment mismatch")
)

// Header is a block's consensus-critical summary.
type Header struct {
	// Number is the block height (genesis is 0).
	Number uint64 `json:"number"`
	// ParentHash links to the previous block.
	ParentHash types.Hash `json:"parentHash"`
	// TxRoot commits to the transaction list.
	TxRoot types.Hash `json:"txRoot"`
	// ReceiptRoot commits to the execution receipts.
	ReceiptRoot types.Hash `json:"receiptRoot"`
	// StateRoot commits to the post-state of executing the block.
	StateRoot types.Hash `json:"stateRoot"`
	// ScheduleHash commits to the published fork-join schedule (S, H,
	// profiles). This is the paper's extension to the block format.
	ScheduleHash types.Hash `json:"scheduleHash"`
}

// Hash returns the block hash: the digest of the canonical header encoding.
func (h Header) Hash() types.Hash {
	return types.HashConcat(
		types.Uint64Bytes(h.Number),
		h.ParentHash[:],
		h.TxRoot[:],
		h.ReceiptRoot[:],
		h.StateRoot[:],
		h.ScheduleHash[:],
	)
}

// Block is a full block: header, body, and the paper's schedule metadata.
type Block struct {
	Header Header `json:"header"`
	// Calls is the transaction list in original (submission) order; TxID i
	// refers to Calls[i].
	Calls []contract.Call `json:"calls"`
	// Receipts is the per-transaction execution digest, indexed by TxID.
	Receipts []contract.Receipt `json:"receipts"`
	// Schedule is the serial order S and happens-before edges H.
	Schedule sched.Schedule `json:"schedule"`
	// Profiles is the per-transaction lock profile registered at commit,
	// indexed by TxID.
	Profiles []stm.Profile `json:"profiles"`
}

// TxLeavesOf hashes each call's canonical encoding: the leaves the tx root
// commits to, and the calls' transaction IDs (wire.TxIDOf is one leaf).
// The encodings share one buffer, so the leaves are all it allocates.
func TxLeavesOf(calls []contract.Call) []types.Hash {
	leaves := make([]types.Hash, len(calls))
	txLeaves(leaves, calls)
	return leaves
}

// txLeaves hashes calls into leaves, one for one.
func txLeaves(leaves []types.Hash, calls []contract.Call) {
	var stack [256]byte
	buf := stack[:0]
	for i, c := range calls {
		buf = c.AppendForHash(buf[:0])
		leaves[i] = types.HashBytes(buf)
	}
}

// receiptLeaves hashes receipts into leaves, one for one. Each receipt
// encodes into a buffer on the stack.
func receiptLeaves(leaves []types.Hash, receipts []contract.Receipt) {
	for i, r := range receipts {
		var buf [16]byte // a receipt encodes to 13 bytes
		leaves[i] = types.HashBytes(r.AppendForHash(buf[:0]))
	}
}

// ReceiptRootOf commits to a receipt list: the receipt root a block's
// seal computes, hashed on the caller. Its one level is all it allocates.
func ReceiptRootOf(receipts []contract.Receipt) types.Hash {
	level := make([]types.Hash, len(receipts))
	receiptLeaves(level, receipts)
	for j := 0; j < crypto.Chunks(len(level)); j++ {
		crypto.HashChunk(level, j)
	}
	return crypto.RootOfChunks(level)
}

// ScheduleHashOf commits to the published schedule: S, H and the profiles,
// all canonically encoded. The preimage is built in a pooled buffer.
func ScheduleHashOf(s sched.Schedule, profiles []stm.Profile) types.Hash {
	// Sized first: grown by append it cost twice its size in reallocations.
	size := 12 + 4*len(s.Order) + 8*len(s.Edges) + 8*len(profiles)
	for _, p := range profiles {
		for _, e := range p.Entries {
			size += 17 + len(e.Lock.Scope) + len(e.Lock.Key)
		}
	}
	pooled := codec.GetBuffer()
	defer pooled.Release()
	buf := slices.Grow(pooled.B, size)
	buf = append(buf, types.Uint32Bytes(uint32(len(s.Order)))...)
	for _, tx := range s.Order {
		buf = append(buf, types.Uint32Bytes(uint32(tx))...)
	}
	buf = append(buf, types.Uint32Bytes(uint32(len(s.Edges)))...)
	for _, e := range s.Edges {
		buf = append(buf, types.Uint32Bytes(uint32(e.From))...)
		buf = append(buf, types.Uint32Bytes(uint32(e.To))...)
	}
	buf = append(buf, types.Uint32Bytes(uint32(len(profiles)))...)
	for _, p := range profiles {
		buf = append(buf, types.Uint32Bytes(uint32(p.Tx))...)
		buf = append(buf, types.Uint32Bytes(uint32(len(p.Entries)))...)
		for _, e := range p.Entries {
			buf = append(buf, types.Uint32Bytes(uint32(len(e.Lock.Scope)))...)
			buf = append(buf, e.Lock.Scope...)
			buf = append(buf, types.Uint32Bytes(uint32(len(e.Lock.Key)))...)
			buf = append(buf, e.Lock.Key...)
			buf = append(buf, byte(e.Mode))
			buf = append(buf, types.Uint64Bytes(e.Counter)...)
		}
	}
	pooled.B = buf
	return types.HashBytes(buf)
}

// commitments are a block body's three hashed commitments and the tx
// leaves its tx root was built from.
type commitments struct {
	txIDs                             []types.Hash
	txRoot, receiptRoot, scheduleHash types.Hash
}

// hashCommitments hashes a block body's commitments in one crypto.Fan.
// txIDs are the calls' tx leaves, or nil to have them hashed here. The
// tasks are the schedule hash, then each chunk of the tx tree (its calls'
// leaves, when hashed here, and the chunk's subtree), then each chunk of
// the receipt tree; the caller reduces each tree's chunk roots after the
// join. A body with at most one chunk per tree is hashed on the caller.
func hashCommitments(calls []contract.Call, txIDs []types.Hash, receipts []contract.Receipt,
	s sched.Schedule, profiles []stm.Profile) commitments {
	w := commitWork{
		calls: calls, txIDs: txIDs, hashIDs: txIDs == nil, receipts: receipts,
		schedule: s, profiles: profiles,
		level: make([]types.Hash, len(calls)+len(receipts)+1),
	}
	if w.hashIDs {
		w.txIDs = make([]types.Hash, len(calls))
	}
	txChunks, receiptChunks := crypto.Chunks(len(calls)), crypto.Chunks(len(receipts))
	n, helpers := 1+txChunks+receiptChunks, 0
	if txChunks > 1 || receiptChunks > 1 {
		helpers = crypto.Helpers(n)
	}
	crypto.Fan(w, n, helpers)
	return commitments{
		txIDs:        w.txIDs,
		txRoot:       crypto.RootOfChunks(w.txLevel()),
		receiptRoot:  crypto.RootOfChunks(w.receiptLevel()),
		scheduleHash: w.level[len(w.level)-1],
	}
}

// commitWork is hashCommitments' tasks. Each task writes only its own
// slots of txIDs and level, so the commitments are the same whichever
// goroutine runs which task.
type commitWork struct {
	calls    []contract.Call
	txIDs    []types.Hash
	hashIDs  bool // txIDs are hashed from calls, not given
	receipts []contract.Receipt
	schedule sched.Schedule
	profiles []stm.Profile
	// level is the scratch the trees are reduced in: the tx tree's
	// len(calls) slots, then the receipt tree's, then the schedule hash.
	level []types.Hash
}

func (w commitWork) txLevel() []types.Hash { return w.level[:len(w.calls)] }

func (w commitWork) receiptLevel() []types.Hash {
	return w.level[len(w.calls) : len(w.calls)+len(w.receipts)]
}

func (w commitWork) Task(_, i int) {
	txChunks := crypto.Chunks(len(w.calls))
	switch {
	case i == 0:
		w.level[len(w.level)-1] = ScheduleHashOf(w.schedule, w.profiles)
	case i <= txChunks:
		j := i - 1
		lo, hi := j*crypto.Chunk, min((j+1)*crypto.Chunk, len(w.calls))
		if w.hashIDs {
			txLeaves(w.txIDs[lo:hi], w.calls[lo:hi])
		}
		copy(w.level[lo:hi], w.txIDs[lo:hi])
		crypto.HashChunk(w.txLevel(), j)
	default:
		j := i - 1 - txChunks
		level := w.receiptLevel()
		lo, hi := j*crypto.Chunk, min((j+1)*crypto.Chunk, len(level))
		receiptLeaves(level[lo:hi], w.receipts[lo:hi])
		crypto.HashChunk(level, j)
	}
}

var commitmentPasses atomic.Int64

// CommitmentPasses counts Seal, SealHashed and VerifyCommitments calls.
// A node owes each block exactly one: the lifecycle tests difference it
// on every path.
func CommitmentPasses() int64 { return commitmentPasses.Load() }

// Seal fills in the header commitments from the block body and returns the
// completed block and its tx leaves. parent is the previous block's header.
func Seal(parent Header, calls []contract.Call, receipts []contract.Receipt,
	s sched.Schedule, profiles []stm.Profile, stateRoot types.Hash) (Block, []types.Hash) {
	return seal(parent, calls, nil, receipts, s, profiles, stateRoot)
}

// SealHashed is Seal for a caller that already holds the calls' tx leaves
// (TxLeavesOf(calls), each call's transaction ID): the tx root is built
// from txIDs as given, so they must be exactly those leaves.
func SealHashed(parent Header, calls []contract.Call, txIDs []types.Hash, receipts []contract.Receipt,
	s sched.Schedule, profiles []stm.Profile, stateRoot types.Hash) Block {
	b, _ := seal(parent, calls, txIDs, receipts, s, profiles, stateRoot)
	return b
}

// seal is Seal and SealHashed: txIDs nil are hashed from calls.
func seal(parent Header, calls []contract.Call, txIDs []types.Hash, receipts []contract.Receipt,
	s sched.Schedule, profiles []stm.Profile, stateRoot types.Hash) (Block, []types.Hash) {
	commitmentPasses.Add(1)
	c := hashCommitments(calls, txIDs, receipts, s, profiles)
	return Block{
		Header: Header{
			Number:       parent.Number + 1,
			ParentHash:   parent.Hash(),
			TxRoot:       c.txRoot,
			ReceiptRoot:  c.receiptRoot,
			StateRoot:    stateRoot,
			ScheduleHash: c.scheduleHash,
		},
		Calls:    calls,
		Receipts: receipts,
		Schedule: s,
		Profiles: profiles,
	}, c.txIDs
}

// VerifyCommitments checks that a block's header commitments match its
// body and returns the tx leaves it hashed on the way. It does not
// re-execute anything; that is the validator's job. All three
// commitments are hashed before any is compared, and the first mismatch
// in the order tx root, receipt root, schedule hash, receipt count,
// profile count is the error.
func VerifyCommitments(b Block) ([]types.Hash, error) {
	commitmentPasses.Add(1)
	c := hashCommitments(b.Calls, nil, b.Receipts, b.Schedule, b.Profiles)
	if c.txRoot != b.Header.TxRoot {
		return nil, fmt.Errorf("%w: tx root %s != %s", ErrBadCommitment, c.txRoot.Short(), b.Header.TxRoot.Short())
	}
	if c.receiptRoot != b.Header.ReceiptRoot {
		return nil, fmt.Errorf("%w: receipt root %s != %s", ErrBadCommitment, c.receiptRoot.Short(), b.Header.ReceiptRoot.Short())
	}
	if c.scheduleHash != b.Header.ScheduleHash {
		return nil, fmt.Errorf("%w: schedule hash %s != %s", ErrBadCommitment, c.scheduleHash.Short(), b.Header.ScheduleHash.Short())
	}
	if len(b.Receipts) != len(b.Calls) {
		return nil, fmt.Errorf("%w: %d receipts for %d calls", ErrBadCommitment, len(b.Receipts), len(b.Calls))
	}
	if len(b.Profiles) != len(b.Calls) {
		return nil, fmt.Errorf("%w: %d profiles for %d calls", ErrBadCommitment, len(b.Profiles), len(b.Calls))
	}
	return c.txIDs, nil
}

// Chain is an append-only hash-linked sequence of blocks. A chain is
// normally rooted at genesis, but it can also be rooted at a trusted
// checkpoint header (NewAt) — a state snapshot's header — in which case
// blocks below the checkpoint are pruned: height queries under the base
// answer "not held" rather than failing.
type Chain struct {
	mu sync.Mutex
	// base is the height of blocks[0]: 0 for a genesis-rooted chain, the
	// snapshot height for a checkpoint-rooted one.
	base   uint64
	blocks []Block
}

// GenesisHeader is the fixed header blocks build on; Number 0 with a
// distinguished state root supplied by the caller.
func GenesisHeader(stateRoot types.Hash) Header {
	return Header{Number: 0, StateRoot: stateRoot}
}

// New creates a chain whose genesis commits to the given initial state.
func New(stateRoot types.Hash) *Chain {
	return NewAt(GenesisHeader(stateRoot))
}

// NewAt creates a chain rooted at a trusted checkpoint header: the
// snapshot fast-sync and snapshot recovery paths resume a chain at a
// state snapshot's height without holding the blocks underneath it. The
// checkpoint block is header-only, exactly like genesis; for h.Number 0
// this is New.
func NewAt(h Header) *Chain {
	return &Chain{base: h.Number, blocks: []Block{{Header: h}}}
}

// Base returns the height of the oldest block the chain holds: 0 for a
// genesis-rooted chain, the checkpoint height for a pruned one.
func (c *Chain) Base() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.base
}

// Head returns the latest block.
func (c *Chain) Head() Block {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.blocks[len(c.blocks)-1]
}

// Length returns the number of blocks held, including the root
// (genesis or checkpoint) block. For a genesis-rooted chain this is
// head height + 1.
func (c *Chain) Length() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.blocks)
}

// BlockAt returns the block at the given height. Heights below the base
// of a pruned chain answer "not held", like heights above the head.
func (c *Chain) BlockAt(n uint64) (Block, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < c.base || n-c.base >= uint64(len(c.blocks)) {
		return Block{}, false
	}
	return c.blocks[n-c.base], true
}

// HashAt returns the hash of the block at the given height, if any. It is
// the cheap membership probe import paths use for duplicate and fork
// detection before paying for re-execution.
func (c *Chain) HashAt(n uint64) (types.Hash, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < c.base || n-c.base >= uint64(len(c.blocks)) {
		return types.Hash{}, false
	}
	return c.blocks[n-c.base].Header.Hash(), true
}

// ErrRewindPastBase reports a RewindTo below the oldest held block.
var ErrRewindPastBase = errors.New("chain: rewind below chain base")

// RewindTo drops every block above height, making it the new head. It is
// the pipelined miner's abort primitive: blocks sealed but never made
// durable are un-appended so the chain tracks what the WAL can actually
// recover. Rewinding below the base (the root the chain cannot reopen) is
// refused; rewinding at or above the head is a no-op.
func (c *Chain) RewindTo(height uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if height < c.base {
		return fmt.Errorf("%w: rewind to %d, base %d", ErrRewindPastBase, height, c.base)
	}
	if keep := height - c.base + 1; keep < uint64(len(c.blocks)) {
		c.blocks = c.blocks[:keep]
	}
	return nil
}

// Append verifies linkage, then appends the block. Its commitments are
// Seal's, made in this process, or already checked by validator.Validate
// or validator.Precheck.
func (c *Chain) Append(b Block) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	head := c.blocks[len(c.blocks)-1]
	if b.Header.Number != head.Header.Number+1 {
		return fmt.Errorf("%w: got %d, want %d", ErrBadNumber, b.Header.Number, head.Header.Number+1)
	}
	if b.Header.ParentHash != head.Header.Hash() {
		return fmt.Errorf("%w: got %s, want %s", ErrBadParent, b.Header.ParentHash.Short(), head.Header.Hash().Short())
	}
	c.blocks = append(c.blocks, b)
	return nil
}
