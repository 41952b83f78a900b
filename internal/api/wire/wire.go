// Package wire is the typed schema of the node's versioned client API
// (/v1): request and response DTOs for transaction submission, receipts,
// blocks, chain head, node status, state reads and event streams, plus
// the stable machine-readable error codes every /v1 handler speaks.
//
// The package is deliberately free of server and client logic — it is
// the contract between internal/api (the server), internal/api/client
// (the Go SDK) and any foreign-language client that speaks the JSON.
// Hashes and addresses travel as 0x-prefixed hex strings; gas and
// amounts as JSON numbers.
//
// Receipts and block events also have a compact, unrendered form: the
// node keeps one BlockRecord per durable block, and ReceiptRef and
// AppendEvent write from it exactly the JSON encoding/json writes for
// the TxReceipt and Event DTOs, when a client reads.
//
// Transaction identity is content-derived: TxIDOf hashes the call's
// canonical encoding (the same bytes the block's transaction Merkle root
// commits to), so every node — miner or validator — derives the same ID
// for the same call without coordination, and a client can recompute the
// ID of anything it submitted. Two byte-identical calls share an ID; the
// receipt then describes the most recent execution.
package wire

import (
	"fmt"
	"strconv"
	"strings"

	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/gas"
	"contractstm/internal/types"
)

// Machine-readable error codes. Codes are append-only across releases:
// clients dispatch on Code, never on the human-readable message.
const (
	// CodeBadRequest is a malformed request body or parameter.
	CodeBadRequest = "bad_request"
	// CodeBadAddress is an unparseable account or contract address.
	CodeBadAddress = "bad_address"
	// CodeBadArg is an argument with an unknown type tag or unparseable
	// value.
	CodeBadArg = "bad_arg"
	// CodeMissingFunction is a tx submit without a function name.
	CodeMissingFunction = "missing_function"
	// CodeUnsupportedMedia is a request body with a content type the
	// endpoint does not accept.
	CodeUnsupportedMedia = "unsupported_media_type"
	// CodeBodyTooLarge is a request body over the server's byte limit.
	CodeBodyTooLarge = "body_too_large"
	// CodeGasLimitTooHigh is a tx submit whose gas limit exceeds the
	// node's configured maximum.
	CodeGasLimitTooHigh = "gas_limit_too_high"
	// CodeTxNotFound is a receipt query for an ID the node does not know
	// (never submitted here, evicted, or pruned under a snapshot).
	CodeTxNotFound = "tx_not_found"
	// CodeBlockNotFound is a block query above the durable head or below
	// a pruned chain's base.
	CodeBlockNotFound = "block_not_found"
	// CodeMineFailed is a mining request the node could not satisfy
	// (empty pool, execution failure, pipeline abort).
	CodeMineFailed = "mine_failed"
	// CodeBlockRejected is an uploaded block the validator refused.
	CodeBlockRejected = "block_rejected"
	// CodeSnapshotUnavailable is a snapshot request the node cannot
	// serve.
	CodeSnapshotUnavailable = "snapshot_unavailable"
	// CodeInternal is an unexpected server-side failure.
	CodeInternal = "internal"

	// Read-replica codes (bounded-staleness reads). CodeReplicaBehind
	// answers 412 Precondition Failed: the serving node's durable height
	// is below the client's min_height (or a requested historical height
	// is above it). The answer carries X-Chain-Height plus a Retry-After
	// hint — the read is well-formed, the replica just has not caught up.
	CodeReplicaBehind = "replica_behind"
	// CodeHeightUnavailable answers 404: the requested historical height
	// sits below what the node's history window still holds (or the
	// node retains no history at all).
	CodeHeightUnavailable = "height_unavailable"
	// CodeReadReplica answers 403 to POST /v1/tx and POST /v1/mine on a
	// node that follows an upstream: one locally sealed block would fork
	// it from the chain it follows. Writes belong to the upstream.
	CodeReadReplica = "read_replica"
)

// Response headers carrying the bounded-staleness read contract: the
// durable height the node serves reads at, and how stale that height is
// in milliseconds. Stamped on every response so clients can track replica
// freshness without extra round-trips.
const (
	HeaderChainHeight    = "X-Chain-Height"
	HeaderChainStaleness = "X-Chain-Staleness"

	// Admission-control codes (POST /v1/tx). CodeTxDuplicate answers 409
	// — the transaction is already queued or executed here, and the
	// caller's existing receipt stands. The remaining four answer 429
	// with a Retry-After header; each names the admission stage that shed
	// the submission, and the code string equals the "verdict" value an
	// accepted submit reports.

	// CodeTxDuplicate is a submit whose content-derived ID the node
	// already tracks (queued or executed); the existing receipt stands.
	CodeTxDuplicate = "tx_duplicate"
	// CodeRateLimited is a submit shed by the sender's token-bucket rate
	// limit.
	CodeRateLimited = "rate_limited"
	// CodeSenderLimit is a submit shed by the per-sender slot cap (and
	// not outranking any of the sender's queued transactions).
	CodeSenderLimit = "sender_limit"
	// CodeShardSaturated is a submit shed because the sender's mempool
	// shard is at its entry cap.
	CodeShardSaturated = "shard_saturated"
	// CodePoolOverloaded is a submit shed by the mempool byte budget
	// with nothing cheaper to evict.
	CodePoolOverloaded = "pool_overloaded"
)

// Error is the JSON error envelope every /v1 handler returns on non-2xx.
// Message is for humans and unstable; Code is the machine contract. The
// legacy "error" JSON key is kept so pre-v1 clients keep parsing.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"error"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("api: %s: %s", e.Code, e.Message)
}

// Arg is the JSON encoding of one contract call argument: a type tag and
// the value rendered as a string.
type Arg struct {
	// Type is one of "uint64", "int", "bool", "string", "address",
	// "hash", "amount".
	Type  string `json:"type"`
	Value string `json:"value"`
}

// DecodeArg converts a wire argument to its in-memory value.
func DecodeArg(a Arg) (any, error) {
	switch a.Type {
	case "uint64":
		n, err := strconv.ParseUint(a.Value, 10, 64)
		return n, err
	case "int":
		n, err := strconv.Atoi(a.Value)
		return n, err
	case "bool":
		return a.Value == "true", nil
	case "string":
		return a.Value, nil
	case "address":
		return types.ParseAddress(a.Value)
	case "hash":
		return types.ParseHash(a.Value)
	case "amount":
		n, err := strconv.ParseUint(a.Value, 10, 64)
		return types.Amount(n), err
	default:
		return nil, fmt.Errorf("unknown argument type %q", a.Type)
	}
}

// EncodeArg renders a call argument for the wire.
func EncodeArg(v any) (Arg, error) {
	switch x := v.(type) {
	case uint64:
		return Arg{Type: "uint64", Value: strconv.FormatUint(x, 10)}, nil
	case int:
		return Arg{Type: "int", Value: strconv.Itoa(x)}, nil
	case bool:
		return Arg{Type: "bool", Value: strconv.FormatBool(x)}, nil
	case string:
		return Arg{Type: "string", Value: x}, nil
	case types.Address:
		return Arg{Type: "address", Value: x.String()}, nil
	case types.Hash:
		return Arg{Type: "hash", Value: x.String()}, nil
	case types.Amount:
		return Arg{Type: "amount", Value: strconv.FormatUint(uint64(x), 10)}, nil
	default:
		return Arg{}, fmt.Errorf("unsupported argument type %T", v)
	}
}

// EncodeArgs renders a full argument list for the wire.
func EncodeArgs(vals []any) ([]Arg, error) {
	out := make([]Arg, 0, len(vals))
	for _, v := range vals {
		a, err := EncodeArg(v)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// TxSubmit is the POST /v1/tx request body.
type TxSubmit struct {
	Sender   string `json:"sender"`
	Contract string `json:"contract"`
	Function string `json:"function"`
	Args     []Arg  `json:"args,omitempty"`
	Value    uint64 `json:"value,omitempty"`
	// GasLimit bounds the call's execution steps; 0 selects the node's
	// configured default.
	GasLimit uint64 `json:"gasLimit"`
	// Priority is the submission's mempool lane (0-255, higher first).
	// Higher-priority transactions are selected first and may replace a
	// sender's queued lower-priority transactions at the slot cap.
	// Priority is intake-side quality of service, not consensus state.
	Priority uint8 `json:"priority,omitempty"`
}

// SubmitOf renders a contract call as a submit request (client helper).
func SubmitOf(c contract.Call) (TxSubmit, error) {
	args, err := EncodeArgs(c.Args)
	if err != nil {
		return TxSubmit{}, err
	}
	return TxSubmit{
		Sender:   c.Sender.String(),
		Contract: c.Contract.String(),
		Function: c.Function,
		Args:     args,
		Value:    uint64(c.Value),
		GasLimit: uint64(c.GasLimit),
	}, nil
}

// Call decodes the submit request into a contract call. Failures are
// *Error values with the matching machine code; gas-limit defaulting and
// capping are the server's policy, not the schema's.
func (t TxSubmit) Call() (contract.Call, error) {
	sender, err := types.ParseAddress(t.Sender)
	if err != nil {
		return contract.Call{}, &Error{Code: CodeBadAddress, Message: "sender: " + err.Error()}
	}
	target, err := types.ParseAddress(t.Contract)
	if err != nil {
		return contract.Call{}, &Error{Code: CodeBadAddress, Message: "contract: " + err.Error()}
	}
	if strings.TrimSpace(t.Function) == "" {
		return contract.Call{}, &Error{Code: CodeMissingFunction, Message: "missing function"}
	}
	args := make([]any, 0, len(t.Args))
	for i, a := range t.Args {
		v, err := DecodeArg(a)
		if err != nil {
			return contract.Call{}, &Error{Code: CodeBadArg, Message: fmt.Sprintf("arg %d: %v", i, err)}
		}
		args = append(args, v)
	}
	return contract.Call{
		Sender: sender, Contract: target, Function: t.Function,
		Args: args, Value: types.Amount(t.Value), GasLimit: gas.Gas(t.GasLimit),
	}, nil
}

// TxSubmitted is the POST /v1/tx response: the content-derived
// transaction ID to poll receipts with, and the pool depth after the
// submit (the legacy field pre-v1 clients read).
type TxSubmitted struct {
	ID      string `json:"id"`
	PoolLen int    `json:"poolLen"`
	// Verdict is the admission outcome for an accepted submit:
	// "admitted", or "replaced" when the transaction displaced a queued
	// lower-priority transaction from the same sender. Empty from
	// pre-admission servers.
	Verdict string `json:"verdict,omitempty"`
}

// TxIDOf derives a call's transaction ID: the hash of its canonical
// encoding — the same bytes the block's transaction root commits to.
func TxIDOf(c contract.Call) types.Hash {
	var buf [256]byte
	return types.HashBytes(c.AppendForHash(buf[:0]))
}

// Transaction statuses as reported by receipts.
const (
	// StatusPending: submitted here, not yet part of a durable block.
	StatusPending = "pending"
	// StatusCommitted: executed and committed in a durable block.
	StatusCommitted = "committed"
	// StatusAborted: executed, aborted (reverted), gas consumed; still
	// part of a durable block's schedule.
	StatusAborted = "aborted"
	// StatusEvicted: dropped from the mempool under memory pressure (or
	// replaced by a higher-priority transaction) before ever executing.
	// Terminal for this submission, but the same transaction may be
	// resubmitted — eviction does not make its ID a duplicate.
	StatusEvicted = "evicted"
)

// TxReceipt is the GET /v1/tx/{id} response: one transaction's execution
// digest, served only once the containing block is durable. A pending
// transaction answers with Status "pending" and zero block fields.
type TxReceipt struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	// GasUsed is the gas the execution consumed (aborts consume too).
	GasUsed uint64 `json:"gasUsed,omitempty"`
	// AbortReason is the human-readable revert reason, aborted only.
	AbortReason string `json:"abortReason,omitempty"`
	// BlockHeight and BlockHash locate the durable containing block.
	BlockHeight uint64 `json:"blockHeight,omitempty"`
	BlockHash   string `json:"blockHash,omitempty"`
	// TxIndex is the transaction's position in the block's call list
	// (its TxID in the paper's sense).
	TxIndex int `json:"txIndex"`
	// ScheduleIndex is the transaction's position in the published
	// serial order S — where the validator's replay commits it.
	ScheduleIndex int `json:"scheduleIndex"`
}

// BlockInfo is the JSON view of a block header plus body sizes, served
// by GET /v1/head, GET /v1/blocks info responses, POST /v1/mine and the
// event stream. Field names predate /v1 (the legacy head summary used
// the same keys), so pre-v1 clients keep parsing.
type BlockInfo struct {
	Number       uint64 `json:"number"`
	Hash         string `json:"hash"`
	ParentHash   string `json:"parentHash"`
	StateRoot    string `json:"stateRoot"`
	TxCount      int    `json:"txCount"`
	Edges        int    `json:"edges"`
	ScheduleHash string `json:"scheduleHash"`
	// AlreadyKnown marks an idempotent re-import (POST /v1/blocks only).
	AlreadyKnown bool `json:"alreadyKnown,omitempty"`
}

// BlockInfoOf summarizes a sealed block for the wire.
func BlockInfoOf(b chain.Block) BlockInfo {
	return BlockInfo{
		Number:       b.Header.Number,
		Hash:         b.Header.Hash().String(),
		ParentHash:   b.Header.ParentHash.String(),
		StateRoot:    b.Header.StateRoot.String(),
		TxCount:      len(b.Calls),
		Edges:        len(b.Schedule.Edges),
		ScheduleHash: b.Header.ScheduleHash.String(),
	}
}

// Mine is the POST /v1/mine request body.
type Mine struct {
	// BlockSize caps transactions in the mined block; 0 selects the
	// node's configured default.
	BlockSize int `json:"blockSize"`
}

// Balance is the GET /v1/state/{address} response: a state read of one
// account's balance at the current block boundary, or — with ?height=H —
// at a historical height.
type Balance struct {
	Address string `json:"address"`
	Balance uint64 `json:"balance"`
	// Height is the block height the balance was read at: the node's
	// served (durable) height for latest reads, the requested height for
	// historical ones. Omitted by pre-replica servers.
	Height uint64 `json:"height,omitempty"`
}

// APIMetrics is the server's per-process request accounting, embedded in
// Status by the /v1 layer.
type APIMetrics struct {
	// Requests and Errors count handled requests and non-2xx answers.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// ByRoute breaks requests down per route pattern.
	ByRoute map[string]int64 `json:"byRoute,omitempty"`
	// Subscribers is the number of live event-stream subscriptions.
	Subscribers int `json:"subscribers"`
	// EventsDropped counts subscriptions terminated for falling behind.
	EventsDropped int64 `json:"eventsDropped"`
}

// Status is the GET /v1/status response: the node's statistics (hashes
// as hex strings) plus the API layer's own metrics.
type Status struct {
	Height          uint64 `json:"height"`
	HeadHash        string `json:"headHash"`
	PoolLen         int    `json:"poolLen"`
	Engine          string `json:"engine"`
	MinedBlocks     int    `json:"minedBlocks"`
	ValidatedBlocks int    `json:"validatedBlocks"`
	TotalRetries    int    `json:"totalRetries"`
	// DurableHeight is the newest block the persistence layer has
	// acknowledged (never above Height); Height - DurableHeight is the
	// sealed-not-durable window. PipelineDepth is that window's size (0
	// when it is 1: a synchronous node, or any node without a data dir),
	// InFlight how many blocks sit in it now.
	DurableHeight uint64 `json:"durableHeight"`
	PipelineDepth int    `json:"pipelineDepth,omitempty"`
	InFlight      int    `json:"inFlight,omitempty"`
	// Persistent reports a durable data dir. SnapshotErrors counts failed
	// checkpoint writes since start: any non-zero value means the WAL is
	// growing unpruned.
	Persistent      bool   `json:"persistent"`
	RecoveredBlocks int    `json:"recoveredBlocks,omitempty"`
	SnapshotHeight  uint64 `json:"snapshotHeight,omitempty"`
	SnapshotErrors  int64  `json:"snapshotErrors,omitempty"`
	// WAL I/O counters (durable nodes): appends and framed bytes written,
	// fsyncs and their summed latency, and how group commits batched.
	WalAppends      int64 `json:"walAppends,omitempty"`
	WalBytesWritten int64 `json:"walBytesWritten,omitempty"`
	WalFsyncs       int64 `json:"walFsyncs,omitempty"`
	WalFsyncMicros  int64 `json:"walFsyncMicros,omitempty"`
	WalGroupCommits int64 `json:"walGroupCommits,omitempty"`
	WalMaxGroup     int   `json:"walMaxGroup,omitempty"`
	// ChainBase is the oldest height the node still holds (non-zero on a
	// fast-synced, pruned node).
	ChainBase uint64 `json:"chainBase,omitempty"`
	// Mempool reports the sharded pool's admission counters and
	// occupancy (nil from pre-admission servers).
	Mempool *MempoolStatus `json:"mempool,omitempty"`
	// API is filled in by the serving layer (nil when the status was
	// produced outside an API server).
	API *APIMetrics `json:"api,omitempty"`
	// Relay reports the node's upstream event-relay loop (nil unless the
	// node runs as a read replica with a relay attached).
	Relay *RelayStatus `json:"relay,omitempty"`
}

// RelayStatus is the read-replica relay's accounting inside
// GET /v1/status: one upstream Subscribe connection feeding the local
// broker, with gap-fill on reconnect.
type RelayStatus struct {
	// Upstream is the base URL of the node the relay follows.
	Upstream string `json:"upstream"`
	// Events counts upstream block events received.
	Events int64 `json:"events"`
	// Reconnects counts upstream stream re-establishments (the initial
	// connect is not counted).
	Reconnects int64 `json:"reconnects"`
	// GapsFilled counts blocks the relay pulled other than the one an
	// event announced: the event stream skipped past them (drop or
	// reconnect), or they were there before the stream was.
	GapsFilled int64 `json:"gapsFilled"`
	// UpstreamHeight is the newest block height observed on the
	// upstream stream; local durable height lagging it is the replica's
	// current staleness in blocks.
	UpstreamHeight uint64 `json:"upstreamHeight"`
}

// MempoolStatus is the sharded mempool's admission accounting inside
// GET /v1/status: cumulative counters per admission verdict, eviction
// count, and current occupancy overall and per shard.
type MempoolStatus struct {
	Admitted       int64 `json:"admitted"`
	Replaced       int64 `json:"replaced,omitempty"`
	Duplicate      int64 `json:"duplicate,omitempty"`
	RateLimited    int64 `json:"rateLimited,omitempty"`
	SenderLimit    int64 `json:"senderLimit,omitempty"`
	ShardSaturated int64 `json:"shardSaturated,omitempty"`
	PoolOverloaded int64 `json:"poolOverloaded,omitempty"`
	Evicted        int64 `json:"evicted,omitempty"`
	// Bytes is the pool's current encoded-byte footprint; Shards the
	// configured stripe count; ShardOccupancy the queued count per shard.
	Bytes          int64 `json:"bytes"`
	Shards         int   `json:"shards"`
	ShardOccupancy []int `json:"shardOccupancy,omitempty"`
}

// Event is one event-stream entry (GET /v1/subscribe): a block that just
// became durable, with its receipts. Events are emitted in height order.
type Event struct {
	// Seq is the server-assigned monotonic sequence number; gaps tell a
	// resubscribing client it missed events and should catch up via
	// GET /v1/blocks.
	Seq uint64 `json:"seq"`
	// Block is the durable block's summary.
	Block BlockInfo `json:"block"`
	// Receipts are the block's transaction receipts.
	Receipts []TxReceipt `json:"receipts,omitempty"`
}
