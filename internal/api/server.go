// Package api is the node's versioned HTTP serving layer: the /v1
// routes (typed wire schema, transaction receipts, event streams) and the
// server middleware — request body limits and deadlines, and request
// metrics.
//
// The package is deliberately independent of internal/node: the server
// talks to the node through the narrow Backend interface, and the
// receipt store and event broker are passed in by the node, which owns
// feeding them (receipts are recorded only once a block is durable — the
// crash rule extends to the client API). internal/api/client is the Go
// SDK for this surface; internal/api/wire is the schema both sides
// share.
package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"contractstm/internal/api/wire"
	"contractstm/internal/chain"
	"contractstm/internal/codec"
	"contractstm/internal/contract"
	"contractstm/internal/gas"
	"contractstm/internal/persist"
	"contractstm/internal/types"
)

// Defaults for Config's zero values.
const (
	// DefaultBlockSize caps mined blocks when the request leaves the
	// size unset.
	DefaultBlockSize = 100
	// DefaultGasLimit is assigned to submitted transactions that leave
	// the gas limit unset.
	DefaultGasLimit = 1_000_000
	// DefaultMaxGasLimit rejects submitted gas limits above it.
	DefaultMaxGasLimit = 100_000_000
	// DefaultMaxBodyBytes bounds JSON request bodies.
	DefaultMaxBodyBytes = 1 << 20
	// DefaultTimeout is Config.Timeout's default.
	DefaultTimeout = 60 * time.Second
)

// SubmitResult is the backend's admission outcome for one transaction
// submit. The server maps it onto the HTTP surface: admitted → 202,
// duplicate → 409 (the existing receipt stands), everything else →
// 429 with a Retry-After header.
type SubmitResult struct {
	// ID is the content-derived transaction ID — meaningful for every
	// outcome, so a shed caller can still correlate.
	ID types.Hash
	// Verdict is the wire-stable verdict name ("admitted", "replaced",
	// "duplicate", "rate_limited", "sender_limit", "shard_saturated",
	// "pool_overloaded"). For shed submissions it doubles as the error
	// code.
	Verdict string
	// Admitted reports the transaction is queued (admitted or replaced).
	Admitted bool
	// Duplicate reports a known-identical transaction.
	Duplicate bool
	// RetryAfter is the pool's back-off hint for shed submissions (0 =
	// no estimate; the server clamps the header to at least 1s).
	RetryAfter time.Duration
}

// Backend is the node surface the server serves. Implementations:
// *node.Node. Every method must be safe for concurrent use.
type Backend interface {
	// SubmitTx runs a transaction through mempool admission at the given
	// priority lane, marking it pending in the receipt store on success
	// (the backend owns the store's write side).
	SubmitTx(call contract.Call, priority uint8) SubmitResult
	// PoolLen reports queued transactions.
	PoolLen() int
	// MineOne mines one block of at most blockSize transactions.
	MineOne(blockSize int) (chain.Block, error)
	// ImportBlock validates and appends a foreign block; alreadyKnown
	// reports an idempotent re-import (a 2xx answer, not an error).
	ImportBlock(b chain.Block) (alreadyKnown bool, err error)
	// DurableBlock returns the block at the given height if the node
	// holds it and it is durable (the crash rule gates the wire API).
	DurableBlock(height uint64) (chain.Block, bool)
	// DurableHead returns the newest durable block.
	DurableHead() chain.Block
	// CurrentStatus snapshots node statistics (API field nil; the server
	// fills it).
	CurrentStatus() wire.Status
	// Snapshot produces the state checkpoint GET /v1/snapshot serves
	// when no cached wire encoding exists.
	Snapshot() (persist.Snapshot, error)
	// SnapshotWire returns the cached framed snapshot bytes, or nil.
	SnapshotWire() []byte
	// BalanceAt reads an account balance at the durable head and reports
	// that head's height: the pair is one consistent read.
	BalanceAt(types.Address) (types.Amount, uint64, error)
	// ReadStamp reports the durable height every read is served at plus
	// the node's staleness bound in milliseconds — time elapsed since
	// that height was reached (0 when unknown, e.g. before any block).
	ReadStamp() (height uint64, stalenessMillis int64)
	// BalanceAtHeight reads an account balance at a historical block
	// height. ErrHeightAhead means the node has not durably reached the
	// height yet (412); ErrHeightUnavailable means the height fell out
	// of the node's history window or the node retains none (404).
	BalanceAtHeight(types.Address, uint64) (types.Amount, error)
}

// Sentinel errors Backend.BalanceAtHeight maps historical-read failures
// onto; the server translates them to replica_behind (412) and
// height_unavailable (404).
var (
	ErrHeightAhead       = errors.New("height ahead of served height")
	ErrHeightUnavailable = errors.New("height not retained")
)

// Config assembles a Server.
type Config struct {
	// Backend is the node (required).
	Backend Backend
	// Receipts is the receipt index the backend records into (required).
	Receipts *ReceiptStore
	// Events is the durable-block broker the backend publishes to
	// (required for /v1/subscribe; nil disables the route).
	Events *Broker
	// DefaultBlockSize, DefaultGasLimit and MaxGasLimit tune request
	// handling; zero selects the package defaults.
	DefaultBlockSize int
	DefaultGasLimit  uint64
	MaxGasLimit      uint64
	// Timeout bounds the reading of a request body (0 = DefaultTimeout,
	// negative = none): POST /v1/tx, /v1/mine and /v1/blocks read theirs
	// under a read deadline (bodyDeadline). A route that reads no body
	// has nothing to bound; what a request then waits on in the node is
	// its client's to bound.
	Timeout time.Duration
	// SubscriberBuffer sizes each /v1/subscribe subscriber's event
	// buffer (<=0 selects DefaultSubscriberBuffer). Relays serving
	// thousands of downstream subscribers raise it so a scheduling
	// hiccup does not cascade into drops.
	SubscriberBuffer int
	// ErrorLog receives server-side serving faults (response encoding
	// failures — malformed DTOs must not be silent). Nil discards.
	ErrorLog func(error)
}

// Server is the node's HTTP API.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	handler http.Handler

	// statusDecorator, when set, amends the status DTO before it is
	// served — the replica relay injects its accounting here. Stored
	// atomically because the relay attaches after the server starts.
	statusDecorator atomic.Pointer[func(*wire.Status)]

	// refuseWrites is set on a node that follows an upstream: its blocks
	// come from there, so the two routes that would make it seal one of
	// its own answer 403 read_replica.
	refuseWrites atomic.Bool

	// request metrics (lock-free; read by the status handler).
	requests atomic.Int64
	errs     atomic.Int64
	routeMu  sync.Mutex
	byRoute  map[string]*atomic.Int64
}

// SetStatusDecorator installs (or, with nil, removes) a hook that may
// amend every GET /v1/status response before encoding. Safe to call
// while the server is serving.
func (s *Server) SetStatusDecorator(fn func(*wire.Status)) {
	if fn == nil {
		s.statusDecorator.Store(nil)
		return
	}
	s.statusDecorator.Store(&fn)
}

// RefuseWrites makes POST /v1/tx and POST /v1/mine answer 403
// read_replica from now on; POST /v1/blocks and every read are unaffected.
// Safe to call while the server is serving.
func (s *Server) RefuseWrites() { s.refuseWrites.Store(true) }

// writable guards a route that feeds or triggers local block production.
func (s *Server) writable(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.refuseWrites.Load() {
			s.fail(w, http.StatusForbidden, wire.CodeReadReplica,
				errors.New("this node follows an upstream and takes no writes; send them there"))
			return
		}
		h(w, r)
	}
}

// NewServer builds the API server for a backend.
func NewServer(cfg Config) *Server {
	if cfg.DefaultBlockSize <= 0 {
		cfg.DefaultBlockSize = DefaultBlockSize
	}
	if cfg.DefaultGasLimit == 0 {
		cfg.DefaultGasLimit = DefaultGasLimit
	}
	if cfg.MaxGasLimit == 0 {
		cfg.MaxGasLimit = DefaultMaxGasLimit
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = DefaultTimeout
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux(), byRoute: make(map[string]*atomic.Int64)}

	// /v1 routes. A route is bounded by the body it reads: the three
	// POSTs read theirs under bodyDeadline, and every GET reads none.
	s.route("POST /v1/tx", s.writable(s.handleTx))
	s.route("GET /v1/tx/{id}", s.handleReceipt)
	s.route("POST /v1/mine", s.writable(s.handleMine))
	s.route("POST /v1/blocks", s.handleImportBlock)
	s.route("GET /v1/blocks/{height}", s.handleGetBlock)
	s.route("GET /v1/blocks", s.handleGetBlockRange)
	s.route("GET /v1/head", s.handleHead)
	s.route("GET /v1/status", s.handleStatus)
	s.route("GET /v1/state/{address}", s.handleBalance)
	s.route("GET /v1/snapshot", s.handleSnapshot)
	s.route("GET /v1/subscribe", s.handleSubscribe)

	s.handler = s.mux
	return s
}

// route registers pattern with the metrics middleware.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.Handle(pattern, s.measure(pattern, h))
}

// statusRecorder captures the response code for error accounting.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards flushing so the SSE stream works through the recorder.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.NewResponseController reach the connection (the
// body read deadline).
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// measure wraps a route with request counting.
func (s *Server) measure(pattern string, h http.Handler) http.Handler {
	s.routeMu.Lock()
	counter, ok := s.byRoute[pattern]
	if !ok {
		counter = &atomic.Int64{}
		s.byRoute[pattern] = counter
	}
	s.routeMu.Unlock()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		counter.Add(1)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		if s.stampAndGate(rec, r) {
			h.ServeHTTP(rec, r)
		}
		if rec.code >= 400 {
			s.errs.Add(1)
		}
	})
}

// stampAndGate stamps X-Chain-Height and X-Chain-Staleness onto the
// response and enforces a GET's min_height precondition: a node behind
// the client's height floor answers 412 replica_behind with a
// Retry-After hint instead of silently serving a stale read. Reports
// whether the request may proceed to its handler.
func (s *Server) stampAndGate(w http.ResponseWriter, r *http.Request) bool {
	height, staleMillis := s.cfg.Backend.ReadStamp()
	hdr := w.Header()
	hdr.Set(wire.HeaderChainHeight, strconv.FormatUint(height, 10))
	hdr.Set(wire.HeaderChainStaleness, strconv.FormatInt(staleMillis, 10))
	if r.Method != http.MethodGet {
		return true
	}
	minStr := r.URL.Query().Get("min_height")
	if minStr == "" {
		return true
	}
	minHeight, err := strconv.ParseUint(minStr, 10, 64)
	if err != nil {
		s.fail(w, http.StatusBadRequest, wire.CodeBadRequest,
			fmt.Errorf("bad min_height %q", minStr))
		return false
	}
	if height < minHeight {
		hdr.Set("Retry-After", "1")
		s.fail(w, http.StatusPreconditionFailed, wire.CodeReplicaBehind,
			fmt.Errorf("serving height %d, below requested min_height %d", height, minHeight))
		return false
	}
	return true
}

// Metrics snapshots the server's request accounting.
func (s *Server) Metrics() wire.APIMetrics {
	m := wire.APIMetrics{
		Requests: s.requests.Load(),
		Errors:   s.errs.Load(),
		ByRoute:  make(map[string]int64),
	}
	s.routeMu.Lock()
	for pattern, c := range s.byRoute {
		if n := c.Load(); n > 0 {
			m.ByRoute[pattern] = n
		}
	}
	s.routeMu.Unlock()
	if s.cfg.Events != nil {
		m.Subscribers = s.cfg.Events.Subscribers()
		m.EventsDropped = s.cfg.Events.Dropped()
	}
	return m
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// logErr surfaces a serving fault through the configured hook.
func (s *Server) logErr(err error) {
	if s.cfg.ErrorLog != nil && err != nil {
		s.cfg.ErrorLog(err)
	}
}

// writeJSON sends v as a JSON response. The Content-Type header must be
// set before WriteHeader flushes the header block, so every JSON-speaking
// handler funnels through here. Encoding failures (a malformed DTO, a
// client gone mid-write) go to the error hook instead of vanishing.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logErr(fmt.Errorf("api: encode response: %w", err))
	}
}

// fail sends the error envelope. Wire errors keep their code; everything
// else is wrapped under the given fallback code.
func (s *Server) fail(w http.ResponseWriter, httpCode int, code string, err error) {
	var we *wire.Error
	if errors.As(err, &we) {
		s.writeJSON(w, httpCode, we)
		return
	}
	s.writeJSON(w, httpCode, &wire.Error{Code: code, Message: err.Error()})
}

// decodeBody JSON-decodes a bounded request body, mapping the failure
// modes to wire errors: wrong content type 415, oversized body 413,
// malformed JSON 400. A nil dst just enforces type and bounds.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	body, ok := s.jsonBody(w, r)
	if !ok {
		return false
	}
	err := json.NewDecoder(body).Decode(dst)
	if err == nil || (err == io.EOF && allowEmptyBody(dst)) {
		return true
	}
	s.failBody(w, err)
	return false
}

// jsonBody returns the request body bounded by DefaultMaxBodyBytes and read
// under bodyDeadline, or answers 415 for a content type other than JSON.
func (s *Server) jsonBody(w http.ResponseWriter, r *http.Request) (io.Reader, bool) {
	if ct := r.Header.Get("Content-Type"); ct != "" && !jsonContentType(ct) {
		s.fail(w, http.StatusUnsupportedMediaType, wire.CodeUnsupportedMedia,
			fmt.Errorf("content type %q, want application/json", ct))
		return nil, false
	}
	s.bodyDeadline(w, r)
	return http.MaxBytesReader(w, r.Body, DefaultMaxBodyBytes), true
}

// failBody answers a body that failed to read or decode: 503 "request
// timed out" past the read deadline, 413 over the size limit, 400
// otherwise.
func (s *Server) failBody(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	switch {
	case errors.Is(err, os.ErrDeadlineExceeded):
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, "request timed out")
	case errors.As(err, &tooBig):
		s.fail(w, http.StatusRequestEntityTooLarge, wire.CodeBodyTooLarge,
			fmt.Errorf("request body over %d bytes", DefaultMaxBodyBytes))
	default:
		s.fail(w, http.StatusBadRequest, wire.CodeBadRequest, err)
	}
}

// jsonContentType accepts application/json with optional parameters.
// Media types are case-insensitive (RFC 7231).
func jsonContentType(ct string) bool {
	if ct == "application/json" {
		return true
	}
	mt, _, err := mime.ParseMediaType(ct)
	return err == nil && mt == "application/json"
}

// allowEmptyBody reports whether an empty body is acceptable for the
// destination DTO (mine requests default everything).
func allowEmptyBody(dst any) bool {
	_, ok := dst.(*wire.Mine)
	return ok
}

// handleTx is POST /v1/tx: validate, assign the content-derived ID,
// run mempool admission. Accepted submits answer 202; a duplicate
// answers 409 (the caller's existing receipt stands); shed submits
// answer 429 with the admission stage as the error code and a
// Retry-After header carrying the pool's back-off hint.
func (s *Server) handleTx(w http.ResponseWriter, r *http.Request) {
	buf := submitBufs.Get().(*[submitBuf]byte)
	defer submitBufs.Put(buf)
	tx, ok := s.readSubmit(w, r, buf[:])
	if !ok {
		return
	}
	call, err := tx.Call()
	if err != nil {
		s.fail(w, http.StatusBadRequest, wire.CodeBadRequest, err)
		return
	}
	if call.GasLimit == 0 {
		call.GasLimit = gas.Gas(s.cfg.DefaultGasLimit)
	}
	if uint64(call.GasLimit) > s.cfg.MaxGasLimit {
		s.fail(w, http.StatusBadRequest, wire.CodeGasLimitTooHigh,
			fmt.Errorf("gas limit %d over node maximum %d", call.GasLimit, s.cfg.MaxGasLimit))
		return
	}
	res := s.cfg.Backend.SubmitTx(call, tx.Priority)
	switch {
	case res.Admitted:
		out := wire.TxSubmitted{ID: res.ID.String(), PoolLen: s.cfg.Backend.PoolLen(), Verdict: res.Verdict}
		body, ok := wire.AppendTxSubmitted(buf[:0], out)
		if !ok {
			s.writeJSON(w, http.StatusAccepted, out)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write(body)
	case res.Duplicate:
		s.fail(w, http.StatusConflict, wire.CodeTxDuplicate,
			fmt.Errorf("transaction %s already submitted; existing receipt stands", res.ID.Short()))
	default:
		w.Header().Set("Retry-After", strconv.FormatInt(retryAfterSeconds(res.RetryAfter), 10))
		s.fail(w, http.StatusTooManyRequests, res.Verdict,
			fmt.Errorf("transaction %s shed by admission control (%s)", res.ID.Short(), res.Verdict))
	}
}

// submitBuf is the size of the buffer a submit body is read into: a
// usual submit and its answer fit, anything longer is read on by
// encoding/json.
const submitBuf = 1 << 10

// submitBufs holds handleTx's body buffers.
var submitBufs = sync.Pool{New: func() any { return new([submitBuf]byte) }}

// readSubmit is decodeBody for POST /v1/tx, with the body read into
// buf. A body that ends inside buf and is in canonical form
// (wire.ParseTxSubmit) is taken as read; any other goes, from its first
// byte, through the decoder decodeBody runs, so it meets the same
// answer.
func (s *Server) readSubmit(w http.ResponseWriter, r *http.Request, buf []byte) (wire.TxSubmit, bool) {
	body, ok := s.jsonBody(w, r)
	if !ok {
		return wire.TxSubmit{}, false
	}
	// io.ReadFull reports io.ErrUnexpectedEOF for a body shorter than
	// buf; either way the whole body is in buf.
	n, err := io.ReadFull(body, buf)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		if tx, ok := wire.ParseTxSubmit(buf[:n]); ok {
			return tx, true
		}
	}
	// The body's reader repeats its error, so the decoder meets it after
	// the same bytes the first read did.
	var tx wire.TxSubmit
	if err := json.NewDecoder(io.MultiReader(bytes.NewReader(buf[:n]), body)).Decode(&tx); err != nil {
		s.failBody(w, err)
		return wire.TxSubmit{}, false
	}
	return tx, true
}

// bodyDeadline bounds a request's body reads by Config.Timeout, unless
// the http.Server's own ReadTimeout already bounds them tighter. A
// writer that cannot reach its connection (a test recorder) reads
// without one.
func (s *Server) bodyDeadline(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Timeout <= 0 {
		return
	}
	if srv, ok := r.Context().Value(http.ServerContextKey).(*http.Server); ok &&
		srv.ReadTimeout > 0 && srv.ReadTimeout <= s.cfg.Timeout {
		return
	}
	_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(s.cfg.Timeout))
}

// retryAfterSeconds renders a back-off hint as whole seconds for the
// Retry-After header, rounding up with a 1-second floor — the header
// has no sub-second form, and "retry immediately" defeats shedding.
func retryAfterSeconds(d time.Duration) int64 {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// handleReceipt is GET /v1/tx/{id}: the receipt lifecycle query.
func (s *Server) handleReceipt(w http.ResponseWriter, r *http.Request) {
	id, err := types.ParseHash(r.PathValue("id"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, wire.CodeBadRequest, fmt.Errorf("tx id: %w", err))
		return
	}
	ref, ok := s.cfg.Receipts.Lookup(id)
	if !ok {
		s.fail(w, http.StatusNotFound, wire.CodeTxNotFound,
			fmt.Errorf("no receipt for %s (unknown, evicted, or not yet submitted here)", id.Short()))
		return
	}
	// The bytes writeJSON would send for ref.Receipt(), rendered from
	// the reference: the receipt is hexed only here, when a client asks.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(ref.AppendJSON(make([]byte, 0, 512)), '\n'))
}

// handleMine is POST /v1/mine.
func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	var req wire.Mine
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.BlockSize <= 0 {
		req.BlockSize = s.cfg.DefaultBlockSize
	}
	block, err := s.cfg.Backend.MineOne(req.BlockSize)
	if err != nil {
		s.fail(w, http.StatusConflict, wire.CodeMineFailed, err)
		return
	}
	s.writeJSON(w, http.StatusOK, wire.BlockInfoOf(block))
}

// handleImportBlock is POST /v1/blocks: the validator-node import path.
// Blocks travel in the chain package's flat wire format, not JSON.
func (s *Server) handleImportBlock(w http.ResponseWriter, r *http.Request) {
	s.bodyDeadline(w, r)
	block, err := chain.ReadBlock(io.LimitReader(r.Body, chain.MaxWireBlock))
	if err != nil {
		s.failBody(w, err)
		return
	}
	known, err := s.cfg.Backend.ImportBlock(block)
	if err != nil {
		s.fail(w, http.StatusConflict, wire.CodeBlockRejected, err)
		return
	}
	info := wire.BlockInfoOf(block)
	info.AlreadyKnown = known
	s.writeJSON(w, http.StatusOK, info)
}

// handleGetBlock is GET /v1/blocks/{height}: flat block bytes, durable
// blocks only (the crash rule covers the pull path).
func (s *Server) handleGetBlock(w http.ResponseWriter, r *http.Request) {
	height, err := strconv.ParseUint(r.PathValue("height"), 10, 64)
	if err != nil {
		s.fail(w, http.StatusBadRequest, wire.CodeBadRequest, err)
		return
	}
	block, ok := s.cfg.Backend.DurableBlock(height)
	if !ok {
		s.fail(w, http.StatusNotFound, wire.CodeBlockNotFound,
			fmt.Errorf("no durable block at height %d", height))
		return
	}
	buf := codec.GetBuffer()
	defer buf.Release()
	raw, err := chain.AppendBlockWire(buf.B, block)
	if err != nil {
		s.logErr(fmt.Errorf("api: encode block %d: %w", height, err))
		s.fail(w, http.StatusInternalServerError, wire.CodeInternal, err)
		return
	}
	buf.B = raw
	writeBlocks(w, raw)
}

// writeBlocks answers with encoded blocks. Write copies raw into the
// connection's buffer before it returns, so the block routes encode into
// a pooled buffer and release it once the answer is written.
func writeBlocks(w http.ResponseWriter, raw []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
	_, _ = w.Write(raw)
}

// MaxRangeBlocks caps GET /v1/blocks?from=&count= — the most blocks one
// range fetch returns regardless of the requested count.
const MaxRangeBlocks = 64

// handleGetBlockRange is GET /v1/blocks?from=&count=: up to count durable
// blocks starting at height from, streamed as concatenated self-delimiting
// flat-codec frames (each decodable with chain.ReadBlock). The response
// may be short — the node serves the durable prefix it has — but never
// empty: a missing starting height answers 404, so a catch-up client can
// distinguish "nothing there" from "partial". Counts above MaxRangeBlocks
// are clamped, not rejected, keeping the bound server-owned.
func (s *Server) handleGetBlockRange(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		s.fail(w, http.StatusBadRequest, wire.CodeBadRequest,
			fmt.Errorf("range fetch: bad from %q", q.Get("from")))
		return
	}
	count, err := strconv.Atoi(q.Get("count"))
	if err != nil || count <= 0 {
		s.fail(w, http.StatusBadRequest, wire.CodeBadRequest,
			fmt.Errorf("range fetch: bad count %q", q.Get("count")))
		return
	}
	if count > MaxRangeBlocks {
		count = MaxRangeBlocks
	}
	buf := codec.GetBuffer()
	defer buf.Release()
	for i := 0; i < count; i++ {
		h := from + uint64(i)
		if h < from {
			break // uint64 wraparound on a huge from
		}
		block, ok := s.cfg.Backend.DurableBlock(h)
		if !ok {
			break
		}
		raw, err := chain.AppendBlockWire(buf.B, block)
		if err != nil {
			s.logErr(fmt.Errorf("api: encode block %d: %w", h, err))
			s.fail(w, http.StatusInternalServerError, wire.CodeInternal, err)
			return
		}
		buf.B = raw
	}
	if len(buf.B) == 0 {
		s.fail(w, http.StatusNotFound, wire.CodeBlockNotFound,
			fmt.Errorf("no durable block at height %d", from))
		return
	}
	writeBlocks(w, buf.B)
}

// handleHead is GET /v1/head: the durable chain tip.
func (s *Server) handleHead(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, wire.BlockInfoOf(s.cfg.Backend.DurableHead()))
}

// handleStatus is GET /v1/status: node status plus the API layer's own
// request metrics, run through the status decorator when one is
// attached (the replica relay reports itself this way).
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := s.cfg.Backend.CurrentStatus()
	m := s.Metrics()
	st.API = &m
	if fn := s.statusDecorator.Load(); fn != nil {
		(*fn)(&st)
	}
	s.writeJSON(w, http.StatusOK, st)
}

// handleBalance is GET /v1/state/{address}: a balance read at the
// durable head, or — with ?height=H — at a historical height the node
// retains. A height the node has not durably reached answers
// 412 replica_behind; one below the history window answers 404
// height_unavailable.
func (s *Server) handleBalance(w http.ResponseWriter, r *http.Request) {
	addr, err := types.ParseAddress(r.PathValue("address"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, wire.CodeBadAddress, err)
		return
	}
	if hs := r.URL.Query().Get("height"); hs != "" {
		height, err := strconv.ParseUint(hs, 10, 64)
		if err != nil {
			s.fail(w, http.StatusBadRequest, wire.CodeBadRequest,
				fmt.Errorf("bad height %q", hs))
			return
		}
		bal, err := s.cfg.Backend.BalanceAtHeight(addr, height)
		switch {
		case errors.Is(err, ErrHeightAhead):
			w.Header().Set("Retry-After", "1")
			s.fail(w, http.StatusPreconditionFailed, wire.CodeReplicaBehind, err)
			return
		case errors.Is(err, ErrHeightUnavailable):
			s.fail(w, http.StatusNotFound, wire.CodeHeightUnavailable, err)
			return
		case err != nil:
			s.fail(w, http.StatusInternalServerError, wire.CodeInternal, err)
			return
		}
		s.writeJSON(w, http.StatusOK, wire.Balance{
			Address: addr.String(), Balance: uint64(bal), Height: height,
		})
		return
	}
	bal, served, err := s.cfg.Backend.BalanceAt(addr)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, wire.CodeInternal, err)
		return
	}
	s.writeJSON(w, http.StatusOK, wire.Balance{
		Address: addr.String(), Balance: uint64(bal), Height: served,
	})
}

// handleSnapshot is GET /v1/snapshot: the state checkpoint for snapshot
// fast-sync. Durable nodes serve the cached framed bytes — immutable
// between writes, so per-request re-encoding would be pure waste.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if raw := s.cfg.Backend.SnapshotWire(); raw != nil {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
		_, _ = w.Write(raw)
		return
	}
	snap, err := s.cfg.Backend.Snapshot()
	if err != nil {
		s.fail(w, http.StatusInternalServerError, wire.CodeSnapshotUnavailable, err)
		return
	}
	var buf bytes.Buffer
	if err := persist.EncodeSnapshot(&buf, snap); err != nil {
		s.logErr(fmt.Errorf("api: encode snapshot: %w", err))
		s.fail(w, http.StatusInternalServerError, wire.CodeInternal, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes())
}

// sseChunk is about how many bytes of an SSE frame the writer renders
// before handing them to the connection: a 500-receipt block's frame
// goes out in a handful of writes.
const sseChunk = 32 << 10

// framePool holds the SSE writers' render buffers. A frame is rendered
// into one a chunk at a time and the buffer goes back after the frame,
// so an idle subscriber holds none.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, sseChunk+4<<10); return &b }}

// handleSubscribe is GET /v1/subscribe: a server-sent-event stream of
// durable blocks and their receipts, in height order, each carrying its
// broker sequence number as the SSE id. A reconnecting client sends the
// standard Last-Event-ID header and the missed events are replayed from
// the broker's retained ring; a gap that outran the ring (or an id from
// another node) is answered with an `event: reset` before whatever can
// still be replayed, telling the client to resync through GET
// /v1/blocks instead of trusting the stream to be gapless. A subscriber
// that cannot keep up is disconnected (the broker never back-pressures
// block production); the dropped event tells it to reconnect with
// Last-Event-ID set.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Events == nil {
		s.fail(w, http.StatusNotFound, wire.CodeBadRequest, errors.New("event stream not enabled"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.fail(w, http.StatusInternalServerError, wire.CodeInternal, errors.New("streaming unsupported"))
		return
	}
	// Subscribe before replaying: events published between the replay
	// read and the live loop land in the buffer and are deduplicated by
	// sequence number below, so the client sees every event exactly once.
	sub := s.cfg.Events.Subscribe(s.cfg.SubscriberBuffer)
	defer sub.Close()

	var replay []Event
	needReset := false
	replayed := false // whether a delivered-through floor applies
	var seenThrough uint64
	if lastID := r.Header.Get("Last-Event-ID"); lastID != "" {
		afterSeq, err := strconv.ParseUint(lastID, 10, 64)
		if err != nil {
			s.fail(w, http.StatusBadRequest, wire.CodeBadRequest,
				fmt.Errorf("bad Last-Event-ID %q", lastID))
			return
		}
		var complete bool
		replay, complete = s.cfg.Events.Replay(afterSeq)
		if complete {
			replayed = true
			seenThrough = afterSeq
		} else {
			// The gap outran the ring (or the id came from another
			// node): signal a reset, then replay whatever the ring still
			// holds so the client reaches the live edge — it must fill
			// the signalled hole through GET /v1/blocks itself.
			needReset = true
		}
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, ": subscribed\n\n")
	if needReset {
		_, _ = io.WriteString(w, "event: reset\ndata: {}\n\n")
	}
	flusher.Flush()

	// Each frame is rendered from the shared block record, sseChunk
	// bytes at a time, into a pooled buffer: no subscriber holds a
	// block's whole event.
	write := func(b []byte) error {
		_, err := w.Write(b)
		return err
	}
	writeEvent := func(ev Event) bool {
		buf := framePool.Get().(*[]byte)
		frame := append((*buf)[:0], "id: "...)
		frame = strconv.AppendUint(frame, ev.Seq, 10)
		frame = append(frame, "\nevent: block\ndata: "...)
		frame, err := wire.AppendEvent(frame, ev.Seq, ev.Block, sseChunk, write)
		if err == nil {
			frame = append(frame, "\n\n"...)
			err = write(frame)
		}
		*buf = frame
		framePool.Put(buf)
		if err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	for _, ev := range replay {
		if !writeEvent(ev) {
			return
		}
		replayed = true
		seenThrough = ev.Seq
	}

	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-sub.C:
			if !ok {
				// Dropped for falling behind: tell the client before the
				// connection closes so resubscribing is a protocol step,
				// not a guess.
				_, _ = io.WriteString(w, "event: dropped\ndata: {}\n\n")
				flusher.Flush()
				return
			}
			if replayed && ev.Seq <= seenThrough {
				continue // already delivered through the replay pass
			}
			if !writeEvent(ev) {
				return
			}
		}
	}
}
