// Package client is the Go SDK for the node's versioned /v1 API
// (internal/api): typed methods over the wire schema, context-first,
// with a bounded retry policy for idempotent requests.
//
// Everything that speaks HTTP to a node lives here — cluster.Peer, the
// cmd tools and the benchmarks are built on this client, so transport
// concerns (retries, error decoding, body limits) exist exactly once.
//
// Retry policy: GETs are idempotent and are retried on transport errors
// and 5xx answers with exponential backoff. A 4xx answer is the server's
// considered refusal and is never retried — with two exceptions around
// transaction submission, where the mempool's admission control makes
// retrying well-defined. A 429 answer is explicit back-pressure, not a
// refusal: SubmitTx honors the server's Retry-After hint (falling back
// to capped, jittered exponential backoff) and resubmits until admitted
// or the attempt budget runs out. A 409 tx_duplicate means the node
// already tracks this exact transaction — admission dedups by content-
// derived ID — so the SDK folds it into success: the submission landed,
// poll the receipt. Transport-errored submits are still never resent
// blindly (the response, not the submission, may be what was lost);
// poll the content-derived ID (wire.TxIDOf) first. Block import
// (POST /v1/blocks) is left to the caller's delivery strategy
// (cluster.Broadcaster owns broadcast retries).
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"contractstm/internal/api/wire"
	"contractstm/internal/chain"
	"contractstm/internal/codec"
	"contractstm/internal/contract"
	"contractstm/internal/persist"
	"contractstm/internal/types"
)

// APIError is a non-2xx answer from the node: the machine-readable code
// from the wire error envelope plus the HTTP status.
type APIError struct {
	Status  int
	Code    string
	Message string
	// RetryAfter is the server's Retry-After hint on a 429 answer (zero
	// when the server sent none): how long the client should wait before
	// resubmitting. SubmitTx honors it automatically.
	RetryAfter time.Duration
}

// Error implements the error interface.
func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("api client: status %d (%s): %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("api client: status %d: %s", e.Status, e.Message)
}

// IsCode reports whether err is an *APIError carrying the given wire
// code.
func IsCode(err error, code string) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == code
}

// RetryPolicy bounds retries of idempotent requests and of submissions
// shed with 429.
type RetryPolicy struct {
	// MaxAttempts is tries per request (<=0 selects 3).
	MaxAttempts int
	// Backoff is the first retry's delay, doubling per attempt
	// (<=0 selects 25ms).
	Backoff time.Duration
	// MaxBackoff caps the per-attempt delay, including server-supplied
	// Retry-After hints (<=0 selects 2s).
	MaxBackoff time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = 25 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	return p
}

// NoRetry disables retries (single attempt per request).
var NoRetry = RetryPolicy{MaxAttempts: 1, Backoff: time.Nanosecond}

// Client is a typed client for one node's /v1 API.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient replaces the underlying HTTP client.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// WithRetry replaces the retry policy for idempotent requests.
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) { c.retry = p.withDefaults() }
}

// New returns a client for the node served at baseURL.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:  strings.TrimRight(baseURL, "/"),
		hc:    &http.Client{Timeout: 30 * time.Second},
		retry: RetryPolicy{}.withDefaults(),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// URL returns the client's base URL.
func (c *Client) URL() string { return c.base }

// do performs one request built by build with ctx (a fresh request per
// attempt so bodies re-send cleanly), retrying per policy when retryable.
func (c *Client) do(ctx context.Context, retryable bool, build func(context.Context) (*http.Request, error)) (*http.Response, error) {
	policy := c.retry
	if !retryable {
		policy = NoRetry
	}
	delay := policy.Backoff
	var lastErr error
	for attempt := 1; ; attempt++ {
		req, err := build(ctx)
		if err != nil {
			return nil, err
		}
		resp, err := c.hc.Do(req)
		switch {
		case err != nil:
			lastErr = err
		case resp.StatusCode >= 500:
			lastErr = decodeError(resp)
		default:
			return resp, nil
		}
		if attempt >= policy.MaxAttempts || ctx.Err() != nil {
			return nil, lastErr
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		delay *= 2
	}
}

// get fetches path and returns a 200 answer; any other answer is an
// *APIError.
func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	resp, err := c.do(ctx, true, func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	})
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	return resp, nil
}

// getJSON fetches path and decodes the response into out.
func (c *Client) getJSON(ctx context.Context, path string, limit int64, out any) error {
	resp, err := c.get(ctx, path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(io.LimitReader(resp.Body, limit)).Decode(out); err != nil {
		return fmt.Errorf("api client: decode %s: %w", path, err)
	}
	return nil
}

// postJSON posts body to path and decodes the response into out.
func (c *Client) postJSON(ctx context.Context, path string, retryable bool, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("api client: encode %s: %w", path, err)
	}
	resp, err := c.post(ctx, path, retryable, raw)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(out); err != nil {
		return fmt.Errorf("api client: decode %s: %w", path, err)
	}
	return nil
}

// post posts the JSON raw to path and returns a 2xx answer; any other
// answer is an *APIError.
func (c *Client) post(ctx context.Context, path string, retryable bool, raw []byte) (*http.Response, error) {
	resp, err := c.do(ctx, retryable, func(ctx context.Context) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, decodeError(resp)
	}
	return resp, nil
}

// submit posts one encoded submit and reads the answer (readAnswer
// with wire.ParseTxSubmitted, within 1 MiB).
func (c *Client) submit(ctx context.Context, raw []byte) (wire.TxSubmitted, error) {
	resp, err := c.post(ctx, "/v1/tx", false, raw)
	if err != nil {
		return wire.TxSubmitted{}, err
	}
	defer resp.Body.Close()
	var buf [256]byte
	return readAnswer(io.LimitReader(resp.Body, 1<<20), "/v1/tx", buf[:], wire.ParseTxSubmitted)
}

// readAnswer reads a small answer from body: one that ends within buf
// and is in canonical form is taken through parse, without reflection;
// any other is decoded by encoding/json from its first byte.
func readAnswer[T any](body io.Reader, path string, buf []byte, parse func([]byte) (T, bool)) (T, error) {
	// io.ReadFull reports io.ErrUnexpectedEOF for an answer shorter than
	// buf; either way the whole answer is in buf.
	n, err := io.ReadFull(body, buf)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		if out, ok := parse(buf[:n]); ok {
			return out, nil
		}
	}
	var out T
	if err := json.NewDecoder(io.MultiReader(bytes.NewReader(buf[:n]), body)).Decode(&out); err != nil {
		var zero T
		return zero, fmt.Errorf("api client: decode %s: %w", path, err)
	}
	return out, nil
}

// decodeError drains a non-2xx response into an *APIError.
func decodeError(resp *http.Response) error {
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	ae := &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(body))}
	var envelope wire.Error
	if json.Unmarshal(body, &envelope) == nil && envelope.Message != "" {
		ae.Code, ae.Message = envelope.Code, envelope.Message
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.ParseInt(s, 10, 64); err == nil && secs > 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

// SubmitTx submits a transaction and returns its content-derived ID.
//
// Back-pressure handling: a 429 answer (rate_limited, sender_limit,
// shard_saturated, pool_overloaded) is retried up to the policy's
// attempt budget, waiting the server's Retry-After hint when present
// and a capped, jittered exponential backoff otherwise. A 409
// tx_duplicate is folded into success — the node already tracks this
// exact transaction, so the submission is effectively landed and the
// caller should poll the receipt. Transport errors are NOT retried: a
// lost response does not mean a lost submission; poll Receipt with the
// locally derivable ID (wire.TxIDOf) before resending.
func (c *Client) SubmitTx(ctx context.Context, tx wire.TxSubmit) (wire.TxSubmitted, error) {
	raw, ok := wire.AppendTxSubmit(make([]byte, 0, 512), tx)
	if !ok {
		var err error
		if raw, err = json.Marshal(tx); err != nil {
			return wire.TxSubmitted{}, fmt.Errorf("api client: encode /v1/tx: %w", err)
		}
	}
	policy := c.retry.withDefaults()
	delay := policy.Backoff
	for attempt := 1; ; attempt++ {
		out, err := c.submit(ctx, raw)
		if err == nil {
			return out, nil
		}
		var ae *APIError
		if !errors.As(err, &ae) {
			return wire.TxSubmitted{}, err
		}
		if ae.Status == http.StatusConflict && ae.Code == wire.CodeTxDuplicate {
			// The node holds (or held) this exact transaction; report the
			// locally derivable ID so the caller can poll its receipt.
			if call, cerr := tx.Call(); cerr == nil {
				return wire.TxSubmitted{ID: wire.TxIDOf(call).String(), Verdict: "duplicate"}, nil
			}
			return wire.TxSubmitted{Verdict: "duplicate"}, nil
		}
		if ae.Status != http.StatusTooManyRequests || attempt >= policy.MaxAttempts {
			return wire.TxSubmitted{}, err
		}
		wait := delay
		if ae.RetryAfter > 0 {
			wait = ae.RetryAfter
		}
		if wait > policy.MaxBackoff {
			wait = policy.MaxBackoff
		}
		// Full jitter desynchronizes a shed fleet: every client backing
		// off the same hint would otherwise return as one thundering herd.
		wait = time.Duration(rand.Int64N(int64(wait)) + 1)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return wire.TxSubmitted{}, ctx.Err()
		}
		delay *= 2
	}
}

// SubmitCall submits a contract call (SubmitTx over SubmitOf).
func (c *Client) SubmitCall(ctx context.Context, call contract.Call) (wire.TxSubmitted, error) {
	tx, err := wire.SubmitOf(call)
	if err != nil {
		return wire.TxSubmitted{}, fmt.Errorf("api client: %w", err)
	}
	return c.SubmitTx(ctx, tx)
}

// Receipt fetches a transaction's current receipt: status pending until
// the containing block is durable, committed/aborted after. Unknown IDs
// answer an *APIError with code wire.CodeTxNotFound. WithMinHeight
// bounds how stale the serving node may be. The answer is read by
// readAnswer with wire.ParseTxReceipt, within 64 KiB.
func (c *Client) Receipt(ctx context.Context, id string, opts ...ReadOpt) (wire.TxReceipt, error) {
	path := "/v1/tx/" + id + renderOpts(opts)
	resp, err := c.get(ctx, path)
	if err != nil {
		return wire.TxReceipt{}, err
	}
	defer resp.Body.Close()
	var buf [512]byte
	return readAnswer(io.LimitReader(resp.Body, 1<<16), path, buf[:], wire.ParseTxReceipt)
}

// WaitReceipt polls Receipt until the transaction reaches a final
// (durable) status, the context ends, or the ID becomes unknown. poll
// <= 0 selects 10ms.
func (c *Client) WaitReceipt(ctx context.Context, id string, poll time.Duration) (wire.TxReceipt, error) {
	if poll <= 0 {
		poll = 10 * time.Millisecond
	}
	for {
		rec, err := c.Receipt(ctx, id)
		if err != nil {
			return wire.TxReceipt{}, err
		}
		if rec.Status != wire.StatusPending {
			return rec, nil
		}
		select {
		case <-ctx.Done():
			return rec, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Head fetches the node's durable chain tip. WithMinHeight bounds how
// stale the serving node may be.
func (c *Client) Head(ctx context.Context, opts ...ReadOpt) (wire.BlockInfo, error) {
	var out wire.BlockInfo
	err := c.getJSON(ctx, "/v1/head"+renderOpts(opts), 1<<16, &out)
	return out, err
}

// Status fetches node status including API metrics.
func (c *Client) Status(ctx context.Context) (wire.Status, error) {
	var out wire.Status
	err := c.getJSON(ctx, "/v1/status", 1<<20, &out)
	return out, err
}

// Mine asks the node to mine one block of at most blockSize transactions
// (0 = node default). Mining is not idempotent and never retried.
func (c *Client) Mine(ctx context.Context, blockSize int) (wire.BlockInfo, error) {
	var out wire.BlockInfo
	err := c.postJSON(ctx, "/v1/mine", false, wire.Mine{BlockSize: blockSize}, &out)
	return out, err
}

// ReadOpt tunes one bounded-staleness read.
type ReadOpt func(*readOpts)

type readOpts struct {
	minHeight uint64
	haveMin   bool
	atHeight  uint64
	haveAt    bool
}

// WithMinHeight requires the serving node's durable height to be at
// least h: a node behind it answers 412 replica_behind (surfaced as an
// *APIError with code wire.CodeReplicaBehind) instead of a stale read.
func WithMinHeight(h uint64) ReadOpt {
	return func(o *readOpts) { o.minHeight, o.haveMin = h, true }
}

// AtHeight asks for the state at an exact historical block height.
// Heights the node has not reached answer 412 replica_behind; heights
// below its history window answer 404 height_unavailable.
func AtHeight(h uint64) ReadOpt {
	return func(o *readOpts) { o.atHeight, o.haveAt = h, true }
}

// renderOpts folds a read's options into their query-string form.
func renderOpts(opts []ReadOpt) string {
	var o readOpts
	for _, opt := range opts {
		opt(&o)
	}
	return o.query()
}

// query renders the options as a query string ("" when default).
func (o readOpts) query() string {
	q := url.Values{}
	if o.haveMin {
		q.Set("min_height", strconv.FormatUint(o.minHeight, 10))
	}
	if o.haveAt {
		q.Set("height", strconv.FormatUint(o.atHeight, 10))
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}

// Balance reads an account balance at the node's current block boundary
// — or, with AtHeight, at a historical one; WithMinHeight bounds how
// stale the serving node may be.
func (c *Client) Balance(ctx context.Context, addr types.Address, opts ...ReadOpt) (types.Amount, error) {
	b, err := c.BalanceInfo(ctx, addr, opts...)
	return types.Amount(b.Balance), err
}

// BalanceInfo is Balance returning the full wire DTO, including the
// height the read was served at.
func (c *Client) BalanceInfo(ctx context.Context, addr types.Address, opts ...ReadOpt) (wire.Balance, error) {
	var out wire.Balance
	if err := c.getJSON(ctx, "/v1/state/"+addr.String()+renderOpts(opts), 1<<16, &out); err != nil {
		return wire.Balance{}, err
	}
	return out, nil
}

// Block fetches the node's durable block at height. It only parses the
// block (chain.ReadBlock): the caller verifies it, as the import pipeline
// behind cluster.Peer does with validator.Precheck. Missing heights answer
// an *APIError with code wire.CodeBlockNotFound.
func (c *Client) Block(ctx context.Context, height uint64) (chain.Block, error) {
	resp, err := c.do(ctx, true, func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/blocks/%d", c.base, height), nil)
	})
	if err != nil {
		return chain.Block{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return chain.Block{}, decodeError(resp)
	}
	b, err := chain.ReadBlock(io.LimitReader(resp.Body, chain.MaxWireBlock))
	if err != nil {
		return chain.Block{}, fmt.Errorf("api client: block %d: %w", height, err)
	}
	return b, nil
}

// Blocks fetches up to count consecutive durable blocks starting at
// height from — the range endpoint (GET /v1/blocks?from=&count=) that
// amortizes per-block round-trips during catch-up sync. The server
// streams self-delimiting flat-codec frames and may answer short (it
// serves the durable prefix it has; counts above the server's cap are
// clamped); the returned slice is in height order, never empty on
// success. Like Block it only parses; the caller verifies.
func (c *Client) Blocks(ctx context.Context, from uint64, count int) ([]chain.Block, error) {
	if count <= 0 {
		return nil, fmt.Errorf("api client: blocks: count %d", count)
	}
	resp, err := c.do(ctx, true, func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/v1/blocks?from=%d&count=%d", c.base, from, count), nil)
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	br := bufio.NewReader(io.LimitReader(resp.Body, int64(count)*chain.MaxWireBlock))
	var blocks []chain.Block
	for len(blocks) < count {
		if _, err := br.Peek(1); err == io.EOF {
			break
		}
		b, err := chain.ReadBlock(br)
		if err != nil {
			return nil, fmt.Errorf("api client: blocks from %d: frame %d: %w", from, len(blocks), err)
		}
		if want := from + uint64(len(blocks)); b.Header.Number != want {
			return nil, fmt.Errorf("api client: blocks from %d: got height %d, want %d", from, b.Header.Number, want)
		}
		blocks = append(blocks, b)
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("api client: blocks from %d: empty response", from)
	}
	return blocks, nil
}

// SendBlock ships a sealed block for import. A 2xx answer — including
// the node reporting it already knew the block — is success. Never
// retried here; delivery strategies own their retries.
//
// The body is the block's encode in a pooled buffer, sent without a
// copy (blockBody).
func (c *Client) SendBlock(ctx context.Context, b chain.Block) error {
	buf := codec.GetBuffer()
	enc, err := chain.AppendBlockWire(buf.B, b)
	if err != nil {
		buf.Release()
		return fmt.Errorf("api client: send block %d: %w", b.Header.Number, err)
	}
	buf.B = enc
	body := &blockBody{buf: buf}
	body.refs.Store(1) // SendBlock's own, dropped once Do has returned
	defer body.unref()
	resp, err := c.do(ctx, false, func(ctx context.Context) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/blocks", nil)
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		req.ContentLength = int64(len(enc))
		req.Body = body.open()
		req.GetBody = func() (io.ReadCloser, error) { return body.open(), nil }
		return req, nil
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	return nil
}

// blockBody shares one pooled block encode among the request bodies the
// transport reads it through. A transport may close a body after Do has
// returned (it can still be writing when the server answers early), and
// may ask for a fresh body (GetBody) to resend on a new connection while
// Do runs; so the buffer goes back to the pool only when Do has
// returned and every body opened has been closed.
type blockBody struct {
	buf  *codec.Buffer
	refs atomic.Int32
}

// open returns a new body over the whole encode.
func (b *blockBody) open() io.ReadCloser {
	b.refs.Add(1)
	r := &blockReader{owner: b}
	r.Reset(b.buf.B)
	return r
}

// unref drops one holder, releasing the buffer with the last.
func (b *blockBody) unref() {
	if b.refs.Add(-1) == 0 {
		b.buf.Release()
	}
}

// blockReader is one request body over a blockBody.
type blockReader struct {
	bytes.Reader
	owner  *blockBody
	closed atomic.Bool
}

// Close drops the body's hold on the buffer; only the first call counts.
func (r *blockReader) Close() error {
	if r.closed.CompareAndSwap(false, true) {
		r.owner.unref()
	}
	return nil
}

// Snapshot fetches the node's state checkpoint (snapshot fast-sync).
func (c *Client) Snapshot(ctx context.Context) (persist.Snapshot, error) {
	resp, err := c.do(ctx, true, func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/snapshot", nil)
	})
	if err != nil {
		return persist.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return persist.Snapshot{}, decodeError(resp)
	}
	s, err := persist.DecodeSnapshot(io.LimitReader(resp.Body, persist.MaxSnapshotWire))
	if err != nil {
		return persist.Snapshot{}, fmt.Errorf("api client: snapshot: %w", err)
	}
	return s, nil
}

// Stream is a live event subscription (GET /v1/subscribe).
type Stream struct {
	resp    *http.Response
	scanner *bufio.Scanner
	ctx     context.Context
	cancel  context.CancelFunc
	// lastID is the newest SSE id (event sequence number) seen, and
	// haveID whether any was. Feed it back via WithLastEventID on
	// reconnect for gap-free resumption.
	lastID uint64
	haveID bool
}

// ErrStreamDropped reports that the server disconnected this subscriber
// for falling behind; resubscribe with WithLastEventID(LastEventID())
// to replay the gap.
var ErrStreamDropped = errors.New("api client: subscription dropped by server (fell behind)")

// ErrStreamReset reports that the server could not replay the gap after
// the Last-Event-ID this subscription presented (the gap outran the
// server's replay ring, or the id belongs to another node): events may
// be missing — resync through Blocks before trusting the stream. The
// stream stays usable; subsequent Next calls deliver what the server
// still has.
var ErrStreamReset = errors.New("api client: event gap not replayable; resync via blocks")

// SubscribeOpt tunes a subscription.
type SubscribeOpt func(*subscribeOpts)

type subscribeOpts struct {
	lastEventID uint64
	haveLastID  bool
}

// WithLastEventID resumes after the given event sequence number: the
// server replays every retained event after it before going live, or
// signals ErrStreamReset when it cannot.
func WithLastEventID(seq uint64) SubscribeOpt {
	return func(o *subscribeOpts) { o.lastEventID, o.haveLastID = seq, true }
}

// Subscribe opens the durable-block event stream. The stream lives until
// Close, the context ends, or the server drops a lagging subscriber
// (Next returns ErrStreamDropped).
func (c *Client) Subscribe(ctx context.Context, opts ...SubscribeOpt) (*Stream, error) {
	var o subscribeOpts
	for _, opt := range opts {
		opt(&o)
	}
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/subscribe", nil)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("api client: subscribe: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if o.haveLastID {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(o.lastEventID, 10))
	}
	// The stream outlives any request deadline: use a client without the
	// SDK's overall timeout (http.Client.Timeout covers reading the
	// response body, which would cut the subscription off mid-stream).
	// Lifetime control is the context's job.
	stream := *c.hc
	stream.Timeout = 0
	resp, err := stream.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("api client: subscribe: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		defer cancel()
		return nil, decodeError(resp)
	}
	return newStream(resp, ctx, cancel), nil
}

// newStream reads the events of an open subscription's body.
func newStream(resp *http.Response, ctx context.Context, cancel context.CancelFunc) *Stream {
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	return &Stream{resp: resp, scanner: sc, ctx: ctx, cancel: cancel}
}

// LastEventID reports the newest event sequence number this stream has
// delivered (and whether any was): what to hand WithLastEventID on
// reconnect.
func (s *Stream) LastEventID() (uint64, bool) { return s.lastID, s.haveID }

// Next blocks for the next event. It returns ErrStreamDropped when the
// server disconnected a lagging subscriber, ErrStreamReset when a
// requested replay gap was not fully coverable (stream stays usable),
// io.EOF on a clean close, and the context's error once Close or the
// context ended the stream.
//
// Lines are read in place from the scanner's buffer. An event in the
// form the server writes is decoded without reflection
// (wire.ParseEvent); any other goes to encoding/json.
func (s *Stream) Next() (wire.Event, error) {
	// Only these two event names change what a data line means.
	var dropped, reset bool
	for s.scanner.Scan() {
		line := s.scanner.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte(":")):
			// Comment / keep-alive.
		case bytes.HasPrefix(line, []byte("id: ")):
			if id, err := strconv.ParseUint(string(line[len("id: "):]), 10, 64); err == nil {
				s.lastID, s.haveID = id, true
			}
		case bytes.HasPrefix(line, []byte("event: ")):
			name := line[len("event: "):]
			dropped, reset = string(name) == "dropped", string(name) == "reset"
		case bytes.HasPrefix(line, []byte("data: ")):
			switch {
			case dropped:
				return wire.Event{}, ErrStreamDropped
			case reset:
				return wire.Event{}, ErrStreamReset
			}
			data := line[len("data: "):]
			ev, ok := wire.ParseEvent(data)
			if !ok {
				// Its own variable: Unmarshal moves it to the heap.
				var slow wire.Event
				if err := json.Unmarshal(data, &slow); err != nil {
					return wire.Event{}, fmt.Errorf("api client: event decode: %w", err)
				}
				ev = slow
			}
			s.lastID, s.haveID = ev.Seq, true
			return ev, nil
		}
	}
	if err := s.scanner.Err(); err != nil {
		// Close cancels before it closes the body, so a read the close
		// broke sees the cancellation here.
		if ctxErr := s.ctx.Err(); ctxErr != nil {
			return wire.Event{}, ctxErr
		}
		return wire.Event{}, err
	}
	return wire.Event{}, io.EOF
}

// Close terminates the subscription.
func (s *Stream) Close() {
	s.cancel()
	_ = s.resp.Body.Close()
}
