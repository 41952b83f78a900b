package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/gas"
	"contractstm/internal/sched"
	"contractstm/internal/types"
)

// transferBlock is a sealed block of n token transfers, their amounts
// offset by salt.
func transferBlock(n int, salt uint64) chain.Block {
	calls := make([]contract.Call, n)
	receipts := make([]contract.Receipt, n)
	order := make([]types.TxID, n)
	for i := range calls {
		calls[i] = contract.Call{
			Sender:   types.AddressFromUint64(uint64(1 + i%64)),
			Contract: types.AddressFromUint64(1000),
			Function: "transfer",
			Args:     []any{types.AddressFromUint64(uint64(2000 + i)), uint64(i) + salt},
			GasLimit: 100_000,
		}
		receipts[i] = contract.Receipt{Tx: types.TxID(i), GasUsed: gas.Gas(21_000)}
		order[i] = types.TxID(i)
	}
	b, _ := chain.Seal(chain.GenesisHeader(types.HashString("g")), calls, receipts,
		sched.Schedule{Order: order}, nil, types.HashString("s"))
	return b
}

// sinkTransport answers 200 to every request after reading its body,
// and keeps what it saw: the bytes, and the body it read them through.
type sinkTransport struct {
	got  []byte
	body io.ReadCloser
	// resend asks GetBody for a second body and reads that one too, as a
	// transport resending on a fresh connection does.
	resend bool
}

func (s *sinkTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s.body = req.Body
	s.got = s.got[:0]
	w := bytes.NewBuffer(s.got)
	_, _ = io.Copy(w, req.Body)
	// Twice: only a body's first Close may drop its hold on the encode.
	_ = req.Body.Close()
	_ = req.Body.Close()
	if s.resend {
		again, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		w.Reset()
		_, _ = io.Copy(w, again)
		_ = again.Close()
	}
	s.got = w.Bytes()
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: http.NoBody, Request: req}, nil
}

// TestSendBlockAllocs: SendBlock sends the block's pooled encode with
// no copy of it. Over an in-memory transport a 500-transfer block costs
// a few KB of request bookkeeping, not the encode's size, and the body
// sent is chain.AppendBlockWire's bytes, resent or not.
func TestSendBlockAllocs(t *testing.T) {
	b := transferBlock(500, 1)
	want, err := chain.AppendBlockWire(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, resend := range []bool{false, true} {
		sink := &sinkTransport{got: make([]byte, 0, 2*len(want)), resend: resend}
		c := New("http://node.invalid", WithHTTPClient(&http.Client{Transport: sink}))
		send := func() {
			if err := c.SendBlock(context.Background(), b); err != nil {
				t.Fatal(err)
			}
		}
		send()
		if !bytes.Equal(sink.got, want) {
			t.Fatalf("resend %v: sent %d bytes, want chain.AppendBlockWire's %d", resend, len(sink.got), len(want))
		}
		if refs := sink.body.(*blockReader).owner.refs.Load(); refs != 0 {
			t.Fatalf("resend %v: %d holds on the encode left after every body closed", resend, refs)
		}
		const runs = 50
		// Under the race detector sync.Pool drops a quarter of what is
		// put back, so a quarter of the sends grow a new buffer: only the
		// count is held there, to its own ceiling.
		maxAllocs := 20.0
		if raceDetector {
			maxAllocs = 40
		} else {
			// The least of three tries: a GC that empties the pool
			// mid-loop costs one fresh encode buffer, not a copy per send.
			least := uint64(math.MaxUint64)
			for try := 0; try < 3; try++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < runs; i++ {
					send()
				}
				runtime.ReadMemStats(&after)
				least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
			}
			if least > 8<<10 {
				t.Fatalf("resend %v: SendBlock allocates %d B per %d-byte block, want at most 8 KiB", resend, least, len(want))
			}
		}
		if allocs := testing.AllocsPerRun(runs, send); allocs > maxAllocs {
			t.Fatalf("resend %v: SendBlock allocates %.0f times per block, want at most %.0f", resend, allocs, maxAllocs)
		}
	}
}

// lateReader answers each request at once — 200, then 400 with an error
// envelope, in turn — and reads its body only when the next request
// arrives (or at finish), then closes it: what a transport does when the
// server answers before it has read the body. Request k must carry
// want[k%2].
type lateReader struct {
	want [2][]byte
	sent int
	held io.ReadCloser // request sent-1's body, unread
	err  error
}

func (l *lateReader) RoundTrip(req *http.Request) (*http.Response, error) {
	l.finish()
	l.held = req.Body
	status, answer := http.StatusOK, ""
	if l.sent%2 == 1 {
		status, answer = http.StatusBadRequest, `{"code":"block_rejected","error":"no"}`
	}
	l.sent++
	return &http.Response{StatusCode: status, Header: http.Header{"Content-Type": {"application/json"}},
		Body: io.NopCloser(strings.NewReader(answer)), Request: req}, nil
}

// finish reads and closes the held body, keeping the first mismatch.
func (l *lateReader) finish() {
	if l.held == nil {
		return
	}
	k := l.sent - 1
	got, err := io.ReadAll(l.held)
	_ = l.held.Close()
	l.held = nil
	if err == nil && !bytes.Equal(got, l.want[k%2]) {
		err = fmt.Errorf("request %d: the body read after the answer is not the block sent", k)
	}
	if l.err == nil {
		l.err = err
	}
}

// TestSendBlockEarlyAnswer: a body the transport reads after Do has
// returned is still the block's encode. Each body is read only after
// the next send, which encodes the other of two blocks, has taken a
// buffer from the pool: one put back when SendBlock returned would
// hold that encode by then.
func TestSendBlockEarlyAnswer(t *testing.T) {
	blocks := []chain.Block{transferBlock(500, 1), transferBlock(500, 1<<40)}
	late := &lateReader{}
	for i, b := range blocks {
		var err error
		if late.want[i], err = chain.AppendBlockWire(nil, b); err != nil {
			t.Fatal(err)
		}
	}
	c := New("http://node.invalid", WithHTTPClient(&http.Client{Transport: late}))
	for i := 0; i < 20; i++ {
		err := c.SendBlock(context.Background(), blocks[i%2])
		var ae *APIError
		if (i%2 == 0 && err != nil) || (i%2 == 1 && !(errors.As(err, &ae) && ae.Status == http.StatusBadRequest)) {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	late.finish()
	if late.err != nil {
		t.Fatal(late.err)
	}
}
