package api

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"contractstm/internal/api/client"
	"contractstm/internal/api/wire"
	"contractstm/internal/chain"
	"contractstm/internal/engine"
	"contractstm/internal/miner"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

// TestPublishAllocCeiling fails when fanning one block event out to 256
// subscribers — the relay hub's per-event cost — starts to allocate more.
// The event describes the representative block (see
// workload.HotPathParams).
func TestPublishAllocCeiling(t *testing.T) {
	wl, err := workload.Generate(workload.HotPathParams)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	res, err := miner.Mine(engine.MustNew(engine.KindOCC), runtime.NewSimRunner(), wl.World,
		chain.GenesisHeader(types.HashString("g")), wl.Calls, engine.Options{Workers: 3})
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	rec := wire.RecordOf(res.Block, res.TxIDs)

	broker := NewBroker()
	subs := make([]*Subscription, 256)
	for i := range subs {
		subs[i] = broker.Subscribe(1)
		defer subs[i].Close()
	}
	allocs := testing.AllocsPerRun(50, func() {
		broker.Publish(rec)
		for _, s := range subs {
			<-s.C
		}
	})
	t.Logf("%.0f allocs per event, ceiling 16", allocs)
	if allocs > 16 {
		t.Errorf("Publish to %d subscribers allocates %.0f times per event, ceiling 16", len(subs), allocs)
	}
}

// TestSubmitAllocCeiling fails when a canonical submit starts to allocate
// more: once through the server (POST /v1/tx through Server.ServeHTTP,
// on a writer that keeps nothing), and once through the SDK (SubmitTx's
// encode, request and answer decode, over a transport that answers
// without a network).
func TestSubmitAllocCeiling(t *testing.T) {
	body := canonicalSubmit(t, 0)
	ceiling := func(name string, allocs float64, plain, race int) {
		t.Helper()
		limit := plain
		if raceDetector {
			limit = race
		}
		t.Logf("%s: %.0f allocs per submit, ceiling %d", name, allocs, limit)
		if allocs > float64(limit) {
			t.Errorf("%s allocates %.0f times per submit, ceiling %d", name, allocs, limit)
		}
	}

	srv := NewServer(Config{Backend: submitBackend{}, Receipts: NewReceiptStore(0)})
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/tx", nil)
	req.Header.Set("Content-Type", "application/json")
	req.Body = io.NopCloser(rd)
	w := &nullWriter{h: make(http.Header)}
	ceiling("server", testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		w.code = 0
		srv.ServeHTTP(w, req)
		if w.code != http.StatusAccepted {
			t.Fatalf("submit answered %d", w.code)
		}
	}), 15, 16)

	answer, _ := wire.AppendTxSubmitted(nil, wire.TxSubmitted{ID: types.HashString("tx").String(), PoolLen: 3, Verdict: "admitted"})
	sdk := client.New("http://node", client.WithHTTPClient(&http.Client{Transport: &cannedTransport{answer: answer}}))
	sub, ok := wire.ParseTxSubmit(body)
	if !ok {
		t.Fatal("canonical submit refused")
	}
	ctx := context.Background()
	ceiling("sdk", testing.AllocsPerRun(200, func() {
		if _, err := sdk.SubmitTx(ctx, sub); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}), 21, 22)
}

// nullWriter is a ResponseWriter that keeps only the status; like a
// connection, it takes a read deadline.
type nullWriter struct {
	h    http.Header
	code int
}

func (w *nullWriter) Header() http.Header             { return w.h }
func (w *nullWriter) Write(b []byte) (int, error)     { return len(b), nil }
func (w *nullWriter) WriteHeader(code int)            { w.code = code }
func (w *nullWriter) SetReadDeadline(time.Time) error { return nil }

// cannedTransport answers every request 202 with one canned body.
type cannedTransport struct {
	answer []byte
	rd     bytes.Reader
}

func (c *cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if _, err := io.Copy(io.Discard, req.Body); err != nil {
		return nil, err
	}
	c.rd.Reset(c.answer)
	return &http.Response{StatusCode: http.StatusAccepted, Header: http.Header{},
		Body: io.NopCloser(&c.rd), ContentLength: int64(len(c.answer)), Request: req}, nil
}
