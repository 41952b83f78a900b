package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"contractstm/internal/api/wire"
	"contractstm/internal/types"
)

// submitTx builds a well-formed submission the client can derive a
// local TxID from.
func submitTx(t *testing.T) wire.TxSubmit {
	t.Helper()
	toArg, err := wire.EncodeArg(types.AddressFromUint64(0xB0B))
	if err != nil {
		t.Fatalf("encode arg: %v", err)
	}
	amtArg, _ := wire.EncodeArg(uint64(5))
	return wire.TxSubmit{
		Sender:   types.AddressFromUint64(0xA11CE).String(),
		Contract: types.AddressFromUint64(0x70C3).String(),
		Function: "transfer",
		Args:     []wire.Arg{toArg, amtArg},
		GasLimit: 100_000,
	}
}

// sheddingServer answers 429 (with an optional Retry-After hint) for
// the first `sheds` submissions, then admits.
func sheddingServer(t *testing.T, sheds int, retryAfter string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if int(hits.Add(1)) <= sheds {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(&wire.Error{Code: "rate_limited", Message: "shed"})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(wire.TxSubmitted{ID: "ok", PoolLen: 1, Verdict: "admitted"})
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

// TestSubmitRetriesThroughFlood: a flooded server sheds with 429 and
// the SDK keeps backing off until the submission is eventually
// admitted.
func TestSubmitRetriesThroughFlood(t *testing.T) {
	srv, hits := sheddingServer(t, 3, "")
	c := New(srv.URL, WithRetry(RetryPolicy{MaxAttempts: 5, Backoff: time.Millisecond}))
	out, err := c.SubmitTx(context.Background(), submitTx(t))
	if err != nil {
		t.Fatalf("SubmitTx: %v", err)
	}
	if out.Verdict != "admitted" || hits.Load() != 4 {
		t.Fatalf("out=%+v hits=%d", out, hits.Load())
	}
}

// TestSubmitRetryAfterCappedByMaxBackoff: the server's Retry-After hint
// steers the wait but never past the client's cap — a 30-second hint
// must not stall a client configured to give up faster.
func TestSubmitRetryAfterCappedByMaxBackoff(t *testing.T) {
	srv, _ := sheddingServer(t, 1, "30")
	c := New(srv.URL, WithRetry(RetryPolicy{
		MaxAttempts: 2, Backoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond,
	}))
	start := time.Now()
	out, err := c.SubmitTx(context.Background(), submitTx(t))
	if err != nil {
		t.Fatalf("SubmitTx: %v", err)
	}
	if out.Verdict != "admitted" {
		t.Fatalf("out = %+v", out)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("waited %v — Retry-After hint not capped by MaxBackoff", elapsed)
	}
}

// TestSubmitRetryAfterParsed: the typed error surfaces the hint so
// callers running their own retry loops can honor it too.
func TestSubmitRetryAfterParsed(t *testing.T) {
	srv, _ := sheddingServer(t, 99, strconv.Itoa(7))
	c := New(srv.URL, WithRetry(NoRetry))
	_, err := c.SubmitTx(context.Background(), submitTx(t))
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if ae.Status != http.StatusTooManyRequests || ae.RetryAfter != 7*time.Second {
		t.Fatalf("APIError = %+v", ae)
	}
}

// TestSubmitExhaustsRetryBudget: a persistent flood eventually
// surfaces the 429 instead of retrying forever.
func TestSubmitExhaustsRetryBudget(t *testing.T) {
	srv, hits := sheddingServer(t, 99, "")
	c := New(srv.URL, WithRetry(RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond}))
	_, err := c.SubmitTx(context.Background(), submitTx(t))
	if !IsCode(err, "rate_limited") {
		t.Fatalf("err = %v, want rate_limited APIError", err)
	}
	if hits.Load() != 3 {
		t.Fatalf("hits = %d, want the full retry budget", hits.Load())
	}
}

// TestSubmitDuplicateFoldsToSuccess: 409 tx_duplicate is an
// idempotent success — the SDK returns the locally derived ID so the
// caller can poll the existing receipt.
func TestSubmitDuplicateFoldsToSuccess(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		_ = json.NewEncoder(w).Encode(&wire.Error{Code: wire.CodeTxDuplicate, Message: "already have it"})
	}))
	t.Cleanup(srv.Close)

	tx := submitTx(t)
	call, err := tx.Call()
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	c := New(srv.URL, WithRetry(RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond}))
	out, err := c.SubmitTx(context.Background(), tx)
	if err != nil {
		t.Fatalf("SubmitTx: %v", err)
	}
	if out.Verdict != "duplicate" || out.ID != wire.TxIDOf(call).String() {
		t.Fatalf("out = %+v, want duplicate with the derived ID", out)
	}
	if hits.Load() != 1 {
		t.Fatalf("hits = %d — duplicates must not be retried", hits.Load())
	}
}

// TestSubmitBytesMatchEncodingJSON: SubmitTx sends json.Marshal's bytes,
// whether the canonical writer takes the submit or refuses a string and
// falls back, and reads every 202 answer as encoding/json reads it —
// canonical, other key order, an unknown field, longer than the read
// buffer, trailing bytes after the value.
func TestSubmitBytesMatchEncodingJSON(t *testing.T) {
	answers := []string{
		`{"id":"0xab","poolLen":2,"verdict":"admitted"}` + "\n",
		`{"verdict":"replaced","poolLen":2,"id":"0xab"}`,
		`{"id":"0xab","poolLen":-1,"verdict":"admitted","extra":[1,2]}`,
		`{"id":"0x` + strings.Repeat("ab", 200) + `","poolLen":2,"verdict":"admitted"}`,
		`{"id":"0xab","poolLen":2} trailing`,
	}
	for i, answer := range answers {
		var sent []byte
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sent, _ = io.ReadAll(r.Body)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			_, _ = io.WriteString(w, answer)
		}))
		tx := submitTx(t)
		if i%2 == 1 {
			tx.Function = "a<b>&é" // the canonical writer refuses it
		}
		out, err := New(srv.URL).SubmitTx(context.Background(), tx)
		srv.Close()
		if err != nil {
			t.Fatalf("answer %q: %v", answer, err)
		}
		if want, _ := json.Marshal(tx); !bytes.Equal(sent, want) {
			t.Fatalf("sent %s, encoding/json %s", sent, want)
		}
		var want wire.TxSubmitted
		if err := json.NewDecoder(strings.NewReader(answer)).Decode(&want); err != nil {
			t.Fatalf("decode %q: %v", answer, err)
		}
		if out != want {
			t.Fatalf("answer %q read as %+v, encoding/json %+v", answer, out, want)
		}
	}
}
