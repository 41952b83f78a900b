package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"contractstm/internal/api/wire"
	"contractstm/internal/chain"
	"contractstm/internal/sched"
	"contractstm/internal/types"
)

// zeroBlock is a minimal sealed block (encoding succeeds; the test
// server rejects it anyway).
func zeroBlock() chain.Block {
	b, _ := chain.Seal(chain.GenesisHeader(types.HashString("g")), nil, nil,
		sched.Schedule{}, nil, types.HashString("s"))
	return b
}

// flaky serves failures until `failures` requests have been seen, then
// answers ok with the given JSON body.
func flaky(t *testing.T, failures int, status int, okBody any) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if int(hits.Add(1)) <= failures {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			_ = json.NewEncoder(w).Encode(&wire.Error{Code: wire.CodeInternal, Message: "transient"})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(okBody)
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

// TestRetryOn5xx: idempotent requests survive transient server errors.
func TestRetryOn5xx(t *testing.T) {
	srv, hits := flaky(t, 2, http.StatusInternalServerError, wire.BlockInfo{Number: 7})
	c := New(srv.URL, WithRetry(RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond}))
	head, err := c.Head(context.Background())
	if err != nil {
		t.Fatalf("Head: %v", err)
	}
	if head.Number != 7 || hits.Load() != 3 {
		t.Fatalf("head=%+v hits=%d", head, hits.Load())
	}
}

// TestRetryExhaustion: the last failure surfaces as a typed APIError.
func TestRetryExhaustion(t *testing.T) {
	srv, hits := flaky(t, 99, http.StatusInternalServerError, nil)
	c := New(srv.URL, WithRetry(RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond}))
	_, err := c.Head(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusInternalServerError || ae.Code != wire.CodeInternal {
		t.Fatalf("err = %v", err)
	}
	if hits.Load() != 2 {
		t.Fatalf("hits = %d, want 2", hits.Load())
	}
}

// TestNoRetryOn4xx: a considered refusal is final — resending identical
// bytes cannot change the server's mind.
func TestNoRetryOn4xx(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		_ = json.NewEncoder(w).Encode(&wire.Error{Code: wire.CodeTxNotFound, Message: "nope"})
	}))
	t.Cleanup(srv.Close)
	c := New(srv.URL, WithRetry(RetryPolicy{MaxAttempts: 5, Backoff: time.Millisecond}))
	_, err := c.Receipt(context.Background(), "0xabcd")
	if !IsCode(err, wire.CodeTxNotFound) {
		t.Fatalf("err = %v, want tx_not_found", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("4xx retried: hits = %d", hits.Load())
	}
}

// TestSendBlockNeverRetried: block delivery retries belong to the
// caller's strategy (cluster.Broadcaster), not the transport.
func TestSendBlockNeverRetried(t *testing.T) {
	srv, hits := flaky(t, 99, http.StatusInternalServerError, nil)
	c := New(srv.URL, WithRetry(RetryPolicy{MaxAttempts: 5, Backoff: time.Millisecond}))
	err := c.SendBlock(context.Background(), zeroBlock())
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("SendBlock retried: hits = %d", hits.Load())
	}
}

// TestContextCancelsRetry: cancellation wins over the backoff schedule.
func TestContextCancelsRetry(t *testing.T) {
	srv, _ := flaky(t, 99, http.StatusInternalServerError, nil)
	c := New(srv.URL, WithRetry(RetryPolicy{MaxAttempts: 50, Backoff: 50 * time.Millisecond}))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Head(ctx); err == nil {
		t.Fatal("cancelled request succeeded")
	}
	if time.Since(start) > time.Second {
		t.Fatal("retry loop ignored cancellation")
	}
}

// TestErrorEnvelopeFallback: a non-JSON error body still yields a usable
// APIError (pre-v1 peers, proxies).
func TestErrorEnvelopeFallback(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "plain text failure", http.StatusBadGateway)
	}))
	t.Cleanup(srv.Close)
	c := New(srv.URL, WithRetry(NoRetry))
	_, err := c.Status(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadGateway || ae.Code != "" {
		t.Fatalf("err = %v", err)
	}
	if ae.Message != "plain text failure" {
		t.Fatalf("message = %q", ae.Message)
	}
}
