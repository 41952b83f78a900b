package api

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"contractstm/internal/api/wire"
	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/gas"
	"contractstm/internal/types"
)

// submitBackend admits every submit under its content-derived ID, except
// function "dup" (a duplicate) and "shed" (shed by the rate limit).
type submitBackend struct{ stampOnly }

func (submitBackend) SubmitTx(c contract.Call, _ uint8) SubmitResult {
	res := SubmitResult{ID: wire.TxIDOf(c)}
	switch c.Function {
	case "dup":
		res.Verdict, res.Duplicate = wire.CodeTxDuplicate, true
	case "shed":
		res.Verdict, res.RetryAfter = wire.CodeRateLimited, 1500*time.Millisecond
	default:
		res.Verdict, res.Admitted = "admitted", true
	}
	return res
}

func (submitBackend) PoolLen() int { return 3 }

func (submitBackend) MineOne(int) (chain.Block, error) { return chain.Block{}, nil }

func (submitBackend) ImportBlock(chain.Block) (bool, error) { return false, nil }

// jsonTx is POST /v1/tx as it was served before the canonical fast
// path, kept as the oracle the parity test compares against: the body
// through decodeBody (encoding/json), the answer through writeJSON.
func (s *Server) jsonTx(w http.ResponseWriter, r *http.Request) {
	var tx wire.TxSubmit
	if !s.decodeBody(w, r, &tx) {
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
		s.writeJSON(w, http.StatusAccepted, wire.TxSubmitted{
			ID: res.ID.String(), PoolLen: s.cfg.Backend.PoolLen(), Verdict: res.Verdict,
		})
	case res.Duplicate:
		s.fail(w, http.StatusConflict, wire.CodeTxDuplicate,
			fmt.Errorf("transaction %s already submitted; existing receipt stands", res.ID.Short()))
	default:
		w.Header().Set("Retry-After", strconv.FormatInt(retryAfterSeconds(res.RetryAfter), 10))
		s.fail(w, http.StatusTooManyRequests, res.Verdict,
			fmt.Errorf("transaction %s shed by admission control (%s)", res.ID.Short(), res.Verdict))
	}
}

// canonicalSubmit is a transfer in canonical form; for n > 0 its
// function name is padded so the body is exactly n bytes long.
func canonicalSubmit(t *testing.T, n int) []byte {
	t.Helper()
	sub := wire.TxSubmit{
		Sender: types.AddressFromUint64(1).String(), Contract: types.AddressFromUint64(2).String(),
		Function: "transfer", Args: []wire.Arg{{Type: "address", Value: types.AddressFromUint64(3).String()},
			{Type: "uint64", Value: "5"}}, GasLimit: 100_000,
	}
	raw, _ := wire.AppendTxSubmit(nil, sub)
	if n <= 0 {
		return raw
	}
	sub.Function += strings.Repeat("x", n-len(raw))
	raw, _ = wire.AppendTxSubmit(nil, sub)
	if len(raw) != n {
		t.Fatalf("canonical submit is %d bytes, want %d", len(raw), n)
	}
	return raw
}

// TestSubmitParity: every POST /v1/tx body — canonical, non-canonical,
// malformed, oversized, trailing garbage, in every content type — gets
// from the server exactly the status, headers and body the encoding/json
// handler (jsonTx: decodeBody and writeJSON under http.TimeoutHandler)
// gives it.
func TestSubmitParity(t *testing.T) {
	cfg := Config{Backend: submitBackend{}, Receipts: NewReceiptStore(0), MaxGasLimit: 500_000}
	srv := httptest.NewServer(NewServer(cfg))
	defer srv.Close()
	ref := NewServer(cfg)
	mux := http.NewServeMux()
	mux.Handle("POST /v1/tx", ref.measure("POST /v1/tx",
		http.TimeoutHandler(http.HandlerFunc(ref.jsonTx), DefaultTimeout, "request timed out")))
	oracle := httptest.NewServer(mux)
	defer oracle.Close()

	body := string(canonicalSubmit(t, 0))
	edit := func(old, new string) string {
		if !strings.Contains(body, old) {
			t.Fatalf("canonical submit has no %q", old)
		}
		return strings.Replace(body, old, new, 1)
	}
	pad := func(n int) string { return strings.Repeat(" ", n) }
	sender, contractAddr := types.AddressFromUint64(1).String(), types.AddressFromUint64(2).String()
	bodies := []struct{ name, body string }{
		{"canonical", body},
		{"canonical, trailing whitespace", body + " \r\n\t"},
		{"canonical, 1023 bytes", string(canonicalSubmit(t, 1023))},
		{"canonical, 1024 bytes", string(canonicalSubmit(t, 1024))},
		{"canonical, 1025 bytes", string(canonicalSubmit(t, 1025))},
		{"value and priority", edit(`,"gasLimit":100000}`, `,"value":7,"gasLimit":100000,"priority":255}`)},
		{"empty", ""},
		{"open brace", "{"},
		{"null", "null"},
		{"leading whitespace", " " + body},
		{"keys in another order", `{"contract":"` + contractAddr + `","sender":"` + sender + `","function":"f","gasLimit":1}`},
		{"keys in another case", edit(`"sender"`, `"Sender"`)},
		{"escaped string", edit(`"transfer`, `"tr\u0061nsfer`)},
		{"non-ASCII string", edit(`"transfer`, `"трансфер`)},
		{"html characters", edit(`"transfer`, `"a<b>&c`)},
		{"value zero", edit(`,"gasLimit"`, `,"value":0,"gasLimit"`)},
		{"priority 256", edit(`"gasLimit":100000}`, `"gasLimit":100000,"priority":256}`)},
		{"uint64 overflow", edit(`"gasLimit":100000`, `"gasLimit":18446744073709551616`)},
		{"empty args", `{"sender":"` + sender + `","contract":"` + contractAddr + `","function":"f","args":[],"gasLimit":1}`},
		{"unknown field", edit(`"gasLimit"`, `"extra":1,"gasLimit"`)},
		{"object then garbage", body + "garbage"},
		{"object then object", body + body},
		{"object padded to the limit", body + pad(DefaultMaxBodyBytes-len(body))},
		{"object padded past the limit", body + pad(DefaultMaxBodyBytes+1-len(body))},
		{"padding to the limit, then object", pad(DefaultMaxBodyBytes-len(body)) + body},
		{"padding past the limit, then object", pad(DefaultMaxBodyBytes+1-len(body)) + body},
		{"garbage past the limit", strings.Repeat("x", DefaultMaxBodyBytes+1)},
		{"bad sender", edit(sender, "junk")},
		{"bad arg", edit(`"value":"5"`, `"value":"abc"`)},
		{"missing function", edit(`"function":"transfer"`, `"function":" "`)},
		{"gas over max", edit(`"gasLimit":100000`, `"gasLimit":1000000`)},
		{"duplicate", edit(`"transfer"`, `"dup"`)},
		{"shed", edit(`"transfer"`, `"shed"`)},
	}
	contentTypes := []string{"application/json", "", "application/json; charset=utf-8", "Application/JSON", "text/plain"}
	for _, b := range bodies {
		for _, ct := range contentTypes {
			t.Run(b.name+"/"+ct, func(t *testing.T) {
				gotStatus, gotHdr, gotBody := post(t, srv.URL, ct, b.body)
				wantStatus, wantHdr, wantBody := post(t, oracle.URL, ct, b.body)
				if gotStatus != wantStatus {
					t.Fatalf("status %d, oracle %d (body %q, oracle %q)", gotStatus, wantStatus, gotBody, wantBody)
				}
				sameBytes(t, "body", gotBody, wantBody)
				for _, h := range []string{"Content-Type", "Content-Length", "Retry-After", wire.HeaderChainHeight, wire.HeaderChainStaleness} {
					if gotHdr.Get(h) != wantHdr.Get(h) {
						t.Fatalf("%s %q, oracle %q", h, gotHdr.Get(h), wantHdr.Get(h))
					}
				}
			})
		}
	}
}

// post sends body to POST /v1/tx and returns the answer.
func post(t *testing.T, base, contentType, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/tx", strings.NewReader(body))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read answer: %v", err)
	}
	return resp.StatusCode, resp.Header, raw
}

// TestSubmitDeadline: a client that sends the headers and half the body
// of a request that reads one — a submit, a mine, an import — then
// stalls, gets 503 "request timed out" about when the body's read
// deadline passes — Config.Timeout, or the http.Server's tighter
// ReadTimeout — whether the stall meets a submit's canonical read or
// the encoding/json fallback. The handler returns: the server's
// goroutines go back to what they were before the connection while the
// client still holds it open. A kept-alive connection idle past the
// deadline serves the next request.
func TestSubmitDeadline(t *testing.T) {
	const deadline = 200 * time.Millisecond
	blocks, _ := renderedBlocks(rand.New(rand.NewSource(54)), 3)
	block, err := chain.AppendBlockWire(nil, blocks[2])
	if err != nil {
		t.Fatalf("marshal block: %v", err)
	}
	for _, tc := range []struct {
		name                 string
		timeout, readTimeout time.Duration
		path                 string
		body                 []byte
		ok                   int // the answer to the whole body
	}{
		{"Config.Timeout", deadline, 0, "/v1/tx", canonicalSubmit(t, 0), http.StatusAccepted},
		{"server ReadTimeout", time.Minute, deadline, "/v1/tx", canonicalSubmit(t, 0), http.StatusAccepted},
		// Half of it fills the buffer: the stall meets the fallback decoder.
		{"body past the buffer", deadline, 0, "/v1/tx", canonicalSubmit(t, 3*submitBuf), http.StatusAccepted},
		{"mine", deadline, 0, "/v1/mine", []byte(`{"blockSize":10}`), http.StatusOK},
		{"import", deadline, 0, "/v1/blocks", block, http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewUnstartedServer(NewServer(Config{
				Backend: submitBackend{}, Receipts: NewReceiptStore(0), Timeout: tc.timeout,
			}))
			srv.Config.ReadTimeout = tc.readTimeout
			srv.Start()
			defer srv.Close()
			body := tc.body
			baseline := runtime.NumGoroutine()

			// A ReadTimeout runs from when the server starts reading the
			// connection, which can be before Dial returns.
			start := time.Now()
			conn, err := net.Dial("tcp", srv.Listener.Addr().String())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: node\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
				tc.path, len(body), body[:len(body)/2])
			_ = conn.SetReadDeadline(time.Now().Add(10 * deadline))
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatalf("read answer: %v", err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			took := time.Since(start)
			if resp.StatusCode != http.StatusServiceUnavailable || string(raw) != "request timed out" {
				t.Fatalf("stalled body answered %d %q, want 503 %q", resp.StatusCode, raw, "request timed out")
			}
			if took < deadline || took > 5*deadline {
				t.Fatalf("stalled body answered after %v, want about %v", took, deadline)
			}
			for end := time.Now().Add(10 * deadline); runtime.NumGoroutine() > baseline; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(end) {
					t.Fatalf("%d goroutines %v after the answer, %d before the connection: the handler is still blocked",
						runtime.NumGoroutine(), 10*deadline, baseline)
				}
			}

			// The deadline does not outlive its request. (A ReadTimeout is
			// also the server's idle timeout, which closes the connection.)
			if tc.readTimeout > 0 {
				return
			}
			hc := &http.Client{Transport: &http.Transport{}}
			defer hc.CloseIdleConnections()
			for i := 0; i < 2; i++ {
				if i > 0 {
					time.Sleep(deadline + deadline/2)
				}
				var reused bool
				ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
					GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
				})
				req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+tc.path, bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				resp, err := hc.Do(req)
				if err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != tc.ok || reused != (i > 0) {
					t.Fatalf("request %d answered %d, connection reused %v", i, resp.StatusCode, reused)
				}
			}
		})
	}
}
