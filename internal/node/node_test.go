package node

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"contractstm/internal/api/wire"
	"contractstm/internal/contract"
	"contractstm/internal/contracts"
	"contractstm/internal/gas"
	"contractstm/internal/runtime"
	"contractstm/internal/txpool"
	"contractstm/internal/types"
)

var (
	tokenAddr = types.AddressFromUint64(0x70C3)
	issuer    = types.AddressFromUint64(0x15EE)
)

// newTokenWorld builds a world with a deployed token and funded holders.
// Both miner and validator nodes must start from identical worlds, so the
// construction is deterministic.
func newTokenWorld(t *testing.T, holders int) (*contract.World, []types.Address) {
	t.Helper()
	w, err := contract.NewWorld(gas.DefaultSchedule())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	token, err := contracts.NewToken(w, tokenAddr, issuer, 1_000_000)
	if err != nil {
		t.Fatalf("NewToken: %v", err)
	}
	addrs := make([]types.Address, holders)
	for i := range addrs {
		addrs[i] = types.AddressFromUint64(uint64(0x4000 + i))
		if err := token.SeedBalance(w, addrs[i], 1000); err != nil {
			t.Fatalf("SeedBalance: %v", err)
		}
	}
	return w, addrs
}

func newTestNode(t *testing.T, w *contract.World) *Node {
	t.Helper()
	n, err := New(Config{World: w, Workers: 3, Runner: runtime.NewSimRunner()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

func TestNodeMineDirectly(t *testing.T) {
	w, holders := newTokenWorld(t, 8)
	n := newTestNode(t, w)
	for i, from := range holders {
		n.Submit(contract.Call{
			Sender: from, Contract: tokenAddr, Function: "transfer",
			Args: []any{holders[(i+1)%len(holders)], uint64(10)}, GasLimit: 100_000,
		})
	}
	block, err := n.MineOne(100)
	if err != nil {
		t.Fatalf("MineOne: %v", err)
	}
	if len(block.Calls) != 8 || n.Height() != 1 || n.PoolLen() != 0 {
		t.Fatalf("block=%d height=%d pool=%d", len(block.Calls), n.Height(), n.PoolLen())
	}
	if _, err := n.MineOne(100); err == nil {
		t.Fatal("mining an empty pool succeeded")
	}
}

func TestMinerToValidatorBlockTransferDirect(t *testing.T) {
	minerWorld, holders := newTokenWorld(t, 6)
	validatorWorld, _ := newTokenWorld(t, 6)
	m := newTestNode(t, minerWorld)
	v := newTestNode(t, validatorWorld)
	if m.Head().Header.Hash() != v.Head().Header.Hash() {
		t.Fatal("genesis mismatch between nodes")
	}
	for i, from := range holders {
		m.Submit(contract.Call{
			Sender: from, Contract: tokenAddr, Function: "transfer",
			Args: []any{holders[(i+1)%len(holders)], uint64(5)}, GasLimit: 100_000,
		})
	}
	block, err := m.MineOne(100)
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	if err := v.AcceptBlock(block); err != nil {
		t.Fatalf("validator rejected honest block: %v", err)
	}
	if v.Height() != 1 || v.Head().Header.Hash() != m.Head().Header.Hash() {
		t.Fatal("validator chain diverged")
	}
	// Tampered block rejected and state restored.
	forged := block
	forged.Header.StateRoot = types.HashString("forged")
	if err := v.AcceptBlock(forged); err == nil {
		t.Fatal("validator accepted forged block")
	}
	if v.Height() != 1 {
		t.Fatal("rejection changed chain height")
	}
}

// httpNode serves a node over httptest and returns its base URL.
func httpNode(t *testing.T, n *Node) string {
	t.Helper()
	srv := httptest.NewServer(n.Handler())
	t.Cleanup(srv.Close)
	return srv.URL
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, data
}

func TestHTTPEndToEnd(t *testing.T) {
	minerWorld, holders := newTokenWorld(t, 5)
	validatorWorld, _ := newTokenWorld(t, 5)
	m := newTestNode(t, minerWorld)
	v := newTestNode(t, validatorWorld)
	minerURL := httpNode(t, m)
	validatorURL := httpNode(t, v)

	// Submit transfers over HTTP.
	for i, from := range holders {
		toArg, err := wire.EncodeArg(holders[(i+1)%len(holders)])
		if err != nil {
			t.Fatalf("EncodeArg: %v", err)
		}
		amtArg, _ := wire.EncodeArg(uint64(7))
		resp, body := postJSON(t, minerURL+"/v1/tx", wire.TxSubmit{
			Sender:   from.String(),
			Contract: tokenAddr.String(),
			Function: "transfer",
			Args:     []wire.Arg{toArg, amtArg},
			GasLimit: 100_000,
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status %d: %s", resp.StatusCode, body)
		}
	}

	// Mine over HTTP.
	resp, body := postJSON(t, minerURL+"/v1/mine", map[string]int{"blockSize": 50})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mine status %d: %s", resp.StatusCode, body)
	}
	var mined map[string]any
	if err := json.Unmarshal(body, &mined); err != nil {
		t.Fatalf("mine response: %v", err)
	}
	if mined["txCount"].(float64) != 5 {
		t.Fatalf("mined txCount = %v", mined["txCount"])
	}

	// Fetch the block bytes and feed them to the validator node.
	blockResp, err := http.Get(minerURL + "/v1/blocks/1")
	if err != nil {
		t.Fatalf("GET block: %v", err)
	}
	blockBytes, _ := io.ReadAll(blockResp.Body)
	blockResp.Body.Close()
	if blockResp.StatusCode != http.StatusOK {
		t.Fatalf("get block status %d", blockResp.StatusCode)
	}
	acceptResp, err := http.Post(validatorURL+"/v1/blocks", "application/octet-stream", bytes.NewReader(blockBytes))
	if err != nil {
		t.Fatalf("POST block: %v", err)
	}
	acceptBody, _ := io.ReadAll(acceptResp.Body)
	acceptResp.Body.Close()
	if acceptResp.StatusCode != http.StatusOK {
		t.Fatalf("accept status %d: %s", acceptResp.StatusCode, acceptBody)
	}

	// Heads agree.
	for _, url := range []string{minerURL, validatorURL} {
		headResp, err := http.Get(url + "/v1/head")
		if err != nil {
			t.Fatalf("GET head: %v", err)
		}
		var head map[string]any
		if err := json.NewDecoder(headResp.Body).Decode(&head); err != nil {
			t.Fatalf("head decode: %v", err)
		}
		headResp.Body.Close()
		if head["number"].(float64) != 1 {
			t.Fatalf("%s height = %v", url, head["number"])
		}
	}

	// Status endpoints.
	statusResp, err := http.Get(validatorURL + "/v1/status")
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	var st wire.Status
	if err := json.NewDecoder(statusResp.Body).Decode(&st); err != nil {
		t.Fatalf("status decode: %v", err)
	}
	statusResp.Body.Close()
	if st.ValidatedBlocks != 1 || st.Height != 1 {
		t.Fatalf("status = %+v", st)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	w, _ := newTokenWorld(t, 2)
	n := newTestNode(t, w)
	url := httpNode(t, n)
	cases := []struct {
		name string
		body any
	}{
		{"bad sender", wire.TxSubmit{Sender: "nope", Contract: tokenAddr.String(), Function: "f"}},
		{"bad contract", wire.TxSubmit{Sender: issuer.String(), Contract: "zz", Function: "f"}},
		{"missing function", wire.TxSubmit{Sender: issuer.String(), Contract: tokenAddr.String()}},
		{"bad arg type", wire.TxSubmit{Sender: issuer.String(), Contract: tokenAddr.String(), Function: "f",
			Args: []wire.Arg{{Type: "float", Value: "1"}}}},
		{"bad arg value", wire.TxSubmit{Sender: issuer.String(), Contract: tokenAddr.String(), Function: "f",
			Args: []wire.Arg{{Type: "uint64", Value: "abc"}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, url+"/v1/tx", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d body=%s", resp.StatusCode, body)
			}
		})
	}
	// Garbage block upload.
	resp, err := http.Post(url+"/v1/blocks", "application/octet-stream", bytes.NewReader([]byte("junk")))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("junk block status = %d", resp.StatusCode)
	}
	// Missing block.
	getResp, err := http.Get(url + "/v1/blocks/99")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing block status = %d", getResp.StatusCode)
	}
}

func TestNodeWithSpreadPolicy(t *testing.T) {
	w, holders := newTokenWorld(t, 4)
	n, err := New(Config{World: w, Workers: 3, Runner: runtime.NewSimRunner(),
		SelectionPolicy: txpool.PolicySpread})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Repeated submissions from one sender spread across blocks.
	for i := 0; i < 6; i++ {
		n.Submit(contract.Call{
			Sender: holders[0], Contract: tokenAddr, Function: "transfer",
			Args: []any{holders[1], uint64(1)}, GasLimit: 100_000,
		})
	}
	b1, err := n.MineOne(4)
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	if len(b1.Calls) != 4 {
		t.Fatalf("block 1 size = %d", len(b1.Calls))
	}
	for n.PoolLen() > 0 {
		if _, err := n.MineOne(4); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
}

// TestHTTPContentType checks every JSON-speaking endpoint declares
// application/json — including error responses, where the header must be
// set before WriteHeader flushes the header block.
func TestHTTPContentType(t *testing.T) {
	w, holders := newTokenWorld(t, 3)
	n := newTestNode(t, w)
	url := httpNode(t, n)

	wantJSON := func(resp *http.Response, what string) {
		t.Helper()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s Content-Type = %q, want application/json", what, ct)
		}
	}

	// Success paths: submit, mine, head, status.
	toArg, _ := wire.EncodeArg(holders[1])
	amtArg, _ := wire.EncodeArg(uint64(1))
	resp, _ := postJSON(t, url+"/v1/tx", wire.TxSubmit{
		Sender: holders[0].String(), Contract: tokenAddr.String(),
		Function: "transfer", Args: []wire.Arg{toArg, amtArg}, GasLimit: 100_000,
	})
	wantJSON(resp, "POST /tx")
	resp, _ = postJSON(t, url+"/v1/mine", map[string]int{"blockSize": 10})
	wantJSON(resp, "POST /v1/mine")
	for _, path := range []string{"/v1/head", "/v1/status"} {
		getResp, err := http.Get(url + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		getResp.Body.Close()
		wantJSON(getResp, "GET "+path)
	}
	// Error paths.
	resp, _ = postJSON(t, url+"/v1/tx", wire.TxSubmit{Sender: "junk"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad tx status = %d", resp.StatusCode)
	}
	wantJSON(resp, "POST /tx (error)")
	getResp, err := http.Get(url + "/v1/blocks/99")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing block status = %d", getResp.StatusCode)
	}
	wantJSON(getResp, "GET /blocks/99 (error)")
	// Block bytes stay binary.
	blockResp, err := http.Get(url + "/v1/blocks/1")
	if err != nil {
		t.Fatalf("GET block: %v", err)
	}
	blockResp.Body.Close()
	if ct := blockResp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("block Content-Type = %q", ct)
	}
}

// TestAcceptBlockIdempotentAndForkDetection covers the import fast paths:
// re-importing a known block is ErrAlreadyKnown (no re-execution, height
// unchanged), and a different block for a committed height is ErrFork.
func TestAcceptBlockIdempotentAndForkDetection(t *testing.T) {
	minerWorld, holders := newTokenWorld(t, 4)
	validatorWorld, _ := newTokenWorld(t, 4)
	m := newTestNode(t, minerWorld)
	v := newTestNode(t, validatorWorld)
	for i, from := range holders {
		m.Submit(contract.Call{
			Sender: from, Contract: tokenAddr, Function: "transfer",
			Args: []any{holders[(i+1)%len(holders)], uint64(2)}, GasLimit: 100_000,
		})
	}
	block, err := m.MineOne(100)
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	if err := v.AcceptBlock(block); err != nil {
		t.Fatalf("first import: %v", err)
	}
	if err := v.AcceptBlock(block); !errors.Is(err, ErrAlreadyKnown) {
		t.Fatalf("duplicate import err = %v, want ErrAlreadyKnown", err)
	}
	if v.Height() != 1 {
		t.Fatalf("height = %d after duplicate import", v.Height())
	}
	// A competing block at the committed height is a fork.
	forged := block
	forged.Header.StateRoot = types.HashString("other-branch")
	if err := v.AcceptBlock(forged); !errors.Is(err, ErrFork) {
		t.Fatalf("conflicting import err = %v, want ErrFork", err)
	}
	// A block from the future (height gap) is rejected cheaply.
	gap := block
	gap.Header.Number = 5
	if err := v.AcceptBlock(gap); err == nil || errors.Is(err, ErrAlreadyKnown) {
		t.Fatalf("gapped import err = %v", err)
	}
	if v.Height() != 1 {
		t.Fatalf("height = %d after rejected imports", v.Height())
	}
}
