package node

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"contractstm/internal/api/client"
	"contractstm/internal/api/wire"
	"contractstm/internal/contract"
	"contractstm/internal/contracts"
	"contractstm/internal/engine"
	"contractstm/internal/gas"
	"contractstm/internal/persist"
	"contractstm/internal/runtime"
	"contractstm/internal/stm"
	"contractstm/internal/types"
)

// chainHeight parses the X-Chain-Height header off a response.
func chainHeight(t *testing.T, resp *http.Response) uint64 {
	t.Helper()
	raw := resp.Header.Get(wire.HeaderChainHeight)
	if raw == "" {
		t.Fatalf("%s missing %s header", resp.Request.URL, wire.HeaderChainHeight)
	}
	h, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		t.Fatalf("bad %s %q: %v", wire.HeaderChainHeight, raw, err)
	}
	return h
}

// TestV1ReadStamp: every response — success or error — carries the
// served height and a staleness figure, so a client can track a
// replica's freshness without extra round trips.
func TestV1ReadStamp(t *testing.T) {
	w, holders := newTokenWorld(t, 2)
	n := newTestNode(t, w)
	url := httpNode(t, n)

	resp, err := http.Get(url + "/v1/head")
	if err != nil {
		t.Fatalf("head: %v", err)
	}
	resp.Body.Close()
	if h := chainHeight(t, resp); h != 0 {
		t.Fatalf("pre-mine stamped height = %d", h)
	}

	n.Submit(contract.Call{
		Sender: holders[0], Contract: tokenAddr, Function: "transfer",
		Args: []any{holders[1], uint64(1)}, GasLimit: 100_000,
	})
	if _, err := n.MineOne(5); err != nil {
		t.Fatalf("mine: %v", err)
	}

	// The stamp rides on errors too — a 404 still tells the client how
	// fresh the answering node is.
	resp, err = http.Get(url + "/v1/blocks/99")
	if err != nil {
		t.Fatalf("missing block: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing block status = %d", resp.StatusCode)
	}
	if h := chainHeight(t, resp); h != 1 {
		t.Fatalf("post-mine stamped height = %d", h)
	}
	stale := resp.Header.Get(wire.HeaderChainStaleness)
	if ms, err := strconv.ParseInt(stale, 10, 64); err != nil || ms < 0 {
		t.Fatalf("staleness header = %q, %v", stale, err)
	}
}

// TestV1MinHeightGate: the bounded-staleness precondition. A read
// demanding a height this node has not durably reached answers 412
// replica_behind with a retry hint instead of silently serving stale
// state; a satisfied floor passes through untouched.
func TestV1MinHeightGate(t *testing.T) {
	w, holders := newTokenWorld(t, 2)
	n := newTestNode(t, w)
	url := httpNode(t, n)
	sdk := client.New(url)
	ctx := context.Background()

	if _, err := sdk.SubmitTx(ctx, transferTx(holders[0], holders[1], 1)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := n.MineOne(5); err != nil {
		t.Fatalf("mine: %v", err)
	}

	// Behind the floor: 412 with the machine code and a retry hint.
	resp, err := http.Get(url + "/v1/head?min_height=5")
	if err != nil {
		t.Fatalf("gated head: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("behind-floor status = %d (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("412 without Retry-After hint")
	}
	if h := chainHeight(t, resp); h != 1 {
		t.Fatalf("412 stamped height = %d", h)
	}

	// The SDK surfaces it as a typed error with the stable code.
	var ae *client.APIError
	if _, err := sdk.Head(ctx, client.WithMinHeight(5)); !errors.As(err, &ae) ||
		ae.Status != http.StatusPreconditionFailed || ae.Code != wire.CodeReplicaBehind {
		t.Fatalf("SDK gated head err = %v", err)
	}

	// Satisfied floor: normal answer.
	if head, err := sdk.Head(ctx, client.WithMinHeight(1)); err != nil || head.Number != 1 {
		t.Fatalf("satisfied floor head = %+v, %v", head, err)
	}

	// Malformed floor: the considered 400, not a silent pass.
	resp, err = http.Get(url + "/v1/head?min_height=junk")
	if err != nil {
		t.Fatalf("bad floor: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad floor status = %d", resp.StatusCode)
	}
}

// TestV1BalanceHeightErrors: the historical-read route's error contract
// on a node with no history materializer — a height past the served tip
// is 412 (retryable: the node may catch up), a height the node cannot
// materialize is 404.
func TestV1BalanceHeightErrors(t *testing.T) {
	w, holders := newTokenWorld(t, 2)
	n := newTestNode(t, w)
	sdk := sdkFor(t, n)
	ctx := context.Background()

	if _, err := sdk.SubmitTx(ctx, transferTx(holders[0], holders[1], 1)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := n.MineOne(5); err != nil {
		t.Fatalf("mine: %v", err)
	}

	var ae *client.APIError
	if _, err := sdk.BalanceInfo(ctx, holders[0], client.AtHeight(9)); !errors.As(err, &ae) ||
		ae.Status != http.StatusPreconditionFailed {
		t.Fatalf("ahead-of-tip err = %v", err)
	}
	if _, err := sdk.BalanceInfo(ctx, holders[0], client.AtHeight(1)); !errors.As(err, &ae) ||
		ae.Status != http.StatusNotFound || ae.Code != wire.CodeHeightUnavailable {
		t.Fatalf("no-history err = %v", err)
	}
	// The latest-read path reports the height it answered at.
	if b, err := sdk.BalanceInfo(ctx, holders[0]); err != nil || b.Height != 1 {
		t.Fatalf("latest balance = %+v, %v", b, err)
	}
}

// TestV1SubscribeReplay: a reconnecting subscriber naming its last seen
// event id receives exactly the missed events, then the live stream,
// with no duplicates across the seam.
func TestV1SubscribeReplay(t *testing.T) {
	w, holders := newTokenWorld(t, 2)
	n := newTestNode(t, w)
	sdk := sdkFor(t, n)
	ctx := context.Background()

	stream, err := sdk.Subscribe(ctx)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	amount := uint64(0)
	mine := func() {
		t.Helper()
		// Distinct amounts: admission control dedupes byte-identical
		// resubmissions.
		amount++
		if _, err := sdk.SubmitTx(ctx, transferTx(holders[0], holders[1], amount)); err != nil {
			t.Fatalf("submit: %v", err)
		}
		if _, err := n.MineOne(5); err != nil {
			t.Fatalf("mine: %v", err)
		}
	}
	mine()
	ev, err := stream.Next()
	if err != nil || ev.Block.Number != 1 {
		t.Fatalf("first event = %+v, %v", ev, err)
	}
	lastID, ok := stream.LastEventID()
	if !ok {
		t.Fatal("stream did not track the event id")
	}
	stream.Close()

	// Two blocks land while disconnected.
	mine()
	mine()

	replayStream, err := sdk.Subscribe(ctx, client.WithLastEventID(lastID))
	if err != nil {
		t.Fatalf("resubscribe: %v", err)
	}
	defer replayStream.Close()
	for want := uint64(2); want <= 3; want++ {
		ev, err := replayStream.Next()
		if err != nil {
			t.Fatalf("replayed event %d: %v", want, err)
		}
		if ev.Block.Number != want {
			t.Fatalf("replayed block = %d, want %d", ev.Block.Number, want)
		}
	}
	// The seam: a block mined after the resubscribe arrives exactly
	// once, in order.
	mine()
	if ev, err := replayStream.Next(); err != nil || ev.Block.Number != 4 {
		t.Fatalf("live event after replay = %+v, %v", ev, err)
	}
}

// TestV1SubscribeReset: an event id the broker cannot bridge (another
// node's sequence space, or a gap that outran the ring) answers with an
// explicit reset event so the client resyncs through the block range
// endpoint — the stream itself stays live afterwards.
func TestV1SubscribeReset(t *testing.T) {
	w, holders := newTokenWorld(t, 2)
	n := newTestNode(t, w)
	sdk := sdkFor(t, n)
	ctx := context.Background()

	stream, err := sdk.Subscribe(ctx, client.WithLastEventID(999))
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer stream.Close()
	if _, err := stream.Next(); !errors.Is(err, client.ErrStreamReset) {
		t.Fatalf("foreign-id Next err = %v, want ErrStreamReset", err)
	}
	// Still live after the reset.
	if _, err := sdk.SubmitTx(ctx, transferTx(holders[0], holders[1], 1)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := n.MineOne(5); err != nil {
		t.Fatalf("mine: %v", err)
	}
	if ev, err := stream.Next(); err != nil || ev.Block.Number != 1 {
		t.Fatalf("post-reset event = %+v, %v", ev, err)
	}
}

// TestV1ReplicaReadNeverSeesParkedBlock extends the crash-rule fixture
// to the replica read path: while a sealed block is parked short of its
// durability verdict, the read stamp stays at the durable height and a
// bounded-staleness read demanding the sealed height answers 412 — a
// replica can never leak state a crash could still void.
func TestV1ReplicaReadNeverSeesParkedBlock(t *testing.T) {
	dir := t.TempDir()
	n, calls := pipeNode(t, engine.KindSerial, dir, 2, persist.Options{SnapshotEvery: -1}, nil)
	defer n.Close()
	n.SubmitAll(calls)
	url := httpNode(t, n)
	sdk := client.New(url)
	ctx := context.Background()

	// Seal a block but park it short of the persist stage.
	if _, err := n.mineOne(recBlockSize, false); err != nil {
		t.Fatalf("seal: %v", err)
	}

	resp, err := http.Get(url + "/v1/head")
	if err != nil {
		t.Fatalf("head: %v", err)
	}
	resp.Body.Close()
	if h := chainHeight(t, resp); h != 0 {
		t.Fatalf("parked block leaked into the read stamp: height %d", h)
	}
	var ae *client.APIError
	if _, err := sdk.Head(ctx, client.WithMinHeight(1)); !errors.As(err, &ae) ||
		ae.Status != http.StatusPreconditionFailed || ae.Code != wire.CodeReplicaBehind {
		t.Fatalf("min_height=1 against parked block = %v, want 412 replica_behind", err)
	}
	// The historical route is gated by the same served height.
	if _, err := sdk.BalanceInfo(ctx, tokenAddr, client.AtHeight(1)); !errors.As(err, &ae) ||
		ae.Status != http.StatusPreconditionFailed {
		t.Fatalf("historical read at parked height = %v, want 412", err)
	}

	// Release the verdict: the same reads now pass.
	n.mu.Lock()
	entry := n.win.inflight[0]
	n.mu.Unlock()
	n.persist(entry)
	if err := n.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if head, err := sdk.Head(ctx, client.WithMinHeight(1)); err != nil || head.Number != 1 {
		t.Fatalf("post-durability gated head = %+v, %v", head, err)
	}
}

// faucet is a contract that pays one unit of its native balance to every
// caller: the smallest thing that moves the balances GET /v1/state reads.
type faucet struct{ addr types.Address }

func (f faucet) ContractAddress() types.Address { return f.addr }

func (f faucet) Invoke(env *contract.Env, _ string, _ []any) any {
	env.Transfer(env.Msg().Sender, 1)
	return nil
}

// faucetWorld deploys a funded faucet and returns calls draining it, one
// per caller in rotation.
func faucetWorld(t *testing.T, callers, calls int) (*contract.World, types.Address, []contract.Call) {
	t.Helper()
	w, err := contract.NewWorld(gas.DefaultSchedule())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	f := faucet{addr: types.AddressFromUint64(0xFA)}
	if err := w.Deploy(f); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if err := w.Mint(contracts.Setup(w), f.addr, types.Amount(calls)); err != nil {
		t.Fatalf("mint: %v", err)
	}
	out := make([]contract.Call, calls)
	for i := range out {
		out[i] = contract.Call{
			Sender: types.AddressFromUint64(uint64(0x5000 + i%callers)), Contract: f.addr,
			Function: "drip", Args: []any{uint64(i)}, GasLimit: 100_000,
		}
	}
	return w, f.addr, out
}

// TestV1BalanceAndHeightAreOneRead: GET /v1/state/{addr} answers with a
// balance and the height it holds at, and the two must have been true
// together. Pollers read beside a depth-4 pipelined miner — where the
// sealed world runs ahead of the durable height and verdicts land between
// any two calls — and every (balance, height) pair they saw must be what
// a serial replay to that height produces.
func TestV1BalanceAndHeightAreOneRead(t *testing.T) {
	const blocks, blockSize, callers = 12, 5, 3
	w, faucetAddr, calls := faucetWorld(t, callers, blocks*blockSize)
	// The faucet pays every call, so its balance names the height.
	addrs := faucetAccounts(faucetAddr, calls, callers)
	n, err := New(Config{
		World: w, Workers: 2, Runner: runtime.NewSimRunner(),
		DataDir: t.TempDir(), Persist: persist.Options{SnapshotEvery: 3}, PipelineDepth: 4,
	})
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}
	defer n.Close()
	n.SubmitAll(calls)

	type sighting struct {
		addr    int
		balance uint64
		height  uint64
	}
	done := make(chan struct{})
	seen := make([][]sighting, 2)
	var wg sync.WaitGroup
	for p := range seen {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				a := i % len(addrs)
				rec := httptest.NewRecorder()
				n.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/state/"+addrs[a].String(), nil))
				var b wire.Balance
				if err := json.Unmarshal(rec.Body.Bytes(), &b); err != nil || rec.Code != http.StatusOK {
					t.Errorf("state read: status %d, %v", rec.Code, err)
					return
				}
				seen[p] = append(seen[p], sighting{a, b.Balance, b.Height})
			}
		}(p)
	}
	for b := 1; b <= blocks; b++ {
		if _, err := n.MineOne(blockSize); err != nil {
			t.Fatalf("mine %d: %v", b, err)
		}
	}
	if err := n.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	close(done)
	wg.Wait()

	// Serial replay of the same chain: the balances at every height.
	ref, _, _ := faucetWorld(t, callers, blocks*blockSize)
	want := replayBalances(t, ref, n, blocks, addrs)
	for h := 0; h <= blocks; h++ {
		if got := want[h][0]; got != types.Amount((blocks-h)*blockSize) {
			t.Fatalf("fixture: faucet holds %d after %d blocks", got, h)
		}
	}
	heights := map[uint64]bool{}
	for _, sightings := range seen {
		for _, s := range sightings {
			heights[s.height] = true
			if s.height > blocks || uint64(want[s.height][s.addr]) != s.balance {
				t.Fatalf("read balance %d of %s at height %d; at that height it was %d",
					s.balance, addrs[s.addr], s.height, want[min(s.height, blocks)][s.addr])
			}
		}
	}
	t.Logf("%d + %d reads over %d distinct heights", len(seen[0]), len(seen[1]), len(heights))
}

// balanceOf reads a native balance transactionally from a quiescent world.
func balanceOf(t *testing.T, w *contract.World, addr types.Address) types.Amount {
	t.Helper()
	var bal types.Amount
	var readErr error
	if _, err := runtime.NewSimRunner().Run(1, func(th runtime.Thread) {
		tx := stm.BeginSerial(0, th, 1_000_000, w.Schedule())
		if bal, readErr = w.BalanceOf(tx, addr); readErr == nil {
			readErr = tx.Commit()
		}
	}); err != nil || readErr != nil {
		t.Fatalf("balance read: %v, %v", err, readErr)
	}
	return bal
}
