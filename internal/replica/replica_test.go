package replica

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"contractstm/internal/api/client"
	"contractstm/internal/api/wire"
	"contractstm/internal/chain"
	"contractstm/internal/cluster"
	"contractstm/internal/contract"
	"contractstm/internal/importer"
	"contractstm/internal/node"
	"contractstm/internal/runtime"
	"contractstm/internal/validator"
	"contractstm/internal/workload"
)

const (
	histBlocks    = 4
	histBlockSize = 6
)

// histNode builds a node over a fresh copy of the deterministic genesis
// world, with the call list that drives it — callable repeatedly so an
// upstream and its replica start bit-identical.
func histNode(t *testing.T) (*node.Node, []contract.Call) {
	t.Helper()
	wl, err := workload.Generate(workload.Params{
		Kind: workload.KindToken, Transactions: histBlocks * histBlockSize,
		ConflictPercent: 20, Seed: 47,
	})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	n, err := node.New(node.Config{World: wl.World, Workers: 3, Runner: runtime.NewSimRunner()})
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}
	return n, wl.Calls
}

// mineChain advances n by `blocks` blocks off the workload's call list.
func mineChain(t *testing.T, n *node.Node, calls []contract.Call, blocks int) {
	t.Helper()
	n.SubmitAll(calls[:blocks*histBlockSize])
	for i := 0; i < blocks; i++ {
		if _, err := n.MineOne(histBlockSize); err != nil {
			t.Fatalf("mine %d: %v", i+1, err)
		}
	}
}

// serveNode exposes a node over httptest.
func serveNode(t *testing.T, n *node.Node) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(n.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// startReplica builds a replica over a same-genesis follower and runs
// it until test cleanup.
func startReplica(t *testing.T, upstream string, cfg Config) *Replica {
	t.Helper()
	follower, _ := histNode(t)
	cfg.Node = follower
	cfg.Upstream = upstream
	if cfg.ErrorLog == nil {
		cfg.ErrorLog = func(err error) { t.Logf("replica fault: %v", err) }
	}
	rep, err := New(cfg)
	if err != nil {
		t.Fatalf("replica.New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- rep.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("replica.Run: %v", err)
		}
	})
	return rep
}

// waitHeight polls until the node durably reaches height.
func waitHeight(t *testing.T, n *node.Node, height uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for n.Height() < height {
		if time.Now().After(deadline) {
			t.Fatalf("node stuck at height %d, want %d", n.Height(), height)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReplicaFollowsUpstream is the end-to-end read-path: the first
// catch-up carries blocks mined before the replica existed, the relay applies
// blocks mined after, reads against the replica serve the upstream's
// chain, and the status document reports the relay's accounting.
func TestReplicaFollowsUpstream(t *testing.T) {
	up, calls := histNode(t)
	upSrv := serveNode(t, up)
	// Two blocks exist before the replica starts: the catch-up path.
	mineChain(t, up, calls, 2)

	rep := startReplica(t, upSrv.URL, Config{History: true})
	waitHeight(t, rep.Node(), 2)

	// Hold the next blocks until the relay's stream is established —
	// otherwise the first catch-up could carry them and the relay-path
	// accounting below would have nothing to count.
	upSDK := client.New(upSrv.URL)
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := upSDK.Status(ctx)
		if err != nil {
			t.Fatalf("upstream status: %v", err)
		}
		if st.API != nil && st.API.Subscribers >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("relay never subscribed upstream")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Two more arrive live: the relay path.
	up.SubmitAll(calls[2*histBlockSize : histBlocks*histBlockSize])
	for i := 2; i < histBlocks; i++ {
		if _, err := up.MineOne(histBlockSize); err != nil {
			t.Fatalf("mine %d: %v", i+1, err)
		}
	}
	waitHeight(t, rep.Node(), histBlocks)
	if rep.Node().Head().Header.Hash() != up.Head().Header.Hash() {
		t.Fatal("replica head diverged from upstream")
	}

	// Reads through the replica's own API: live, bounded-staleness, and
	// historical.
	repSrv := serveNode(t, rep.Node())
	sdk := client.New(repSrv.URL)
	head, err := sdk.Head(ctx, client.WithMinHeight(histBlocks))
	if err != nil || head.Number != histBlocks {
		t.Fatalf("replica head = %+v, %v", head, err)
	}
	if b, err := sdk.BalanceInfo(ctx, up.Head().Calls[0].Sender, client.AtHeight(2)); err != nil || b.Height != 2 {
		t.Fatalf("historical read = %+v, %v", b, err)
	}

	// The status document carries the relay accounting.
	st, err := sdk.Status(ctx)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.Relay == nil || st.Relay.Upstream != upSrv.URL {
		t.Fatalf("status.relay = %+v", st.Relay)
	}
	// The two live blocks arrived through the relay — as stream events
	// or, when catch-up wins the race, as gap fills.
	if st.Relay.Events+st.Relay.GapsFilled < 2 || st.Relay.UpstreamHeight != histBlocks {
		t.Fatalf("relay accounting = %+v", st.Relay)
	}
}

// TestReplicaDivergedUpstreamIsFatal: a follower and an upstream that
// hold different blocks at the same height are two chains, and no pull
// reconciles them — Run ends with cluster.ErrDiverged instead of retrying,
// and the follower keeps the block it had.
func TestReplicaDivergedUpstreamIsFatal(t *testing.T) {
	up, calls := histNode(t)
	mineChain(t, up, calls, 1)
	follower, _ := histNode(t)
	follower.SubmitAll(calls[histBlockSize : 2*histBlockSize])
	own, err := follower.MineOne(histBlockSize)
	if err != nil {
		t.Fatalf("follower's own block: %v", err)
	}
	if own.Header.Hash() == up.Head().Header.Hash() {
		t.Fatal("fixture: the two chains agree at height 1")
	}

	rep, err := New(Config{Node: follower, Upstream: serveNode(t, up).URL})
	if err != nil {
		t.Fatalf("replica.New: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rep.Run(ctx); !errors.Is(err, cluster.ErrDiverged) {
		t.Fatalf("Run against a forked upstream = %v, want cluster.ErrDiverged", err)
	}
	if head := follower.Head().Header; head.Number != 1 || head.Hash() != own.Header.Hash() {
		t.Fatalf("follower's head moved to %d %s", head.Number, head.Hash().Short())
	}
}

// TestRelayReconnects: a dropped upstream stream is re-established and
// missed blocks are recovered — the counter proves the drop was seen,
// the height proves nothing was lost.
func TestRelayReconnects(t *testing.T) {
	up, calls := histNode(t)
	inner := up.Handler()
	var killFirst atomic.Bool
	killFirst.Store(true)
	// The first subscribe stream is accepted, then cut mid-stream — an
	// upstream restart as the relay sees it. The cut lands after the SSE
	// preamble so the SDK's transport-level retry cannot mask it.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/subscribe" && killFirst.Swap(false) {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("recorder not hijackable")
				return
			}
			conn, buf, err := hj.Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			_, _ = buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\r\n: subscribed\n\n")
			_ = buf.Flush()
			conn.Close()
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	rep := startReplica(t, srv.URL, Config{
		Relay: RelayConfig{Backoff: time.Millisecond},
	})
	mineChain(t, up, calls, histBlocks)
	waitHeight(t, rep.Node(), histBlocks)
	if rep.Node().Head().Header.Hash() != up.Head().Header.Hash() {
		t.Fatal("replica diverged across the reconnect")
	}
	deadline := time.Now().Add(10 * time.Second)
	for rep.Relay().Status().Reconnects < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("relay accounting = %+v, want at least one reconnect", rep.Relay().Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRelayFanOut: many downstream SSE subscribers ride the replica
// while the upstream carries exactly one subscribe connection — the
// whole point of the relay hub.
func TestRelayFanOut(t *testing.T) {
	const subscribers = 50
	up, calls := histNode(t)
	upSrv := serveNode(t, up)
	rep := startReplica(t, upSrv.URL, Config{})
	repSrv := serveNode(t, rep.Node())

	ctx := context.Background()
	sdk := client.New(repSrv.URL)
	streams := make([]*client.Stream, subscribers)
	for i := range streams {
		s, err := sdk.Subscribe(ctx)
		if err != nil {
			t.Fatalf("subscriber %d: %v", i, err)
		}
		defer s.Close()
		streams[i] = s
	}

	mineChain(t, up, calls, 1)
	var wg sync.WaitGroup
	fails := make(chan error, subscribers)
	for i, s := range streams {
		wg.Add(1)
		go func(i int, s *client.Stream) {
			defer wg.Done()
			ev, err := s.Next()
			if err != nil || ev.Block.Number != 1 {
				fails <- errors.New("subscriber missed the relayed block")
			}
		}(i, s)
	}
	wg.Wait()
	close(fails)
	if err := <-fails; err != nil {
		t.Fatal(err)
	}

	// The miner carries the relay's single subscription, no matter how
	// many clients sit behind the replica.
	upStatus, err := client.New(upSrv.URL).Status(ctx)
	if err != nil {
		t.Fatalf("upstream status: %v", err)
	}
	if upStatus.API == nil || upStatus.API.Subscribers != 1 {
		t.Fatalf("upstream subscribers = %+v, want exactly the relay", upStatus.API)
	}
}

// TestReplicaRefusesWrites: a node that follows an upstream takes no
// writes over its API — a submit and a mine are refused with the
// read_replica code and move neither its pool nor its head — and it goes
// on following. (Admitted, the one transaction would have been sealed by
// the one mine into a local block, and the upstream's next block would
// have been a fork.)
func TestReplicaRefusesWrites(t *testing.T) {
	up, calls := histNode(t)
	upSrv := serveNode(t, up)
	rep := startReplica(t, upSrv.URL, Config{})
	sdk := client.New(serveNode(t, rep.Node()).URL)
	mineChain(t, up, calls, 1)
	waitHeight(t, rep.Node(), 1)

	ctx := context.Background()
	refused := func(what string, err error) {
		t.Helper()
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusForbidden || ae.Code != wire.CodeReadReplica {
			t.Fatalf("%s against a replica = %v, want 403 %s", what, err, wire.CodeReadReplica)
		}
	}
	_, err := sdk.SubmitCall(ctx, calls[histBlockSize])
	refused("submit", err)
	_, err = sdk.Mine(ctx, histBlockSize)
	refused("mine", err)
	if h, p := rep.Node().Height(), rep.Node().PoolLen(); h != 1 || p != 0 {
		t.Fatalf("refused writes left the replica at height %d with %d pooled, want 1 and 0", h, p)
	}

	up.SubmitAll(calls[histBlockSize : histBlocks*histBlockSize])
	for i := 1; i < histBlocks; i++ {
		if _, err := up.MineOne(histBlockSize); err != nil {
			t.Fatalf("mine %d: %v", i+1, err)
		}
	}
	waitHeight(t, rep.Node(), histBlocks)
	if rep.Node().Head().Header.Hash() != up.Head().Header.Hash() {
		t.Fatal("replica head diverged from upstream")
	}
}

// TestRelayRejectsMidGapBlock: the upstream's range endpoint serves a
// block whose receipts were tampered with (commitments recomputed, so
// only replay can tell) in the middle of a gap wider than the import
// window. The relay dies with AcceptBlock's own rejection of that block,
// the local head stops just under it, and nothing past it is published.
func TestRelayRejectsMidGapBlock(t *testing.T) {
	const bad = 3
	up, calls := histNode(t)
	mineChain(t, up, calls, histBlocks)
	good, _ := up.BlockAt(bad)
	forged := good
	forged.Receipts = append([]contract.Receipt(nil), good.Receipts...)
	forged.Receipts[0].GasUsed++
	forged.Header.ReceiptRoot = chain.ReceiptRootOf(forged.Receipts)

	// What AcceptBlock says about the forged block on the same prefix.
	ref, _ := histNode(t)
	for h := uint64(1); h < bad; h++ {
		b, _ := up.BlockAt(h)
		if err := ref.AcceptBlock(b); err != nil {
			t.Fatalf("reference accept %d: %v", h, err)
		}
	}
	want := ref.AcceptBlock(forged)
	if want == nil {
		t.Fatal("AcceptBlock took the forged block")
	}

	inner := up.Handler()
	upSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || r.URL.Path != "/v1/blocks" {
			inner.ServeHTTP(w, r)
			return
		}
		from, _ := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		count, _ := strconv.Atoi(r.URL.Query().Get("count"))
		for h := from; h < from+uint64(count); h++ {
			b, ok := up.BlockAt(h)
			if !ok {
				break
			}
			if h == bad {
				b = forged
			}
			raw, err := chain.AppendBlockWire(nil, b)
			if err != nil {
				t.Errorf("marshal block %d: %v", h, err)
				return
			}
			_, _ = w.Write(raw)
		}
	}))
	t.Cleanup(upSrv.Close)

	follower, _ := histNode(t)
	rep, err := New(Config{
		Node: follower, Upstream: upSrv.URL,
		Import: importer.Config{Workers: 2, Window: 2, Batch: 2},
	})
	if err != nil {
		t.Fatalf("replica.New: %v", err)
	}
	ctx := context.Background()
	sdk := client.New(serveNode(t, follower).URL)
	stream, err := sdk.Subscribe(ctx)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer stream.Close()

	err = rep.Relay().Run(ctx)
	if !errors.Is(err, validator.ErrRejected) {
		t.Fatalf("Relay.Run = %v, want a validator rejection", err)
	}
	if !strings.HasSuffix(err.Error(), ": "+want.Error()) {
		t.Fatalf("rejection bytes differ:\nrelay:       %s\nAcceptBlock: %s", err, want)
	}
	if h := follower.Height(); h != bad-1 {
		t.Fatalf("local head = %d, want %d", h, bad-1)
	}
	for h := uint64(1); h < bad; h++ {
		if ev, err := stream.Next(); err != nil || ev.Block.Number != h {
			t.Fatalf("event %d = %+v, %v", h, ev.Block, err)
		}
	}
	// Events and receipts are published together, at the verdict: the
	// rejected block's receipts never having appeared means its event
	// did not either.
	_, err = sdk.Receipt(ctx, wire.TxIDOf(good.Calls[0]).String())
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != wire.CodeTxNotFound {
		t.Fatalf("receipt from the rejected block = %v, want %s", err, wire.CodeTxNotFound)
	}
}
