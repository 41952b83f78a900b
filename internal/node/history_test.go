package node

import (
	"errors"
	"sync"
	"testing"
	"time"

	"contractstm/internal/api"
	"contractstm/internal/contract"
	"contractstm/internal/persist"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
	"contractstm/internal/validator"
)

// These tests pin what GET /v1/state/{addr}?height=H promises on a node
// that retains history: the balance at exactly that durable height, for
// the newest historyDepth of them. The oracle is independent of the node:
// a fresh world the test itself replays the node's blocks onto.

// replayBalances replays n's blocks 1..upTo onto ref — a fresh copy of
// n's genesis world — and returns want[h][a], the balance of addrs[a]
// after block h.
func replayBalances(t *testing.T, ref *contract.World, n *Node, upTo int, addrs []types.Address) [][]types.Amount {
	t.Helper()
	want := make([][]types.Amount, upTo+1)
	for h := 0; h <= upTo; h++ {
		if h > 0 {
			b, _ := n.BlockAt(uint64(h))
			if _, err := validator.Validate(runtime.NewSimRunner(), ref, b, validator.Config{Workers: 1}); err != nil {
				t.Fatalf("replay %d: %v", h, err)
			}
		}
		for _, a := range addrs {
			want[h] = append(want[h], balanceOf(t, ref, a))
		}
	}
	return want
}

// faucetAccounts lists every account a faucet workload moves: the faucet
// and its callers.
func faucetAccounts(faucetAddr types.Address, calls []contract.Call, callers int) []types.Address {
	addrs := []types.Address{faucetAddr}
	for _, c := range calls[:callers] {
		addrs = append(addrs, c.Sender)
	}
	return addrs
}

// historyNode builds a history-retaining node over a fresh faucet world;
// dir "" is a memory-only node.
func historyNode(t *testing.T, callers, calls int, dir string, depth int) (*Node, []types.Address, []contract.Call) {
	t.Helper()
	w, faucetAddr, all := faucetWorld(t, callers, calls)
	n, err := New(Config{
		World: w, Workers: 2, Runner: runtime.NewSimRunner(),
		DataDir: dir, Persist: persist.Options{SnapshotEvery: -1}, PipelineDepth: depth,
	})
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}
	t.Cleanup(func() { _ = n.Close() })
	n.RetainHistory()
	return n, faucetAccounts(faucetAddr, all, callers), all
}

// mineBlocks mines count blocks of blockSize from the pool and waits for
// their verdicts.
func mineBlocks(t *testing.T, n *Node, count, blockSize int) {
	t.Helper()
	for i := 0; i < count; i++ {
		if _, err := n.MineOne(blockSize); err != nil {
			t.Fatalf("mine: %v", err)
		}
	}
	if err := n.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

// readsMatch asserts every height in [from, to] reads, for every account,
// the oracle's balance.
func readsMatch(t *testing.T, n *Node, addrs []types.Address, want [][]types.Amount, from, to int) {
	t.Helper()
	for h := from; h <= to; h++ {
		for a, addr := range addrs {
			if got, err := n.BalanceAtHeight(addr, uint64(h)); err != nil || got != want[h][a] {
				t.Fatalf("balance of %s at height %d = %d, %v; a replay to that height holds %d",
					addr, h, got, err, want[h][a])
			}
		}
	}
}

// TestHistoryServesEveryRetainedHeight: beside a depth-4 pipelined miner,
// where verdicts land between any two calls, every historical read that
// answers holds exactly what a serial replay to that height produces, a
// height whose verdict is still out answers ErrHeightAhead, and once the
// window is durable every height reads for every account.
func TestHistoryServesEveryRetainedHeight(t *testing.T) {
	const blocks, blockSize, callers = 12, 5, 3
	n, addrs, calls := historyNode(t, callers, blocks*blockSize, t.TempDir(), 4)
	n.SubmitAll(calls)

	type sighting struct {
		addr    int
		height  uint64
		balance types.Amount
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
				a, h := i%len(addrs), uint64(i%(blocks+1))
				bal, err := n.BalanceAtHeight(addrs[a], h)
				switch {
				case errors.Is(err, api.ErrHeightAhead):
				case err != nil:
					t.Errorf("read at height %d: %v", h, err)
					return
				default:
					seen[p] = append(seen[p], sighting{a, h, bal})
				}
			}
		}(p)
	}
	mineBlocks(t, n, blocks, blockSize)
	close(done)
	wg.Wait()

	ref, _, _ := faucetWorld(t, callers, blocks*blockSize)
	want := replayBalances(t, ref, n, blocks, addrs)
	for _, sightings := range seen {
		for _, s := range sightings {
			if want[s.height][s.addr] != s.balance {
				t.Fatalf("read balance %d of %s at height %d; at that height it was %d",
					s.balance, addrs[s.addr], s.height, want[s.height][s.addr])
			}
		}
	}
	t.Logf("%d + %d reads answered beside the miner", len(seen[0]), len(seen[1]))
	readsMatch(t, n, addrs, want, 0, blocks)
	if _, err := n.BalanceAtHeight(addrs[0], blocks+1); !errors.Is(err, api.ErrHeightAhead) {
		t.Fatalf("read past the durable head = %v, want ErrHeightAhead", err)
	}
}

// TestHistoryEvictsBeyondDepth: the ring holds historyDepth versions and
// no more — heights that fell off the back are unavailable, and nothing in
// the backing array keeps an evicted version of the world reachable.
func TestHistoryEvictsBeyondDepth(t *testing.T) {
	const blocks = historyDepth + 3
	n, addrs, calls := historyNode(t, 1, blocks, "", 1)
	n.SubmitAll(calls)
	mineBlocks(t, n, blocks, 1)

	for h := uint64(0); h <= 3; h++ {
		if _, err := n.BalanceAtHeight(addrs[0], h); !errors.Is(err, api.ErrHeightUnavailable) {
			t.Fatalf("read at evicted height %d = %v, want ErrHeightUnavailable", h, err)
		}
	}
	// The faucet pays one unit per block, so its balance names the height.
	for _, h := range []uint64{4, historyDepth, blocks} {
		if got, err := n.BalanceAtHeight(addrs[0], h); err != nil || uint64(got) != blocks-h {
			t.Fatalf("faucet at height %d = %d, %v, want %d", h, got, err, blocks-h)
		}
	}
	n.history.mu.Lock()
	defer n.history.mu.Unlock()
	for slot, v := range n.history.views {
		if v == nil || v.height <= 3 || v.height > blocks {
			t.Fatalf("slot %d holds %+v, want one of the newest %d heights", slot, v, historyDepth)
		}
	}
}

// TestHistoryFollowsVerdictsNotSeals: sealed-not-durable heights are
// ahead, not served; when a persist failure voids them and other blocks
// take their heights, history holds those blocks' state — the voided ones
// never entered it.
func TestHistoryFollowsVerdictsNotSeals(t *testing.T) {
	const callers, total = 3, 24
	n, addrs, calls := historyNode(t, callers, total, t.TempDir(), 4)
	n.SubmitAll(calls)
	mineBlocks(t, n, 1, 4)
	for h := 2; h <= 3; h++ {
		if _, err := n.mineOne(4, false); err != nil { // sealed, parked short of persist
			t.Fatalf("seal %d: %v", h, err)
		}
	}
	for h := uint64(2); h <= 3; h++ {
		if _, err := n.BalanceAtHeight(addrs[0], h); !errors.Is(err, api.ErrHeightAhead) {
			t.Fatalf("read at sealed-not-durable height %d = %v, want ErrHeightAhead", h, err)
		}
	}

	// What persist does when the WAL refuses a block, minus the latch a
	// real disk fault leaves behind: the node must mine again below.
	n.execMu.Lock()
	n.rollback()
	n.execMu.Unlock()
	n.release()
	n.release()
	if got := n.Height(); got != 1 {
		t.Fatalf("height %d after the rollback, want 1", got)
	}
	mineBlocks(t, n, 2, 2) // blocks 2 and 3 again, of other calls

	ref, _, _ := faucetWorld(t, callers, total)
	want := replayBalances(t, ref, n, 3, addrs)
	if want[2][0] != total-4-2 {
		t.Fatalf("fixture: faucet holds %d after the second block 2", want[2][0])
	}
	readsMatch(t, n, addrs, want, 0, 3)
}

// TestHistoryInstallSnapshotMovesFloor: an installed checkpoint is the
// oldest state the node can answer for — everything retained before it
// belongs to a chain prefix the node no longer holds — and history grows
// again from there.
func TestHistoryInstallSnapshotMovesFloor(t *testing.T) {
	const callers, total = 2, 8
	src, addrs, calls := historyNode(t, callers, total, "", 1)
	src.SubmitAll(calls)
	mineBlocks(t, src, 3, 2)
	snap, err := src.SnapshotNow()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	mineBlocks(t, src, 1, 2)
	ref, _, _ := faucetWorld(t, callers, total)
	want := replayBalances(t, ref, src, 4, addrs)

	dst, _, _ := historyNode(t, callers, total, "", 1)
	if _, err := dst.BalanceAtHeight(addrs[0], 0); err != nil {
		t.Fatalf("genesis read before the install: %v", err)
	}
	if err := dst.InstallSnapshot(snap); err != nil {
		t.Fatalf("install: %v", err)
	}
	for h := uint64(0); h < 3; h++ {
		if _, err := dst.BalanceAtHeight(addrs[0], h); !errors.Is(err, api.ErrHeightUnavailable) {
			t.Fatalf("read at height %d under the installed checkpoint = %v, want ErrHeightUnavailable", h, err)
		}
	}
	readsMatch(t, dst, addrs, want, 3, 3)
	b, _ := src.BlockAt(4)
	if err := dst.AcceptBlock(b); err != nil {
		t.Fatalf("accept block 4: %v", err)
	}
	readsMatch(t, dst, addrs, want, 3, 4)
}

// TestHistoryReadTakesNoNodeLock: a historical read returns while a block
// holds execMu and the bookkeeping lock is taken — it waits for neither.
func TestHistoryReadTakesNoNodeLock(t *testing.T) {
	n, addrs, calls := historyNode(t, 1, 2, "", 1)
	n.SubmitAll(calls)
	mineBlocks(t, n, 1, 1)

	n.execMu.Lock()
	n.mu.Lock()
	var bal types.Amount
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		bal, err = n.BalanceAtHeight(addrs[0], 0)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Error("historical read waits for execMu or n.mu")
	}
	n.mu.Unlock()
	n.execMu.Unlock()
	<-done
	if err != nil || bal != 2 {
		t.Fatalf("faucet at genesis = %d, %v, want 2", bal, err)
	}
}
