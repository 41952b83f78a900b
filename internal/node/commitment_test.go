package node_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"contractstm/internal/api/client"
	"contractstm/internal/api/wire"
	"contractstm/internal/chain"
	"contractstm/internal/cluster"
	"contractstm/internal/contract"
	"contractstm/internal/crypto"
	"contractstm/internal/importer"
	"contractstm/internal/mempool"
	"contractstm/internal/node"
	"contractstm/internal/persist"
	"contractstm/internal/replica"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
	"contractstm/internal/validator"
	"contractstm/internal/workload"
)

// These tests pin one invariant of the block lifecycle — a node makes
// exactly one pass over a block's commitments, a block that fails it is
// never appended whichever way it arrives, and the transaction IDs the
// receipt index records are that pass's tx leaves — not the mechanism
// behind it. They drive the node from outside, over the same entry points
// a peer, a client and a restart use.

const cmtBlockSize = 8

func cmtParams(kind workload.Kind, txs int) workload.Params {
	return workload.Params{Kind: kind, Transactions: txs, ConflictPercent: 30, Seed: 27}
}

// cmtNode builds a node over a fresh copy of p's deterministic genesis
// world; dir "" is a memory-only node.
func cmtNode(t *testing.T, p workload.Params, dir string, depth int) (*node.Node, []contract.Call) {
	t.Helper()
	wl, err := workload.Generate(p)
	if err != nil {
		t.Fatalf("workload.Generate: %v", err)
	}
	n, err := node.New(node.Config{
		World: wl.World, Workers: 3, Runner: runtime.NewSimRunner(),
		DataDir: dir, PipelineDepth: depth,
	})
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n, wl.Calls
}

// cmtMine submits calls to a fresh node and mines them all, returning the
// node and its blocks (blocks[0] is height 1), every one durable.
func cmtMine(t *testing.T, p workload.Params, calls []contract.Call, dir string, depth int) (*node.Node, []chain.Block) {
	t.Helper()
	n, generated := cmtNode(t, p, dir, depth)
	if calls == nil {
		calls = generated
	}
	n.SubmitAll(calls)
	var blocks []chain.Block
	for n.PoolLen() > 0 {
		b, err := n.MineOne(cmtBlockSize)
		if err != nil {
			t.Fatalf("mine block %d: %v", len(blocks)+1, err)
		}
		blocks = append(blocks, b)
	}
	if err := n.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return n, blocks
}

func cmtServe(t *testing.T, h http.Handler) string {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv.URL
}

// lyingPeer serves blocks (blocks[0] is height 1) the way a node serves
// its chain — head, single block, range — without having validated them.
func lyingPeer(t *testing.T, blocks []chain.Block) string {
	t.Helper()
	write := func(w http.ResponseWriter, from, count uint64) {
		if from == 0 || from > uint64(len(blocks)) {
			w.WriteHeader(http.StatusNotFound)
			_ = json.NewEncoder(w).Encode(wire.Error{Code: wire.CodeBlockNotFound})
			return
		}
		for _, b := range blocks[from-1 : min(from-1+count, uint64(len(blocks)))] {
			raw, err := chain.MarshalBlock(b)
			if err != nil {
				t.Errorf("marshal: %v", err)
			}
			_, _ = w.Write(raw)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/head", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(wire.BlockInfoOf(blocks[len(blocks)-1]))
	})
	mux.HandleFunc("GET /v1/blocks/{height}", func(w http.ResponseWriter, r *http.Request) {
		h, _ := strconv.ParseUint(r.PathValue("height"), 10, 64)
		write(w, h, 1)
	})
	mux.HandleFunc("GET /v1/blocks", func(w http.ResponseWriter, r *http.Request) {
		from, _ := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		count, _ := strconv.ParseUint(r.URL.Query().Get("count"), 10, 64)
		write(w, from, count)
	})
	return cmtServe(t, mux)
}

// TestCommitmentTamperedBlockRejectedOnEveryPath: a block whose header
// commitments do not match its body is refused as validator.ErrRejected,
// naming the commitment — by AcceptBlock, by POST /v1/blocks (409), from a
// peer during cluster.SyncWith, and as a CRC-valid WAL record at node.New,
// which fails rather than truncate durable history. In every case the
// node stays on the honest prefix and still takes the honest block after.
func TestCommitmentTamperedBlockRejectedOnEveryPath(t *testing.T) {
	p := cmtParams(workload.KindToken, 2*cmtBlockSize)
	_, honest := cmtMine(t, p, nil, "", 1)
	tamperings := []struct {
		name, names string
		apply       func(b *chain.Block)
	}{
		{"tx-root", "tx root", func(b *chain.Block) { b.Header.TxRoot[0] ^= 1 }},
		{"receipt-root", "receipt root", func(b *chain.Block) { b.Header.ReceiptRoot[0] ^= 1 }},
		{"schedule-hash", "schedule hash", func(b *chain.Block) { b.Header.ScheduleHash[0] ^= 1 }},
		{"call-byte", "tx root", func(b *chain.Block) {
			b.Calls = append([]contract.Call(nil), b.Calls...)
			b.Calls[0].GasLimit ^= 1
		}},
		{"receipt-byte", "receipt root", func(b *chain.Block) {
			b.Receipts = append([]contract.Receipt(nil), b.Receipts...)
			b.Receipts[0].GasUsed ^= 1
		}},
	}
	ctx := context.Background()
	// refused checks the rejection; settled that the follower sits on the
	// honest prefix — sealed, durable and served — with its world intact:
	// the honest block replays to the header's state root.
	refused := func(t *testing.T, err error, names string) {
		t.Helper()
		if !errors.Is(err, validator.ErrRejected) || !strings.Contains(err.Error(), names) {
			t.Fatalf("err = %v, want validator.ErrRejected naming the %s", err, names)
		}
	}
	settled := func(t *testing.T, f *node.Node) {
		t.Helper()
		st := f.CurrentStatus()
		if st.Height != 1 || st.DurableHeight != 1 || st.InFlight != 0 || st.HeadHash != honest[0].Header.Hash().String() {
			t.Fatalf("after the rejection: %+v, want the honest prefix of 1", st)
		}
		if _, ok := f.DurableBlock(2); ok {
			t.Fatal("the rejected block is served")
		}
		if err := f.AcceptBlock(honest[1]); err != nil {
			t.Fatalf("honest block after the rejection: %v", err)
		}
	}
	for _, tc := range tamperings {
		forged := honest[1]
		tc.apply(&forged)
		follower := func(t *testing.T, dir string) *node.Node {
			f, _ := cmtNode(t, p, dir, 1)
			if err := f.AcceptBlock(honest[0]); err != nil {
				t.Fatalf("honest block 1: %v", err)
			}
			return f
		}
		t.Run(tc.name+"/AcceptBlock", func(t *testing.T) {
			f := follower(t, "")
			refused(t, f.AcceptBlock(forged), tc.names)
			settled(t, f)
		})
		t.Run(tc.name+"/POST", func(t *testing.T) {
			f := follower(t, "")
			err := client.New(cmtServe(t, f.Handler())).SendBlock(ctx, forged)
			var ae *client.APIError
			if !errors.As(err, &ae) || ae.Status != http.StatusConflict || ae.Code != wire.CodeBlockRejected ||
				!strings.Contains(ae.Message, validator.ErrRejected.Error()) || !strings.Contains(ae.Message, tc.names) {
				t.Fatalf("POST /v1/blocks: %v, want 409 block_rejected naming the %s", err, tc.names)
			}
			settled(t, f)
		})
		t.Run(tc.name+"/SyncWith", func(t *testing.T) {
			f := follower(t, "")
			peer := cluster.NewPeer(lyingPeer(t, []chain.Block{honest[0], forged}), nil)
			imported, err := cluster.SyncWith(ctx, f, peer, importer.Config{})
			refused(t, err, tc.names)
			if imported != 0 {
				t.Fatalf("imported %d blocks from the lying peer", imported)
			}
			settled(t, f)
		})
		t.Run(tc.name+"/WAL", func(t *testing.T) {
			dir := t.TempDir()
			if err := follower(t, dir).Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			log, err := persist.Open(dir, persist.Options{})
			if err == nil {
				var tail persist.Tail
				if tail, err = log.Scan(1, func(chain.Block) error { return nil }); err == nil {
					err = log.Resume(tail)
				}
			}
			if err == nil {
				err = log.Append(forged) // framed under a valid CRC
			}
			if err == nil {
				err = log.Close()
			}
			if err != nil {
				t.Fatalf("plant the record: %v", err)
			}
			// Twice: a recovery that truncated the record would succeed
			// the second time.
			for i := 0; i < 2; i++ {
				wl, _ := workload.Generate(p)
				n, err := node.New(node.Config{World: wl.World, Workers: 3, Runner: runtime.NewSimRunner(), DataDir: dir})
				if err == nil {
					_ = n.Close()
				}
				refused(t, err, tc.names)
				if !strings.Contains(err.Error(), "replay height 2") {
					t.Fatalf("open %d: %v, want the failing height", i, err)
				}
			}
		})
	}
}

// TestCommitmentOnePassPerBlock: mined, pushed, recovered, synced or
// relayed, a block costs the node that takes it one pass over its
// commitments — chain.Seal's or validator.Precheck's — at window 1 and
// window 4.
func TestCommitmentOnePassPerBlock(t *testing.T) {
	const blocks = 6
	p := cmtParams(workload.KindToken, blocks*cmtBlockSize)
	ctx := context.Background()
	for _, depth := range []int{1, 4} {
		t.Run("depth"+strconv.Itoa(depth), func(t *testing.T) {
			passes := func(path string, run func()) {
				t.Helper()
				before := chain.CommitmentPasses()
				run()
				if got := chain.CommitmentPasses() - before; got != blocks {
					t.Errorf("%s: %d commitment passes for %d blocks", path, got, blocks)
				}
			}
			dir := t.TempDir()
			var leader *node.Node
			var mined []chain.Block
			passes("mined", func() { leader, mined = cmtMine(t, p, nil, dir, depth) })

			pushed, _ := cmtNode(t, p, t.TempDir(), depth)
			sdk := client.New(cmtServe(t, pushed.Handler()))
			passes("pushed", func() {
				for _, b := range mined {
					if err := sdk.SendBlock(ctx, b); err != nil {
						t.Fatalf("push block %d: %v", b.Header.Number, err)
					}
				}
			})

			if err := leader.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			var reopened *node.Node
			passes("recovered", func() { reopened, _ = cmtNode(t, p, dir, depth) })
			if got := reopened.RecoveredBlocks(); got != blocks {
				t.Fatalf("recovered %d blocks, want %d", got, blocks)
			}

			synced, _ := cmtNode(t, p, t.TempDir(), depth)
			peer := cluster.NewPeer(cmtServe(t, reopened.Handler()), nil)
			passes("synced", func() {
				if n, err := cluster.SyncWith(ctx, synced, peer, importer.Config{}); err != nil || n != blocks {
					t.Fatalf("SyncWith = %d, %v", n, err)
				}
			})

			// A replica's relay pulls through the same pipeline: its
			// fetches must not verify on the way in either.
			relayed, _ := cmtNode(t, p, t.TempDir(), depth)
			rep, err := replica.New(replica.Config{Node: relayed, Upstream: peer.URL()})
			if err != nil {
				t.Fatalf("replica.New: %v", err)
			}
			passes("relayed", func() {
				rctx, cancel := context.WithCancel(ctx)
				done := make(chan error, 1)
				go func() { done <- rep.Relay().Run(rctx) }()
				for deadline := time.Now().Add(10 * time.Second); relayed.Height() < blocks; {
					if time.Now().After(deadline) {
						t.Fatalf("replica stuck at height %d", relayed.Height())
					}
					time.Sleep(2 * time.Millisecond)
				}
				cancel()
				if err := <-done; !errors.Is(err, context.Canceled) {
					t.Fatalf("Relay.Run: %v", err)
				}
			})
			for _, n := range []*node.Node{pushed, reopened, synced, relayed} {
				if n.Head().Header.Hash() != mined[blocks-1].Header.Hash() {
					t.Fatalf("a follower ended on another head: %+v", n.CurrentStatus())
				}
			}
		})
	}
}

// TestCommitmentLeavesAreTheRecordedTxIDs: for generated blocks of every
// workload kind, with byte-identical calls among them, the tx root's
// leaves equal wire.TxIDOf of each call, the leader sealed its tx roots
// over the IDs its pool admitted the calls under (mempool.TxOf), and GET
// /v1/tx/{id} on the leader, on a follower and on the reopened leader
// answers, under every such ID, the receipt of its latest execution.
func TestCommitmentLeavesAreTheRecordedTxIDs(t *testing.T) {
	ctx := context.Background()
	for _, kind := range workload.AllKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p := cmtParams(kind, 3*cmtBlockSize)
			wl, err := workload.Generate(p)
			if err != nil {
				t.Fatalf("workload.Generate: %v", err)
			}
			// Two calls again, byte for byte (some kinds generate repeats
			// of their own): one lands in a later block than its twin, one
			// may share a block with it.
			calls := append(wl.Calls[:len(wl.Calls):len(wl.Calls)], wl.Calls[0], wl.Calls[len(wl.Calls)-1])
			dir := t.TempDir()
			leader, mined := cmtMine(t, p, calls, dir, 1)
			follower, _ := cmtNode(t, p, "", 1)

			want := map[types.Hash]wire.TxReceipt{}
			for _, b := range mined {
				if err := follower.AcceptBlock(b); err != nil {
					t.Fatalf("follower: block %d: %v", b.Header.Number, err)
				}
				ids := chain.TxLeavesOf(b.Calls)
				admitted := make([]types.Hash, len(b.Calls))
				for i, c := range b.Calls {
					admitted[i] = mempool.TxOf(c).ID
				}
				if crypto.MerkleRoot(admitted) != b.Header.TxRoot {
					t.Fatalf("block %d: the leader's tx root is not over the admitted IDs", b.Header.Number)
				}
				for i, rc := range wire.ReceiptsOf(b, ids) {
					if ids[i] != wire.TxIDOf(b.Calls[i]) {
						t.Fatalf("block %d: leaf %d is not the call's TxIDOf", b.Header.Number, i)
					}
					want[ids[i]] = rc
				}
			}
			if len(want) > len(calls)-2 {
				t.Fatalf("%d distinct IDs for %d calls with two repeats among them", len(want), len(calls))
			}
			check := func(label string, n *node.Node) {
				t.Helper()
				sdk := client.New(cmtServe(t, n.Handler()))
				for id, rc := range want {
					if got, err := sdk.Receipt(ctx, id.String()); err != nil || got != rc {
						t.Fatalf("%s: GET /v1/tx/%s = %+v, %v; want %+v", label, id.Short(), got, err, rc)
					}
				}
			}
			check("leader", leader)
			check("follower", follower)
			if err := leader.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			reopened, _ := cmtNode(t, p, dir, 1)
			check("reopened", reopened)
		})
	}
}
