package node

import (
	"testing"

	"contractstm/internal/contract"
	"contractstm/internal/contracts"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
)

// afterRunner runs each fork-join run on inner, then calls after.
type afterRunner struct {
	inner runtime.Runner
	after func()
}

func (r afterRunner) Run(workers int, body func(runtime.Thread)) (uint64, error) {
	makespan, err := r.inner.Run(workers, body)
	r.after()
	return makespan, err
}

// TestAcceptBlockForgedTxRootRestoresWorld: a pushed block whose tx root
// is forged is refused by AcceptBlock with the bytes Precheck gave it when
// the commitments were checked before the replay. AcceptBlock now hashes
// them beside the replay, so the replay runs and moves the world first;
// afterwards the node's state root, head and GetIn reads (BalanceAt on
// the durable view, BalanceIn on the live world) are what they were, and
// the honest block still goes through.
func TestAcceptBlockForgedTxRootRestoresWorld(t *testing.T) {
	// The calls carry value, so the replay moves the native balances
	// BalanceAt and BalanceIn read.
	world := func() (*contract.World, []types.Address) {
		w, holders := newTokenWorld(t, 4)
		for _, h := range holders {
			if err := w.Mint(contracts.Setup(w), h, 100); err != nil {
				t.Fatalf("mint: %v", err)
			}
		}
		return w, holders
	}
	lw, holders := world()
	leader := newTestNode(t, lw)
	for i, from := range holders {
		leader.Submit(contract.Call{
			Sender: from, Contract: tokenAddr, Function: "transfer",
			Args: []any{holders[(i+1)%len(holders)], uint64(10)}, Value: 7, GasLimit: 100_000,
		})
	}
	honest, err := leader.MineOne(100)
	if err != nil {
		t.Fatalf("mine: %v", err)
	}

	fw, _ := world()
	runs, moved := 0, false
	runner := afterRunner{inner: runtime.NewSimRunner(), after: func() {
		runs++
		bal, err := fw.BalanceIn(fw.Snapshot(), holders[0])
		moved = moved || (err == nil && bal != 100)
	}}
	f, err := New(Config{World: fw, Workers: 3, Runner: runner})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()

	type reads struct {
		root, head    types.Hash
		durable, live [5]types.Amount
	}
	read := func() reads {
		t.Helper()
		var r reads
		var err error
		if r.root, err = fw.StateRoot(); err != nil {
			t.Fatalf("state root: %v", err)
		}
		r.head = f.Head().Header.Hash()
		live := fw.Snapshot()
		for i, addr := range append([]types.Address{tokenAddr}, holders...) {
			if r.durable[i], _, err = f.BalanceAt(addr); err != nil {
				t.Fatalf("BalanceAt: %v", err)
			}
			if r.live[i], err = fw.BalanceIn(live, addr); err != nil {
				t.Fatalf("BalanceIn: %v", err)
			}
		}
		return r
	}
	before := read()

	forged := honest
	forged.Header.TxRoot[0] ^= 1
	const want = "node: validator: block rejected: chain: header commitment mismatch: tx root 0xe1084c35 != 0xe0084c35"
	if err := f.AcceptBlock(forged); err == nil || err.Error() != want {
		t.Fatalf("AcceptBlock(forged) = %v, want %s", err, want)
	}
	if runs == 0 || !moved {
		t.Fatalf("the forged block's replay did not move the world (%d runs)", runs)
	}
	if after := read(); after != before {
		t.Fatalf("after the rejection: %+v, want %+v", after, before)
	}
	if err := f.AcceptBlock(honest); err != nil {
		t.Fatalf("honest block after the rejection: %v", err)
	}
	if root, _ := fw.StateRoot(); root != honest.Header.StateRoot {
		t.Fatalf("state root %s after the honest block, header %s", root.Short(), honest.Header.StateRoot.Short())
	}
}
