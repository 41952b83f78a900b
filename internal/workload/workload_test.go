package workload

import (
	"bytes"
	"slices"
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/miner"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
)

func TestGenerateSizes(t *testing.T) {
	for _, kind := range append(Kinds(), KindToken) {
		for _, n := range []int{1, 10, 50} {
			w, err := Generate(Params{Kind: kind, Transactions: n, ConflictPercent: 15, Seed: 1})
			if err != nil {
				t.Fatalf("%v n=%d: %v", kind, n, err)
			}
			if len(w.Calls) != n {
				t.Fatalf("%v n=%d: generated %d calls", kind, n, len(w.Calls))
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, kind := range Kinds() {
		p := Params{Kind: kind, Transactions: 30, ConflictPercent: 40, Seed: 7}
		w1, err := Generate(p)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		w2, err := Generate(p)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		r1, _ := w1.World.StateRoot()
		r2, _ := w2.World.StateRoot()
		if r1 != r2 {
			t.Fatalf("%v: initial state roots differ", kind)
		}
		if !slices.Equal(chain.TxLeavesOf(w1.Calls), chain.TxLeavesOf(w2.Calls)) {
			t.Fatalf("%v: call lists differ", kind)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	p1 := Params{Kind: KindBallot, Transactions: 30, ConflictPercent: 15, Seed: 1}
	p2 := p1
	p2.Seed = 2
	w1, _ := Generate(p1)
	w2, _ := Generate(p2)
	if slices.Equal(chain.TxLeavesOf(w1.Calls), chain.TxLeavesOf(w2.Calls)) {
		t.Fatal("different seeds produced identical call lists")
	}
}

func TestGenerateRejectsBadParams(t *testing.T) {
	if _, err := Generate(Params{Kind: KindBallot, Transactions: 0}); err == nil {
		t.Fatal("0 transactions accepted")
	}
	if _, err := Generate(Params{Kind: KindBallot, Transactions: 10, ConflictPercent: 101}); err == nil {
		t.Fatal("conflict 101 accepted")
	}
	if _, err := Generate(Params{Kind: Kind(99), Transactions: 10}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	w, err := Generate(Params{Kind: KindBallot, Transactions: 20, ConflictPercent: 0, Seed: 3})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	before, _ := w.World.StateRoot()
	if _, err := miner.ExecuteSerial(runtime.NewSimRunner(), w.World, w.Calls, nil); err != nil {
		t.Fatalf("serial: %v", err)
	}
	after, _ := w.World.StateRoot()
	if before == after {
		t.Fatal("execution did not change state (vacuous test)")
	}
	w.Reset()
	restored, _ := w.World.StateRoot()
	if restored != before {
		t.Fatal("Reset did not restore the initial state")
	}
}

// countReverted executes the workload serially and counts reverted txs.
func countReverted(t *testing.T, w *Workload) int {
	t.Helper()
	res, err := miner.ExecuteSerial(runtime.NewSimRunner(), w.World, w.Calls, nil)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	n := 0
	for _, r := range res.Receipts {
		if r.Reverted {
			n++
		}
	}
	w.Reset()
	return n
}

func TestBallotConflictShapes(t *testing.T) {
	// 0% conflict: no double votes, nothing reverts.
	w, err := Generate(Params{Kind: KindBallot, Transactions: 40, ConflictPercent: 0, Seed: 5})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if n := countReverted(t, w); n != 0 {
		t.Fatalf("0%% conflict: %d reverts", n)
	}
	// 100% conflict: every pair is a double vote; half the block reverts.
	w, err = Generate(Params{Kind: KindBallot, Transactions: 40, ConflictPercent: 100, Seed: 5})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if n := countReverted(t, w); n != 20 {
		t.Fatalf("100%% conflict: %d reverts, want 20 (second vote of each pair)", n)
	}
}

func TestAuctionWorkloadExecutes(t *testing.T) {
	w, err := Generate(Params{Kind: KindAuction, Transactions: 30, ConflictPercent: 50, Seed: 9})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	res, err := miner.ExecuteSerial(runtime.NewSimRunner(), w.World, w.Calls, nil)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	// Withdraws commit; bidPlusOne commits (each strictly raises the bid).
	for i, r := range res.Receipts {
		if r.Reverted {
			t.Fatalf("tx %d (%s) reverted: %s", i, w.Calls[i].Function, r.Reason)
		}
	}
}

func TestEtherDocWorkloadExecutes(t *testing.T) {
	w, err := Generate(Params{Kind: KindEtherDoc, Transactions: 30, ConflictPercent: 50, Seed: 9})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	res, err := miner.ExecuteSerial(runtime.NewSimRunner(), w.World, w.Calls, nil)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for i, r := range res.Receipts {
		if r.Reverted {
			t.Fatalf("tx %d (%s) reverted: %s", i, w.Calls[i].Function, r.Reason)
		}
	}
}

func TestTokenWorkloadExecutes(t *testing.T) {
	w, err := Generate(Params{Kind: KindToken, Transactions: 30, ConflictPercent: 30, Seed: 9})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	res, err := miner.ExecuteSerial(runtime.NewSimRunner(), w.World, w.Calls, nil)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for i, r := range res.Receipts {
		if r.Reverted {
			t.Fatalf("tx %d reverted: %s", i, r.Reason)
		}
	}
}

func TestMixedCombinesContracts(t *testing.T) {
	w, err := Generate(Params{Kind: KindMixed, Transactions: 31, ConflictPercent: 15, Seed: 2})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if len(w.Calls) != 31 {
		t.Fatalf("generated %d calls", len(w.Calls))
	}
	targets := map[types.Address]bool{}
	for _, c := range w.Calls {
		targets[c.Contract] = true
	}
	if len(targets) != 3 {
		t.Fatalf("mixed block targets %d contracts, want 3", len(targets))
	}
}

func TestConflictSplit(t *testing.T) {
	cases := []struct {
		n, pct   int
		pairwise bool
		wantC    int
	}{
		{100, 0, false, 0},
		{100, 15, false, 15},
		{100, 100, false, 100},
		{100, 15, true, 14}, // rounded to even
		{10, 10, false, 0},  // single contender cannot contend
		{10, 10, true, 0},
	}
	for _, tc := range cases {
		c, p := conflictSplit(tc.n, tc.pct, tc.pairwise)
		if c != tc.wantC || p != tc.n-tc.wantC {
			t.Fatalf("conflictSplit(%d,%d,%v) = (%d,%d), want (%d,%d)",
				tc.n, tc.pct, tc.pairwise, c, p, tc.wantC, tc.n-tc.wantC)
		}
	}
}

func TestDelegationWorkloadExecutes(t *testing.T) {
	w, err := Generate(Params{Kind: KindDelegation, Transactions: 30, ConflictPercent: 40, Seed: 11})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	res, err := miner.ExecuteSerial(runtime.NewSimRunner(), w.World, w.Calls, nil)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for i, r := range res.Receipts {
		if r.Reverted {
			t.Fatalf("tx %d reverted: %s", i, r.Reason)
		}
	}
}

func TestDelegationWorkloadSerializableUnderMining(t *testing.T) {
	for _, conflict := range []int{0, 50, 100} {
		w, err := Generate(Params{Kind: KindDelegation, Transactions: 30, ConflictPercent: conflict, Seed: 3})
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		res, err := miner.Mine(engine.SpeculativeEngine{}, runtime.NewSimRunner(), w.World,
			chain.GenesisHeader(types.HashString("wl")), w.Calls, engine.Options{Workers: 3})
		if err != nil {
			t.Fatalf("conflict=%d mine: %v", conflict, err)
		}
		w.Reset()
		replay, err := miner.ExecuteSerial(runtime.NewSimRunner(), w.World, w.Calls, res.Block.Schedule.Order)
		if err != nil {
			t.Fatalf("conflict=%d replay: %v", conflict, err)
		}
		if replay.StateRoot != res.Block.Header.StateRoot {
			t.Fatalf("conflict=%d: delegation schedule not serializable", conflict)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range append(Kinds(), KindToken, KindDelegation, Kind(42)) {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
}

var _ = contract.Call{} // keep the import for helper extensions

// TestStateCodecRoundTripEveryWorld: for every workload's world — Ballot
// with its Voter records, EtherDoc with DocMeta, the auction's cells, the
// token maps — the persisted state stream restores into a freshly built
// world with the identical state root, re-encodes to the identical bytes,
// and is the same bytes on every run that reaches the same state.
func TestStateCodecRoundTripEveryWorld(t *testing.T) {
	for _, kind := range AllKinds() {
		p := Params{Kind: kind, Transactions: 40, ConflictPercent: 30, Seed: 5}
		// executed returns a world that has run the workload's calls, so
		// the state holds what transactions write, not only genesis.
		executed := func() *Workload {
			w, err := Generate(p)
			if err != nil {
				t.Fatalf("%v: generate: %v", kind, err)
			}
			if _, err := miner.ExecuteSerial(runtime.NewSimRunner(), w.World, w.Calls, nil); err != nil {
				t.Fatalf("%v: execute: %v", kind, err)
			}
			return w
		}
		src := executed()
		state, err := src.World.EncodeState()
		if err != nil {
			t.Fatalf("%v: encode: %v", kind, err)
		}
		if again, err := executed().World.EncodeState(); err != nil || !bytes.Equal(again, state) {
			t.Fatalf("%v: a second run to the same state encodes differently (err %v)", kind, err)
		}

		fresh, err := Generate(p)
		if err != nil {
			t.Fatalf("%v: generate: %v", kind, err)
		}
		if err := fresh.World.RestoreState(state); err != nil {
			t.Fatalf("%v: restore: %v", kind, err)
		}
		want, _ := src.World.StateRoot()
		if got, _ := fresh.World.StateRoot(); got != want {
			t.Fatalf("%v: restored root %s, want %s", kind, got.Short(), want.Short())
		}
		if re, err := fresh.World.EncodeState(); err != nil || !bytes.Equal(re, state) {
			t.Fatalf("%v: restored world encodes differently (err %v)", kind, err)
		}
	}
}
