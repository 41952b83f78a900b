package miner

import (
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/engine"
	"contractstm/internal/runtime"
	"contractstm/internal/sched"
	"contractstm/internal/stm"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

func genesis() chain.Header { return chain.GenesisHeader(types.HashString("test-genesis")) }

func mustGen(t *testing.T, p workload.Params) *workload.Workload {
	t.Helper()
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatalf("generate %+v: %v", p, err)
	}
	return w
}

// allKindsParams enumerates representative workloads across benchmarks and
// conflict levels.
func allKindsParams(n int) []workload.Params {
	var out []workload.Params
	for _, kind := range workload.Kinds() {
		for _, conflict := range []int{0, 15, 50, 100} {
			out = append(out, workload.Params{
				Kind: kind, Transactions: n, ConflictPercent: conflict, Seed: 42,
			})
		}
	}
	return out
}

// orderInsensitive reports whether a workload's final state is the same
// under every serial order. SimpleAuction's bidPlusOne transactions are
// order-sensitive (the last bidder and the pending-returns ledger depend
// on serialization order), so blocks containing two or more of them are
// only comparable against execution in the published order S — which is
// exactly what the paper guarantees ("any sequential execution will do",
// §5; miners choose the order). Ballot and EtherDoc conflicts commute or
// deterministically revert, so they compare against block order too.
func orderInsensitive(p workload.Params) bool {
	switch p.Kind {
	case workload.KindAuction:
		return p.ConflictPercent == 0
	case workload.KindMixed:
		// Auction lane gets Transactions/3 txs; order-sensitive once that
		// lane has >= 2 contending transactions.
		lane := p.Transactions / 3
		return lane*p.ConflictPercent/100 < 2
	default:
		return true
	}
}

func TestMineParallelMatchesSerialBaseline(t *testing.T) {
	// The fundamental serializability check against the submission order,
	// for workloads whose final state is order-independent. (Every
	// workload, order-sensitive or not, is additionally checked against
	// the published order S in the next test.)
	for _, p := range allKindsParams(40) {
		p := p
		if !orderInsensitive(p) {
			continue
		}
		t.Run(p.Kind.String()+"/"+itoa(p.ConflictPercent), func(t *testing.T) {
			w := mustGen(t, p)

			serial, err := ExecuteSerial(runtime.NewSimRunner(), w.World, w.Calls, nil)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			w.Reset()

			res, err := Mine(engine.SpeculativeEngine{}, runtime.NewSimRunner(), w.World, genesis(), w.Calls, engine.Options{Workers: 3})
			if err != nil {
				t.Fatalf("mine: %v", err)
			}
			if res.Block.Header.StateRoot != serial.StateRoot {
				t.Fatalf("parallel state root %s != serial %s",
					res.Block.Header.StateRoot.Short(), serial.StateRoot.Short())
			}
			// Receipts must agree too (same outcomes, same gas).
			for i := range serial.Receipts {
				sr, pr := serial.Receipts[i], res.Block.Receipts[i]
				if sr.Reverted != pr.Reverted || sr.GasUsed != pr.GasUsed {
					t.Fatalf("tx %d receipts diverge: serial %+v parallel %+v", i, sr, pr)
				}
			}
		})
	}
}

func TestMineParallelSerializableInScheduleOrder(t *testing.T) {
	// Re-executing the block serially in the published order S must
	// reproduce the mined state root exactly (§5: "equivalent to some
	// sequential execution").
	for _, p := range allKindsParams(40) {
		p := p
		t.Run(p.Kind.String()+"/"+itoa(p.ConflictPercent), func(t *testing.T) {
			w := mustGen(t, p)
			res, err := Mine(engine.SpeculativeEngine{}, runtime.NewSimRunner(), w.World, genesis(), w.Calls, engine.Options{Workers: 3})
			if err != nil {
				t.Fatalf("mine: %v", err)
			}
			w.Reset()
			serial, err := ExecuteSerial(runtime.NewSimRunner(), w.World, w.Calls, res.Block.Schedule.Order)
			if err != nil {
				t.Fatalf("serial in S order: %v", err)
			}
			if serial.StateRoot != res.Block.Header.StateRoot {
				t.Fatalf("serial-in-S state root %s != mined %s",
					serial.StateRoot.Short(), res.Block.Header.StateRoot.Short())
			}
		})
	}
}

func TestMineParallelDeterministicOnSimRunner(t *testing.T) {
	p := workload.Params{Kind: workload.KindMixed, Transactions: 45, ConflictPercent: 30, Seed: 11}
	run := func() chain.Block {
		w := mustGen(t, p)
		res, err := Mine(engine.SpeculativeEngine{}, runtime.NewSimRunner(), w.World, genesis(), w.Calls, engine.Options{Workers: 3})
		if err != nil {
			t.Fatalf("mine: %v", err)
		}
		return res.Block
	}
	b1, b2 := run(), run()
	if b1.Header.Hash() != b2.Header.Hash() {
		t.Fatal("simulated mining is not deterministic")
	}
}

func TestMineParallelScheduleIsValid(t *testing.T) {
	w := mustGen(t, workload.Params{Kind: workload.KindAuction, Transactions: 50, ConflictPercent: 60, Seed: 4})
	res, err := Mine(engine.SpeculativeEngine{}, runtime.NewSimRunner(), w.World, genesis(), w.Calls, engine.Options{Workers: 3})
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	if _, err := chain.VerifyCommitments(res.Block); err != nil {
		t.Fatalf("commitments: %v", err)
	}
	if _, _, err := sched.ConstructValidator(len(w.Calls), res.Block.Schedule); err != nil {
		t.Fatalf("published schedule invalid: %v", err)
	}
	// bidPlusOne transactions all touch the highest-bid cell: the graph
	// must order them in a chain, so it cannot be empty.
	if res.Graph.EdgeCount() == 0 {
		t.Fatal("60% auction conflict produced no happens-before edges")
	}
}

func TestMineParallelZeroConflictHasNoExclusiveEdges(t *testing.T) {
	// A pure-vote Ballot block (commuting increments, disjoint voters)
	// must discover an edge-free schedule: full parallelism for validators.
	w := mustGen(t, workload.Params{Kind: workload.KindBallot, Transactions: 40, ConflictPercent: 0, Seed: 6})
	res, err := Mine(engine.SpeculativeEngine{}, runtime.NewSimRunner(), w.World, genesis(), w.Calls, engine.Options{Workers: 3})
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	if res.Graph.EdgeCount() != 0 {
		t.Fatalf("conflict-free ballot block has %d edges: %v", res.Graph.EdgeCount(), res.Block.Schedule.Edges)
	}
}

func TestMineParallelWorkerCounts(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 5} {
		w := mustGen(t, workload.Params{Kind: workload.KindMixed, Transactions: 30, ConflictPercent: 15, Seed: 8})
		res, err := Mine(engine.SpeculativeEngine{}, runtime.NewSimRunner(), w.World, genesis(), w.Calls, engine.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Stats.Committed+res.Stats.Reverted != 30 {
			t.Fatalf("workers=%d: %d outcomes", workers, res.Stats.Committed+res.Stats.Reverted)
		}
	}
}

func TestMineParallelOnOSThreads(t *testing.T) {
	// Same end state as serial, on real threads (race detector coverage).
	// The block must be one whose final state does not depend on the
	// serial order, or the interleaving the OS picks need not match the
	// submission order (Mixed at 30 % has three contending bids and did
	// not, about one run in forty).
	p := workload.Params{Kind: workload.KindMixed, Transactions: 40, ConflictPercent: 15, Seed: 13}
	if !orderInsensitive(p) {
		t.Fatalf("%+v is order-sensitive; it cannot be compared with submission order", p)
	}
	w := mustGen(t, p)
	serial, err := ExecuteSerial(runtime.NewOSRunner(nil), w.World, w.Calls, nil)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	w.Reset()
	res, err := Mine(engine.SpeculativeEngine{}, runtime.NewOSRunner(nil), w.World, genesis(), w.Calls, engine.Options{Workers: 4})
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	if res.Block.Header.StateRoot != serial.StateRoot {
		t.Fatal("OS-thread mining diverged from serial execution")
	}
	// And the discovered schedule replays serially to the same root.
	w.Reset()
	replay, err := ExecuteSerial(runtime.NewOSRunner(nil), w.World, w.Calls, res.Block.Schedule.Order)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if replay.StateRoot != res.Block.Header.StateRoot {
		t.Fatal("discovered schedule is not serializable")
	}
}

func TestDeadlockProneWorkloadStillSerializable(t *testing.T) {
	// Token transfers A->B and B->A interleave exclusive debits with
	// commuting credits on the same two accounts: a classic ABBA shape.
	// The miner must resolve any deadlocks by abort-and-retry and still
	// produce a serializable block.
	w := mustGen(t, workload.Params{Kind: workload.KindToken, Transactions: 60, ConflictPercent: 50, Seed: 21})
	serial, err := ExecuteSerial(runtime.NewSimRunner(), w.World, w.Calls, nil)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	w.Reset()
	res, err := Mine(engine.SpeculativeEngine{}, runtime.NewSimRunner(), w.World, genesis(), w.Calls, engine.Options{Workers: 3})
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	if res.Block.Header.StateRoot != serial.StateRoot {
		t.Fatal("deadlock-prone block diverged from serial state")
	}
}

func TestExecuteSerialOrderValidation(t *testing.T) {
	w := mustGen(t, workload.Params{Kind: workload.KindBallot, Transactions: 5, ConflictPercent: 0, Seed: 1})
	if _, err := ExecuteSerial(runtime.NewSimRunner(), w.World, w.Calls, []types.TxID{0, 1}); err == nil {
		t.Fatal("short order accepted")
	}
	w.Reset()
	if _, err := ExecuteSerial(runtime.NewSimRunner(), w.World, w.Calls, []types.TxID{0, 1, 2, 3, 99}); err == nil {
		t.Fatal("out-of-range order accepted")
	}
	w.Reset()
	if _, err := ExecuteSerial(runtime.NewSimRunner(), w.World, w.Calls, []types.TxID{0, 1, 2, 3, 3}); err == nil {
		t.Fatal("order repeating a transaction accepted")
	}
}

func TestMinerStatsAccounting(t *testing.T) {
	w := mustGen(t, workload.Params{Kind: workload.KindBallot, Transactions: 40, ConflictPercent: 100, Seed: 3})
	res, err := Mine(engine.SpeculativeEngine{}, runtime.NewSimRunner(), w.World, genesis(), w.Calls, engine.Options{Workers: 3})
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	if res.Stats.Committed != 20 || res.Stats.Reverted != 20 {
		t.Fatalf("stats = %+v, want 20 committed / 20 reverted", res.Stats)
	}
	if res.Stats.LockStats.Acquisitions == 0 {
		t.Fatal("no lock acquisitions recorded")
	}
}

func TestMineParallelLazyPolicy(t *testing.T) {
	for _, p := range allKindsParams(30) {
		p := p
		t.Run(p.Kind.String()+"/"+itoa(p.ConflictPercent), func(t *testing.T) {
			w := mustGen(t, p)
			res, err := Mine(engine.SpeculativeEngine{}, runtime.NewSimRunner(), w.World, genesis(), w.Calls,
				engine.Options{Workers: 3, Policy: stm.PolicyLazy})
			if err != nil {
				t.Fatalf("lazy mine: %v", err)
			}
			// Serializability: replaying serially in the published order S
			// must reproduce the mined state root.
			w.Reset()
			serial, err := ExecuteSerial(runtime.NewSimRunner(), w.World, w.Calls, res.Block.Schedule.Order)
			if err != nil {
				t.Fatalf("serial in S order: %v", err)
			}
			if res.Block.Header.StateRoot != serial.StateRoot {
				t.Fatal("lazy mining is not serializable in its own published order")
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
