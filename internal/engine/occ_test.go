package engine_test

// The OCC engine's commit pass: a transaction that fails validation is
// deferred to the next parallel round only if its read/write set is
// compatible with what the pass has already deferred; one chained behind a
// deferred transaction re-executes at once on the commit thread. These
// tests pin the round count that rule buys, the blocks it produces and
// their determinism on real threads.

import (
	"slices"
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/gas"
	"contractstm/internal/runtime"
	"contractstm/internal/storage"
	"contractstm/internal/types"
	"contractstm/internal/validator"
	"contractstm/internal/workload"
)

func TestOCCChainedConflictsCommitInline(t *testing.T) {
	for _, p := range []workload.Params{
		{Kind: workload.KindHotCold, Transactions: 200, ConflictPercent: 60, Seed: 7},
		{Kind: workload.KindAuction, Transactions: 100, ConflictPercent: 100, Seed: 7},
	} {
		t.Run(p.Kind.String(), func(t *testing.T) {
			wl, err := workload.Generate(p)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			res, err := engine.OCCEngine{}.ExecuteBlock(runtime.NewSimRunner(), wl.World, wl.Calls,
				engine.Options{Workers: 3})
			if err != nil {
				t.Fatalf("ExecuteBlock: %v", err)
			}
			root, err := wl.World.StateRoot()
			if err != nil {
				t.Fatalf("state root: %v", err)
			}
			t.Logf("%d rounds, %d retries", res.Stats.Rounds, res.Stats.Retries)
			if res.Stats.Rounds > 2 {
				t.Errorf("%d rounds, want at most 2: chained conflicts were deferred", res.Stats.Rounds)
			}
			if res.Stats.Retries >= p.Transactions {
				t.Errorf("%d retries for %d transactions", res.Stats.Retries, p.Transactions)
			}

			wl.Reset()
			block, _ := chain.Seal(genesis(), wl.Calls, res.Receipts, res.Schedule, res.Profiles, root)
			if _, err := validator.Validate(runtime.NewSimRunner(), wl.World, block, validator.Config{Workers: 3}); err != nil {
				t.Fatalf("sealed block rejected: %v", err)
			}
			wl.Reset()
			replay, err := engine.RunOrdered(runtime.NewSimRunner(), wl.World, wl.Calls, res.Schedule.Order)
			if err != nil {
				t.Fatalf("RunOrdered: %v", err)
			}
			if !slices.Equal(replay.Receipts, res.Receipts) {
				t.Fatal("receipts differ from the serial execution of S")
			}
			if replayRoot, err := wl.World.StateRoot(); err != nil || replayRoot != root {
				t.Fatalf("serial execution of S ends at %s, OCC at %s (err %v)", replayRoot.Short(), root.Short(), err)
			}
		})
	}
}

// cellsContract writes cell a, or writes one cell from another: b from a,
// c from b.
type cellsContract struct {
	addr    types.Address
	a, b, c *storage.Cell
}

func (c *cellsContract) ContractAddress() types.Address { return c.addr }

func (c *cellsContract) Invoke(env *contract.Env, fn string, args []any) any {
	from, to := c.a, c.b
	switch fn {
	case "setA":
		env.Do(c.a.Write(env.Ex(), args[0].(uint64)))
		return nil
	case "setBFromA":
	case "setCFromB":
		from, to = c.b, c.c
	default:
		env.Throw("cells: unknown function %q", fn)
	}
	v, err := from.ReadUint(env.Ex())
	env.Do(err)
	env.Do(to.Write(env.Ex(), v+args[0].(uint64)))
	return nil
}

// TestOCCChainedTxCommitsAheadOfDeferredOne: tx 1 fails against tx 0's
// write of a and is deferred. Tx 2 fails against tx 0 too, and it also
// writes b, which deferred tx 1 writes, so it is chained: it commits in the
// first round, ahead of tx 1. Tx 3 read b before tx 2 wrote it, so it
// fails against tx 2's commit, and it is chained behind tx 1 too. S is
// then (0, 2, 3, 1), not block order, and the block must still validate.
func TestOCCChainedTxCommitsAheadOfDeferredOne(t *testing.T) {
	w, err := contract.NewWorld(gas.DefaultSchedule())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	newCell := func(name string) *storage.Cell {
		c, err := storage.NewCell(w.Store(), name, uint64(0))
		if err != nil {
			t.Fatalf("NewCell: %v", err)
		}
		return c
	}
	cells := &cellsContract{
		addr: types.AddressFromUint64(0xCE11),
		a:    newCell("cells/a"), b: newCell("cells/b"), c: newCell("cells/c"),
	}
	if err := w.Deploy(cells); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	sender := types.AddressFromUint64(0x5E4D)
	call := func(fn string, arg uint64) contract.Call {
		return contract.Call{Sender: sender, Contract: cells.addr, Function: fn, Args: []any{arg}, GasLimit: 200_000}
	}
	calls := []contract.Call{call("setA", 1), call("setBFromA", 10), call("setBFromA", 20), call("setCFromB", 5)}
	pre := w.Snapshot()

	res, err := engine.OCCEngine{}.ExecuteBlock(runtime.NewSimRunner(), w, calls, engine.Options{Workers: 3})
	if err != nil {
		t.Fatalf("ExecuteBlock: %v", err)
	}
	if want := []types.TxID{0, 2, 3, 1}; !slices.Equal(res.Schedule.Order, want) {
		t.Fatalf("S = %v, want %v", res.Schedule.Order, want)
	}
	if res.Stats.Rounds != 2 || res.Stats.Retries != 3 {
		t.Fatalf("%d rounds and %d retries, want 2 and 3", res.Stats.Rounds, res.Stats.Retries)
	}
	root, err := w.StateRoot()
	if err != nil {
		t.Fatalf("state root: %v", err)
	}

	// Tx 1 commits last, so b ends at 11 and c at 26: the post-state is
	// that of S and not that of block order, where b ends at 21.
	for _, order := range [][]types.TxID{res.Schedule.Order, {0, 1, 2, 3}} {
		w.Restore(pre)
		replay, err := engine.RunOrdered(runtime.NewSimRunner(), w, calls, order)
		if err != nil {
			t.Fatalf("RunOrdered(%v): %v", order, err)
		}
		replayRoot, err := w.StateRoot()
		if err != nil {
			t.Fatalf("state root: %v", err)
		}
		inS := slices.Equal(order, res.Schedule.Order)
		if (replayRoot == root) != inS {
			t.Fatalf("serial execution in order %v ends at %s, OCC at %s", order, replayRoot.Short(), root.Short())
		}
		if inS && !slices.Equal(replay.Receipts, res.Receipts) {
			t.Fatal("receipts differ from the serial execution of S")
		}
	}

	w.Restore(pre)
	block, _ := chain.Seal(genesis(), calls, res.Receipts, res.Schedule, res.Profiles, root)
	if _, err := validator.Validate(runtime.NewSimRunner(), w, block, validator.Config{Workers: 3}); err != nil {
		t.Fatalf("block with S out of block order rejected: %v", err)
	}
}

// TestOCCDeterministicOnOSThreads: every decision of the commit pass
// depends on read/write sets computed from a round's stable state, so
// repeated runs on real threads give the same S, H and receipts.
func TestOCCDeterministicOnOSThreads(t *testing.T) {
	const runs = 20
	wl, err := workload.Generate(workload.Params{
		Kind: workload.KindHotCold, Transactions: 100, ConflictPercent: 60, Seed: 17,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	var first engine.Result
	for r := 0; r < runs; r++ {
		wl.Reset()
		res, err := engine.OCCEngine{}.ExecuteBlock(runtime.NewOSRunner(nil), wl.World, wl.Calls,
			engine.Options{Workers: 2})
		if err != nil {
			t.Fatalf("run %d: ExecuteBlock: %v", r, err)
		}
		if r == 0 {
			first = res
			continue
		}
		if !slices.Equal(res.Schedule.Order, first.Schedule.Order) {
			t.Fatalf("run %d: S differs from run 0", r)
		}
		if !slices.Equal(res.Schedule.Edges, first.Schedule.Edges) {
			t.Fatalf("run %d: H differs from run 0", r)
		}
		if !slices.Equal(res.Receipts, first.Receipts) {
			t.Fatalf("run %d: receipts differ from run 0", r)
		}
	}
}
