package engine_test

// Nested contract calls under buffered execution: a nested frame must see
// its ancestors' buffered writes (read-your-parent's-writes), and nested
// appends must chain off the parent's buffered length instead of
// re-planning the same index. Regression tests for the OCC overlay chain;
// run across every engine so the buffered regimes are held to the serial
// semantics.

import (
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/gas"
	"contractstm/internal/runtime"
	"contractstm/internal/stm"
	"contractstm/internal/storage"
	"contractstm/internal/types"
	"contractstm/internal/validator"
)

// echoContract reads shared state on behalf of callers.
type echoContract struct {
	addr types.Address
	cell *storage.Cell
	log  *storage.Array
}

func (c *echoContract) ContractAddress() types.Address { return c.addr }

func (c *echoContract) Invoke(env *contract.Env, fn string, args []any) any {
	switch fn {
	case "readCell":
		n, err := c.cell.ReadUint(env.Ex())
		env.Do(err)
		return n
	case "append":
		_, err := c.log.Push(env.Ex(), args[0].(uint64))
		env.Do(err)
		return nil
	default:
		env.Throw("echo: unknown function %q", fn)
		return nil
	}
}

// writerContract writes state and then observes it through a nested call.
type writerContract struct {
	addr types.Address
	echo types.Address
	cell *storage.Cell
	bump *storage.Cell
	log  *storage.Array
}

func (c *writerContract) ContractAddress() types.Address { return c.addr }

func (c *writerContract) Invoke(env *contract.Env, fn string, args []any) any {
	switch fn {
	case "writeThenAsk":
		// The nested callee must observe the parent's buffered write.
		env.Do(c.cell.Write(env.Ex(), args[0].(uint64)))
		got, err := env.CallContract(c.echo, "readCell")
		env.Do(err)
		env.Require(got == args[0], "nested call read a stale cell value")
		return got
	case "writeThenBump":
		// An increment after a buffered write must fold into it, and the
		// read-back must see both (the lazy/OCC delta-after-Put rule).
		env.Do(c.bump.Write(env.Ex(), args[0].(uint64)))
		env.Do(c.bump.AddUint(env.Ex(), 5))
		n, err := c.bump.ReadUint(env.Ex())
		env.Do(err)
		env.Require(n == args[0].(uint64)+5, "increment after write was lost")
		return n
	case "pushThenPush":
		// Parent appends, then the nested callee appends to the same
		// array: both elements must survive (distinct planned indices).
		_, err := c.log.Push(env.Ex(), args[0].(uint64))
		env.Do(err)
		_, nerr := env.CallContract(c.echo, "append", args[1].(uint64))
		env.Do(nerr)
		n, lerr := c.log.Len(env.Ex())
		env.Do(lerr)
		return uint64(n)
	default:
		env.Throw("writer: unknown function %q", fn)
		return nil
	}
}

func nestedWorld(t *testing.T) (*contract.World, []contract.Call) {
	t.Helper()
	w, err := contract.NewWorld(gas.DefaultSchedule())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	cell, err := storage.NewCell(w.Store(), "nested/cell", uint64(1))
	if err != nil {
		t.Fatalf("NewCell: %v", err)
	}
	bump, err := storage.NewCell(w.Store(), "nested/bump", uint64(0))
	if err != nil {
		t.Fatalf("NewCell: %v", err)
	}
	log, err := storage.NewArray(w.Store(), "nested/log")
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	echoAddr := types.AddressFromUint64(0xEC0)
	writerAddr := types.AddressFromUint64(0x317)
	if err := w.Deploy(&echoContract{addr: echoAddr, cell: cell, log: log}); err != nil {
		t.Fatalf("deploy echo: %v", err)
	}
	if err := w.Deploy(&writerContract{addr: writerAddr, echo: echoAddr, cell: cell, bump: bump, log: log}); err != nil {
		t.Fatalf("deploy writer: %v", err)
	}
	sender := types.AddressFromUint64(0x5E4D)
	// The three calls touch disjoint state, so every engine commits them
	// in an equivalent order and the final roots must agree.
	calls := []contract.Call{
		{Sender: sender, Contract: writerAddr, Function: "writeThenAsk", Args: []any{uint64(42)}, GasLimit: 200_000},
		{Sender: sender, Contract: writerAddr, Function: "pushThenPush", Args: []any{uint64(7), uint64(8)}, GasLimit: 200_000},
		{Sender: sender, Contract: writerAddr, Function: "writeThenBump", Args: []any{uint64(10)}, GasLimit: 200_000},
	}
	return w, calls
}

func TestNestedCallsSeeParentWritesUnderEveryEngine(t *testing.T) {
	var serialRoot types.Hash
	for _, ek := range engine.Kinds() {
		ek := ek
		t.Run(ek.String(), func(t *testing.T) {
			w, calls := nestedWorld(t)
			res, err := engine.MustNew(ek).ExecuteBlock(runtime.NewSimRunner(), w, calls,
				engine.Options{Workers: 3})
			if err != nil {
				t.Fatalf("ExecuteBlock: %v", err)
			}
			for i, r := range res.Receipts {
				if r.Reverted {
					t.Fatalf("tx %d reverted under %v: %s", i, ek, r.Reason)
				}
			}
			root, err := w.StateRoot()
			if err != nil {
				t.Fatalf("state root: %v", err)
			}
			if ek == engine.KindSerial {
				serialRoot = root
			} else if root != serialRoot {
				t.Fatalf("%v state root %s != serial %s", ek, root.Short(), serialRoot.Short())
			}

			// The sealed block must validate from the parent state.
			vw, _ := nestedWorld(t)
			block, _ := chain.Seal(chain.GenesisHeader(types.HashString("nested")), calls,
				res.Receipts, res.Schedule, res.Profiles, root)
			if _, err := validator.Validate(runtime.NewSimRunner(), vw, block,
				validator.Config{Workers: 3}); err != nil {
				t.Fatalf("%v block rejected: %v", ek, err)
			}
		})
	}

	// The lazy write policy buffers in overlays too — hold it to the same
	// semantics.
	t.Run("speculative-lazy", func(t *testing.T) {
		w, calls := nestedWorld(t)
		res, err := engine.SpeculativeEngine{}.ExecuteBlock(runtime.NewSimRunner(), w, calls,
			engine.Options{Workers: 3, Policy: stm.PolicyLazy})
		if err != nil {
			t.Fatalf("ExecuteBlock: %v", err)
		}
		for i, r := range res.Receipts {
			if r.Reverted {
				t.Fatalf("tx %d reverted under lazy policy: %s", i, r.Reason)
			}
		}
		root, err := w.StateRoot()
		if err != nil {
			t.Fatalf("state root: %v", err)
		}
		if root != serialRoot {
			t.Fatalf("lazy state root %s != serial %s", root.Short(), serialRoot.Short())
		}
	})
}
