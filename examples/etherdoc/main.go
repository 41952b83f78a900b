// EtherDoc example: the paper's proof-of-existence DAPP. A publisher
// notarizes documents, auditors check them in parallel, and a batch of
// ownership transfers to one archive account shows the contention pattern
// the paper's EtherDoc benchmark measures ("all contending transactions
// touch the same shared data").
//
// Run with:
//
//	go run ./examples/etherdoc
package main

import (
	"fmt"
	"os"

	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/contracts"
	"contractstm/internal/engine"
	"contractstm/internal/gas"
	"contractstm/internal/miner"
	"contractstm/internal/runtime"
	"contractstm/internal/sched"
	"contractstm/internal/stm"
	"contractstm/internal/types"
	"contractstm/internal/validator"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "etherdoc:", err)
		os.Exit(1)
	}
}

func run() error {
	world, err := contract.NewWorld(gas.DefaultSchedule())
	if err != nil {
		return err
	}
	var (
		docAddr   = types.AddressFromUint64(0xD0C5)
		archive   = types.AddressFromUint64(0xA2C4)
		publisher = types.AddressFromUint64(0xF0B1)
	)
	etherdoc, err := contracts.NewEtherDoc(world, docAddr)
	if err != nil {
		return err
	}

	docs := make([]types.Hash, 16)
	for i := range docs {
		docs[i] = types.HashString(fmt.Sprintf("whitepaper-rev-%d.pdf", i))
	}

	parent := chain.GenesisHeader(types.HashString("etherdoc-example"))
	_ = parent
	ledger := chain.New(mustRoot(world))
	mineAndValidate := func(name string, calls []contract.Call) error {
		pre := world.Snapshot()
		res, err := miner.Mine(engine.SpeculativeEngine{}, runtime.NewSimRunner(), world, ledger.Head().Header, calls,
			engine.Options{Workers: 3})
		if err != nil {
			return fmt.Errorf("mine %s: %w", name, err)
		}
		metrics, err := sched.Metrics(res.Graph)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %2d txs, %d reverted, edges=%2d critical-path=%2d\n",
			name, len(calls), res.Stats.Reverted, metrics.Edges, metrics.CriticalPathLen)
		world.Restore(pre)
		if _, err := validator.Validate(runtime.NewSimRunner(), world, res.Block, validator.Config{Workers: 3}); err != nil {
			return fmt.Errorf("validate %s: %w", name, err)
		}
		return ledger.Append(res.Block)
	}

	// Block 1: the publisher notarizes all documents. Distinct hashcodes,
	// but every creation bumps the publisher's own document count
	// (read-modify-write) — watch the schedule chain.
	var creations []contract.Call
	for _, d := range docs {
		creations = append(creations, contract.Call{
			Sender: publisher, Contract: docAddr, Function: "createDocument",
			Args: []any{d}, GasLimit: 100_000,
		})
	}
	if err := mineAndValidate("block 1 (notarize)  ", creations); err != nil {
		return err
	}

	// Block 2: auditors verify existence in parallel — pure reads on
	// distinct documents, an edge-free schedule.
	var audits []contract.Call
	for i, d := range docs {
		audits = append(audits, contract.Call{
			Sender: types.AddressFromUint64(uint64(0xAAA0 + i)), Contract: docAddr,
			Function: "documentExists", Args: []any{d}, GasLimit: 100_000,
		})
	}
	if err := mineAndValidate("block 2 (audit)     ", audits); err != nil {
		return err
	}

	// Block 3: the publisher transfers everything to the archive — the
	// paper's conflict workload: all transfers contend on the archive's
	// document count.
	var transfers []contract.Call
	for _, d := range docs {
		transfers = append(transfers, contract.Call{
			Sender: publisher, Contract: docAddr, Function: "transferOwnership",
			Args: []any{d, archive}, GasLimit: 100_000,
		})
	}
	if err := mineAndValidate("block 3 (archive)   ", transfers); err != nil {
		return err
	}

	// Inspect final ownership through a serial read.
	_, err = runtime.NewSimRunner().Run(1, func(th runtime.Thread) {
		tx := stm.BeginSerial(0, th, 1_000_000, world.Schedule())
		out := contract.Execute(world, tx, contract.Call{
			Sender: publisher, Contract: docAddr, Function: "countForOwner",
			Args: []any{archive}, GasLimit: 1_000_000,
		})
		if out.Kind == contract.OutcomeCommitted {
			fmt.Printf("\narchive now owns %v documents; chain height %d, head %s\n",
				out.Result, ledger.Length()-1, ledger.Head().Header.Hash().Short())
		}
	})
	if err != nil {
		return err
	}
	_ = etherdoc
	return nil
}

func mustRoot(w *contract.World) types.Hash {
	root, err := w.StateRoot()
	if err != nil {
		panic(err)
	}
	return root
}
