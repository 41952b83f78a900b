// Quickstart: the smallest end-to-end tour of the library.
//
// It deploys a Token contract, submits a block of transfers, mines it
// speculatively in parallel (discovering a serializable schedule), then
// validates the block deterministically with the fork-join validator —
// the two halves of the paper's contribution.
//
// Run with:
//
//	go run ./examples/quickstart
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
	"contractstm/internal/types"
	"contractstm/internal/validator"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. A world holds all contract state (boosted storage objects).
	world, err := contract.NewWorld(gas.DefaultSchedule())
	if err != nil {
		return err
	}

	// 2. Deploy a token and fund ten holders at genesis.
	var (
		tokenAddr = types.AddressFromUint64(0x70C3)
		issuer    = types.AddressFromUint64(1)
	)
	token, err := contracts.NewToken(world, tokenAddr, issuer, 1_000_000)
	if err != nil {
		return err
	}
	holders := make([]types.Address, 10)
	for i := range holders {
		holders[i] = types.AddressFromUint64(uint64(100 + i))
		if err := token.SeedBalance(world, holders[i], 1000); err != nil {
			return err
		}
	}

	// 3. Build a block: each holder pays the next one; the last transfer
	//    intentionally overdraws and will revert.
	var calls []contract.Call
	for i, from := range holders {
		to := holders[(i+1)%len(holders)]
		calls = append(calls, contract.Call{
			Sender: from, Contract: tokenAddr, Function: "transfer",
			Args: []any{to, uint64(50 + i)}, GasLimit: 100_000,
		})
	}
	calls = append(calls, contract.Call{
		Sender: holders[0], Contract: tokenAddr, Function: "transfer",
		Args: []any{holders[1], uint64(999_999)}, GasLimit: 100_000,
	})

	// 4. Mine the block speculatively on three workers. The simulated
	//    runner gives deterministic virtual-time measurements; swap in
	//    runtime.NewOSRunner(nil) for real threads.
	parent := chain.GenesisHeader(types.HashString("quickstart"))
	pre := world.Snapshot() // validators start from the parent state
	res, err := miner.Mine(engine.SpeculativeEngine{}, runtime.NewSimRunner(), world, parent, calls, engine.Options{Workers: 3})
	if err != nil {
		return err
	}
	fmt.Printf("mined block: %d committed, %d reverted, %d retries\n",
		res.Stats.Committed, res.Stats.Reverted, res.Stats.Retries)
	fmt.Printf("discovered schedule: %d happens-before edges, serial order %v\n",
		len(res.Block.Schedule.Edges), res.Block.Schedule.Order)

	// 5. Validate the block deterministically, in parallel, from the
	//    parent state. Any tampering with state, receipts or the schedule
	//    would be rejected.
	world.Restore(pre)
	vres, err := validator.Validate(runtime.NewSimRunner(), world, res.Block, validator.Config{Workers: 3})
	if err != nil {
		return err
	}
	fmt.Printf("validated block in %d virtual time units (miner took %d)\n",
		vres.Makespan, res.Makespan)

	for i, r := range res.Block.Receipts {
		status := "ok"
		if r.Reverted {
			status = "REVERTED: " + r.Reason
		}
		fmt.Printf("  tx%-2d gas=%-6d %s\n", i, r.GasUsed, status)
	}
	fmt.Printf("block hash %s, state root %s\n",
		res.Block.Header.Hash().Short(), res.Block.Header.StateRoot.Short())
	return nil
}
