// Ballot example: the paper's flagship contract (Listing 1 / Appendix A),
// exercised the way its benchmark does — a registered electorate votes in
// one block — plus the delegation machinery the full Solidity contract
// provides.
//
// The point to notice in the output: although every vote increments the
// same proposal's count, the discovered schedule has NO happens-before
// edges between plain votes — boosted increments commute — while
// double-votes create real conflicts that serialize only the contending
// pair. Compare with the serial baseline time.
//
// Run with:
//
//	go run ./examples/ballot
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
	"contractstm/internal/stm"
	"contractstm/internal/types"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ballot:", err)
		os.Exit(1)
	}
}

func run() error {
	world, err := contract.NewWorld(gas.DefaultSchedule())
	if err != nil {
		return err
	}
	var (
		ballotAddr = types.AddressFromUint64(0xBA110)
		chair      = types.AddressFromUint64(0xC4A12)
	)
	ballot, err := contracts.NewBallot(world, ballotAddr, chair,
		[]string{"increase-blocksize", "decrease-blocksize", "do-nothing"})
	if err != nil {
		return err
	}

	// Register 24 voters; 4 will delegate instead of voting directly.
	voters := make([]types.Address, 24)
	for i := range voters {
		voters[i] = types.AddressFromUint64(uint64(1000 + i))
		if err := ballot.SeedVoter(world, voters[i]); err != nil {
			return err
		}
	}

	var calls []contract.Call
	mk := func(sender types.Address, fn string, args ...any) contract.Call {
		return contract.Call{Sender: sender, Contract: ballotAddr, Function: fn,
			Args: args, GasLimit: 200_000}
	}
	// Four delegations to voter 0, then everyone else votes; voter 5 tries
	// to vote twice (the double-vote race from the paper's Listing 1).
	for i := 1; i <= 4; i++ {
		calls = append(calls, mk(voters[i], "delegate", voters[0]))
	}
	for i := 0; i < len(voters); i++ {
		if i >= 1 && i <= 4 {
			continue // delegated
		}
		calls = append(calls, mk(voters[i], "vote", uint64(i%2)))
	}
	calls = append(calls, mk(voters[5], "vote", uint64(0))) // double vote

	parent := chain.GenesisHeader(types.HashString("ballot-example"))
	pre := world.Snapshot()

	// Serial baseline (instrumented single worker, as in the paper).
	serial, err := miner.Mine(engine.SpeculativeEngine{}, runtime.NewSimRunnerInterference(150), world, parent, calls,
		engine.Options{Workers: 1})
	if err != nil {
		return err
	}
	world.Restore(pre)
	res, err := miner.Mine(engine.SpeculativeEngine{}, runtime.NewSimRunnerInterference(150), world, parent, calls,
		engine.Options{Workers: 3})
	if err != nil {
		return err
	}

	fmt.Printf("block of %d transactions (%d delegations, %d votes, 1 double-vote)\n",
		len(calls), 4, len(calls)-5)
	fmt.Printf("serial:   %d virtual time units\n", serial.Makespan)
	fmt.Printf("parallel: %d virtual time units (%.2fx speedup, 3 workers)\n",
		res.Makespan, float64(serial.Makespan)/float64(res.Makespan))
	fmt.Printf("schedule: %d happens-before edges\n\n", len(res.Block.Schedule.Edges))

	reverted := 0
	for _, r := range res.Block.Receipts {
		if r.Reverted {
			reverted++
			fmt.Printf("reverted %s: %s\n", r.Tx, r.Reason)
		}
	}
	fmt.Printf("%d committed, %d reverted\n\n", len(calls)-reverted, reverted)

	// Read the result through a serial transaction.
	var winner string
	_, err = runtime.NewSimRunner().Run(1, func(th runtime.Thread) {
		tx := stm.BeginSerial(0, th, 1_000_000, world.Schedule())
		out := contract.Execute(world, tx, contract.Call{
			Sender: chair, Contract: ballotAddr, Function: "winnerName", GasLimit: 1_000_000,
		})
		if out.Kind == contract.OutcomeCommitted {
			winner = out.Result.(string)
		}
	})
	if err != nil {
		return err
	}
	fmt.Printf("winning proposal: %q\n", winner)
	return nil
}
