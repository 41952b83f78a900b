// Auction example: the paper's SimpleAuction contract across an auction's
// whole lifecycle, mined over three blocks:
//
//	block 1 — a burst of competing bids (bidPlusOne: every transaction
//	          reads and raises the shared highest bid, so the miner
//	          discovers a serialization chain);
//	block 2 — outbid bidders withdraw their stakes (disjoint map keys:
//	          near-perfect parallelism);
//	block 3 — the beneficiary ends the auction.
//
// The contrast between block 1's and block 2's schedules is the paper's
// §7 story in miniature.
//
// Run with:
//
//	go run ./examples/auction
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
	"contractstm/internal/types"
	"contractstm/internal/validator"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "auction:", err)
		os.Exit(1)
	}
}

func run() error {
	world, err := contract.NewWorld(gas.DefaultSchedule())
	if err != nil {
		return err
	}
	var (
		auctionAddr = types.AddressFromUint64(0xA0C7)
		beneficiary = types.AddressFromUint64(0xBE3F)
	)
	auction, err := contracts.NewSimpleAuction(world, auctionAddr, beneficiary)
	if err != nil {
		return err
	}
	if err := auction.SeedBid(world, types.AddressFromUint64(0x5EED), 10); err != nil {
		return err
	}

	bidders := make([]types.Address, 12)
	for i := range bidders {
		bidders[i] = types.AddressFromUint64(uint64(0xB1D0 + i))
	}
	ledger := chain.New(mustRoot(world))
	mine := func(name string, calls []contract.Call) (chain.Block, error) {
		pre := world.Snapshot()
		res, err := miner.Mine(engine.SpeculativeEngine{}, runtime.NewSimRunner(), world, ledger.Head().Header, calls,
			engine.Options{Workers: 3})
		if err != nil {
			return chain.Block{}, fmt.Errorf("mine %s: %w", name, err)
		}
		metrics, err := sched.Metrics(res.Graph)
		if err != nil {
			return chain.Block{}, err
		}
		fmt.Printf("%s: %2d txs, %2d reverted, schedule edges=%2d critical-path=%2d max-width=%.1f\n",
			name, len(calls), res.Stats.Reverted, metrics.Edges, metrics.CriticalPathLen, metrics.MaxWidth)

		// Every block is validated before appending, like a real network.
		world.Restore(pre)
		if _, err := validator.Validate(runtime.NewSimRunner(), world, res.Block, validator.Config{Workers: 3}); err != nil {
			return chain.Block{}, fmt.Errorf("validate %s: %w", name, err)
		}
		if err := ledger.Append(res.Block); err != nil {
			return chain.Block{}, fmt.Errorf("append %s: %w", name, err)
		}
		return res.Block, nil
	}

	// Block 1: a bidding war. Each bidPlusOne reads the highest bid and
	// raises it by one — inherently sequential, and the schedule shows it.
	var bids []contract.Call
	for _, b := range bidders {
		bids = append(bids, contract.Call{
			Sender: b, Contract: auctionAddr, Function: "bidPlusOne", GasLimit: 100_000,
		})
	}
	if _, err := mine("block 1 (bidding war)   ", bids); err != nil {
		return err
	}

	// Block 2: everyone who was outbid withdraws — disjoint keys, wide
	// schedule.
	var withdrawals []contract.Call
	for _, b := range bidders {
		withdrawals = append(withdrawals, contract.Call{
			Sender: b, Contract: auctionAddr, Function: "withdraw", GasLimit: 100_000,
		})
	}
	if _, err := mine("block 2 (withdrawals)   ", withdrawals); err != nil {
		return err
	}

	// Block 3: the beneficiary closes the auction while a late bid races
	// it. Both orders are serializable; the miner publishes whichever it
	// discovered (an edge orders the pair), and validators replay exactly
	// that order — if the bid serialized after the close it reverts, if
	// before it stands.
	closing := []contract.Call{
		{Sender: beneficiary, Contract: auctionAddr, Function: "auctionEnd", GasLimit: 100_000},
		{Sender: bidders[0], Contract: auctionAddr, Function: "bid", Args: []any{uint64(10_000)}, GasLimit: 100_000},
	}
	if _, err := mine("block 3 (auction close) ", closing); err != nil {
		return err
	}

	fmt.Printf("\nchain height %d, head %s\n", ledger.Length()-1, ledger.Head().Header.Hash().Short())
	return nil
}

func mustRoot(w *contract.World) types.Hash {
	root, err := w.StateRoot()
	if err != nil {
		panic(err)
	}
	return root
}
