// Command scheduleviz mines one block and prints its discovered schedule:
// the happens-before graph (optionally as Graphviz DOT), the serial order
// S, per-transaction lock profiles, and the parallelism metrics the paper
// proposes rewarding miners by (§4: "reward miners more for publishing
// highly parallel schedules (for example, as measured by critical path
// length)").
//
// Usage:
//
//	scheduleviz [-kind Ballot|SimpleAuction|EtherDoc|Mixed|Token]
//	            [-txs 30] [-conflict 30] [-workers 3] [-seed 1]
//	            [-dot]     # emit Graphviz DOT instead of text
//	            [-profiles] # also dump per-transaction lock profiles
package main

import (
	"flag"
	"fmt"
	"os"

	"contractstm/internal/chain"
	"contractstm/internal/engine"
	"contractstm/internal/miner"
	"contractstm/internal/runtime"
	"contractstm/internal/sched"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scheduleviz:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		kindName = flag.String("kind", "Mixed", "workload kind: Ballot, SimpleAuction, EtherDoc, Mixed or Token")
		txs      = flag.Int("txs", 30, "transactions in the block")
		conflict = flag.Int("conflict", 30, "data conflict percentage")
		workers  = flag.Int("workers", 3, "miner pool size")
		seed     = flag.Int64("seed", 1, "workload seed")
		dot      = flag.Bool("dot", false, "emit Graphviz DOT")
		profiles = flag.Bool("profiles", false, "dump per-transaction lock profiles")
	)
	flag.Parse()

	kind, err := workload.ParseKind(*kindName)
	if err != nil {
		return err
	}
	wl, err := workload.Generate(workload.Params{
		Kind: kind, Transactions: *txs, ConflictPercent: *conflict, Seed: *seed,
	})
	if err != nil {
		return err
	}
	res, err := miner.Mine(engine.SpeculativeEngine{}, runtime.NewSimRunner(), wl.World,
		chain.GenesisHeader(types.HashString("viz-genesis")), wl.Calls,
		engine.Options{Workers: *workers})
	if err != nil {
		return err
	}

	if *dot {
		writeDOT(res, wl)
		return nil
	}

	fmt.Printf("block: %s, %d transactions, %d%% conflict, %d workers\n",
		kind, *txs, *conflict, *workers)
	fmt.Printf("outcomes: %d committed, %d reverted, %d retries\n",
		res.Stats.Committed, res.Stats.Reverted, res.Stats.Retries)

	metrics, err := sched.Metrics(res.Graph)
	if err != nil {
		return err
	}
	fmt.Printf("happens-before: %d edges, critical path %d, max width %.2f\n\n",
		metrics.Edges, metrics.CriticalPathLen, metrics.MaxWidth)

	breakdown, err := Compute(res.Block, DefaultParams())
	if err != nil {
		return err
	}
	fmt.Printf("miner reward (§4 incentive): base %d + parallelism bonus %d (factor %.2f) = %d\n\n",
		breakdown.Base, breakdown.Bonus, breakdown.Parallelism, breakdown.Total)

	fmt.Printf("serial order S: %v\n\n", res.Block.Schedule.Order)

	// The edges are sorted by (from, to), so each task's joins come out
	// ascending.
	joins := make([][]int, len(wl.Calls))
	for _, e := range res.Block.Schedule.Edges {
		joins[e.To] = append(joins[e.To], int(e.From))
	}
	fmt.Println("fork-join program (Algorithm 2): task -> joins")
	for _, tx := range res.Block.Schedule.Order {
		if len(joins[tx]) == 0 {
			fmt.Printf("  %-6s [%s] runs immediately\n", tx, wl.Calls[tx].Function)
			continue
		}
		fmt.Printf("  %-6s [%s] joins %v\n", tx, wl.Calls[tx].Function, joins[tx])
	}

	if *profiles {
		fmt.Println("\nlock profiles (lock, mode, use counter):")
		for _, p := range res.Block.Profiles {
			fmt.Printf("  %s:", p.Tx)
			if len(p.Entries) == 0 {
				fmt.Printf(" (none)")
			}
			for _, e := range p.Entries {
				fmt.Printf(" %s/%s=%d", e.Lock, e.Mode, e.Counter)
			}
			fmt.Println()
		}
	}
	return nil
}

func writeDOT(res miner.Result, wl *workload.Workload) {
	fmt.Println("digraph happensbefore {")
	fmt.Println("  rankdir=LR;")
	for i := 0; i < res.Graph.N(); i++ {
		label := fmt.Sprintf("tx%d\\n%s", i, wl.Calls[i].Function)
		shape := "ellipse"
		if res.Block.Receipts[i].Reverted {
			shape = "box"
		}
		fmt.Printf("  tx%d [label=\"%s\", shape=%s];\n", i, label, shape)
	}
	for _, e := range res.Block.Schedule.Edges {
		fmt.Printf("  tx%d -> tx%d;\n", e.From, e.To)
	}
	fmt.Println("}")
}
