// The miner reward implements the incentive mechanism the paper sketches in
// §4: "Perhaps the simplest way to provide an incentive is to reward
// miners more for publishing highly parallel schedules (for example, as
// measured by critical path length). … Naturally, such rewards must be
// calibrated to produce desired effects."
//
// The calibration implemented here pays a base subsidy plus a parallelism
// bonus proportional to how far the published schedule's critical path is
// below the worst case (a fully serial chain):
//
//	parallelism = 1 - (criticalPath-1)/(n-1)         ∈ [0, 1]
//	reward      = base + bonus·parallelism + fees
//
// A miner that publishes a deliberately serialized (but still correct)
// schedule — the slowdown attack §4 describes — forfeits the entire bonus;
// a perfectly parallel schedule earns all of it. Because the schedule is
// in the block, the computation is verifiable by everyone.

package main

import (
	"fmt"

	"contractstm/internal/chain"
	"contractstm/internal/sched"
	"contractstm/internal/types"
)

// Params calibrates the reward function.
type Params struct {
	// BaseSubsidy is paid for any valid block.
	BaseSubsidy types.Amount
	// ParallelismBonus is the maximum extra subsidy, scaled by the
	// schedule's parallelism factor.
	ParallelismBonus types.Amount
	// FeePerGas converts the block's consumed gas into fees.
	FeePerGas types.Amount
}

// DefaultParams returns a calibration where a fully parallel schedule
// doubles the base subsidy.
func DefaultParams() Params {
	return Params{BaseSubsidy: 1000, ParallelismBonus: 1000, FeePerGas: 0}
}

// Breakdown itemizes a block reward.
type Breakdown struct {
	// Parallelism is the schedule's parallelism factor in [0, 1]:
	// 1 for an edge-free schedule, 0 for a serial chain.
	Parallelism float64
	// CriticalPath is the published schedule's critical path length.
	CriticalPath uint64
	// Base, Bonus and Fees are the reward components.
	Base  types.Amount
	Bonus types.Amount
	Fees  types.Amount
	// Total is the sum of the components.
	Total types.Amount
}

// Compute derives the verifiable reward breakdown for a block from its
// published schedule. Empty blocks earn only the base subsidy.
func Compute(b chain.Block, p Params) (Breakdown, error) {
	n := len(b.Calls)
	out := Breakdown{Base: p.BaseSubsidy}
	if n == 0 {
		out.Total = out.Base
		return out, nil
	}
	g, err := sched.GraphFromEdges(n, b.Schedule.Edges)
	if err != nil {
		return Breakdown{}, fmt.Errorf("reward: %w", err)
	}
	metrics, err := sched.Metrics(g)
	if err != nil {
		return Breakdown{}, fmt.Errorf("reward: %w", err)
	}
	out.CriticalPath = metrics.CriticalPathLen

	if n == 1 {
		out.Parallelism = 1
	} else {
		out.Parallelism = 1 - float64(metrics.CriticalPathLen-1)/float64(n-1)
	}
	if out.Parallelism < 0 {
		out.Parallelism = 0
	}
	out.Bonus = types.Amount(float64(p.ParallelismBonus) * out.Parallelism)

	var gasUsed uint64
	for _, r := range b.Receipts {
		gasUsed += uint64(r.GasUsed)
	}
	out.Fees = p.FeePerGas * types.Amount(gasUsed)

	total, err := out.Base.Add(out.Bonus)
	if err != nil {
		return Breakdown{}, fmt.Errorf("reward: %w", err)
	}
	total, err = total.Add(out.Fees)
	if err != nil {
		return Breakdown{}, fmt.Errorf("reward: %w", err)
	}
	out.Total = total
	return out, nil
}
