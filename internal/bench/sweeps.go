package bench

import (
	"fmt"

	"contractstm/internal/engine"
	"contractstm/internal/workload"
)

// BlockSizes is the paper's block-size sweep: "blocks containing between
// 10 and 400 transactions with 15% data conflict".
var BlockSizes = []int{10, 25, 50, 100, 150, 200, 250, 300, 350, 400}

// ConflictPercents is the paper's conflict sweep: "blocks containing 200
// transactions with data conflict percentages ranging from 0% to 100%".
var ConflictPercents = []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}

// SweepConflictFixed is the fixed conflict percentage of the block-size
// sweep (§7.1).
const SweepConflictFixed = 15

// SweepTransactionsFixed is the fixed block size of the conflict sweep:
// "the current theoretical maximum" of about 200 transactions (§7.1).
const SweepTransactionsFixed = 200

// DefaultSeed seeds all generated workloads.
const DefaultSeed int64 = 2017 // the paper's publication year

// Series is one benchmark's sweep: Points[i] corresponds to Xs[i].
type Series struct {
	Kind   workload.Kind
	XLabel string
	Xs     []int
	Points []Measurement
}

// Figure1 holds both charts of one benchmark's row in the paper's
// Figure 1: speedup over block size (left) and over conflict percentage
// (right).
type Figure1 struct {
	Kind      workload.Kind
	BlockSize Series
	Conflict  Series
}

// SweepBlockSize measures one benchmark across BlockSizes at 15% conflict.
func SweepBlockSize(kind workload.Kind, cfg Config, sizes []int) (Series, error) {
	if sizes == nil {
		sizes = BlockSizes
	}
	s := Series{Kind: kind, XLabel: "transactions", Xs: sizes}
	for _, n := range sizes {
		m, err := Measure(workload.Params{
			Kind: kind, Transactions: n,
			ConflictPercent: SweepConflictFixed, Seed: DefaultSeed,
		}, cfg)
		if err != nil {
			return Series{}, fmt.Errorf("bench: %v blocksize %d: %w", kind, n, err)
		}
		s.Points = append(s.Points, m)
	}
	return s, nil
}

// SweepConflict measures one benchmark across ConflictPercents at 200
// transactions.
func SweepConflict(kind workload.Kind, cfg Config, percents []int) (Series, error) {
	if percents == nil {
		percents = ConflictPercents
	}
	s := Series{Kind: kind, XLabel: "conflict%", Xs: percents}
	for _, c := range percents {
		m, err := Measure(workload.Params{
			Kind: kind, Transactions: SweepTransactionsFixed,
			ConflictPercent: c, Seed: DefaultSeed,
		}, cfg)
		if err != nil {
			return Series{}, fmt.Errorf("bench: %v conflict %d: %w", kind, c, err)
		}
		s.Points = append(s.Points, m)
	}
	return s, nil
}

// RunFigure1 produces one benchmark's Figure 1 row.
func RunFigure1(kind workload.Kind, cfg Config, sizes, percents []int) (Figure1, error) {
	bs, err := SweepBlockSize(kind, cfg, sizes)
	if err != nil {
		return Figure1{}, err
	}
	cs, err := SweepConflict(kind, cfg, percents)
	if err != nil {
		return Figure1{}, err
	}
	return Figure1{Kind: kind, BlockSize: bs, Conflict: cs}, nil
}

// Table1Row is one benchmark's column group in the paper's Table 1: the
// average speedups for each (variant, sweep) pair.
type Table1Row struct {
	Kind                  workload.Kind
	MinerConflictAvg      float64
	MinerBlockSizeAvg     float64
	ValidatorConflictAvg  float64
	ValidatorBlockSizeAvg float64
}

// Table1 is the paper's Table 1 plus the headline overall averages
// ("1.33x for the parallel miner and 1.69x for the validator").
type Table1 struct {
	Rows             []Table1Row
	OverallMiner     float64
	OverallValidator float64
}

// BuildTable1 derives Table 1 from the four benchmarks' Figure 1 data.
func BuildTable1(figs []Figure1) Table1 {
	var t Table1
	var allMiner, allValidator []float64
	for _, f := range figs {
		row := Table1Row{Kind: f.Kind}
		var mb, vb, mc, vc []float64
		for _, p := range f.BlockSize.Points {
			mb = append(mb, p.MinerSpeedup)
			vb = append(vb, p.ValidatorSpeedup)
		}
		for _, p := range f.Conflict.Points {
			mc = append(mc, p.MinerSpeedup)
			vc = append(vc, p.ValidatorSpeedup)
		}
		row.MinerBlockSizeAvg = ArithMean(mb)
		row.ValidatorBlockSizeAvg = ArithMean(vb)
		row.MinerConflictAvg = ArithMean(mc)
		row.ValidatorConflictAvg = ArithMean(vc)
		t.Rows = append(t.Rows, row)
		allMiner = append(allMiner, append(mb, mc...)...)
		allValidator = append(allValidator, append(vb, vc...)...)
	}
	t.OverallMiner = ArithMean(allMiner)
	t.OverallValidator = ArithMean(allValidator)
	return t
}

// RunAll produces Figure 1 for all four benchmarks and Table 1 from them.
// Passing nil sweeps uses the paper's full parameter grids.
func RunAll(cfg Config, sizes, percents []int) ([]Figure1, Table1, error) {
	var figs []Figure1
	for _, kind := range workload.Kinds() {
		f, err := RunFigure1(kind, cfg, sizes, percents)
		if err != nil {
			return nil, Table1{}, err
		}
		figs = append(figs, f)
	}
	return figs, BuildTable1(figs), nil
}

// EngineSeries is one engine's sweep of one benchmark: the miner speedup
// of that engine over the shared serial baseline, per x value.
type EngineSeries struct {
	Engine engine.Kind
	Series Series
}

// EngineComparison is one benchmark measured under every execution engine
// on the same sweep axis — the extensible-substrate counterpart of the
// paper's single-engine Figure 1.
type EngineComparison struct {
	Kind   workload.Kind
	XLabel string
	Xs     []int
	// Engines holds one series per engine, in engine.Kinds() order.
	Engines []EngineSeries
}

// SweepEnginesBlockSize measures one benchmark across block sizes (at the
// paper's fixed 15% conflict) under every execution engine.
func SweepEnginesBlockSize(kind workload.Kind, cfg Config, sizes []int) (EngineComparison, error) {
	if sizes == nil {
		sizes = BlockSizes
	}
	cmpr := EngineComparison{Kind: kind, XLabel: "transactions", Xs: sizes}
	for _, ek := range engine.Kinds() {
		ecfg := cfg
		ecfg.Engine = ek
		s, err := SweepBlockSize(kind, ecfg, sizes)
		if err != nil {
			return EngineComparison{}, fmt.Errorf("bench: engine %v: %w", ek, err)
		}
		cmpr.Engines = append(cmpr.Engines, EngineSeries{Engine: ek, Series: s})
	}
	return cmpr, nil
}

// SweepEnginesConflict measures one benchmark across conflict percentages
// (at the paper's fixed 200 transactions) under every execution engine.
func SweepEnginesConflict(kind workload.Kind, cfg Config, percents []int) (EngineComparison, error) {
	if percents == nil {
		percents = ConflictPercents
	}
	cmpr := EngineComparison{Kind: kind, XLabel: "conflict%", Xs: percents}
	for _, ek := range engine.Kinds() {
		ecfg := cfg
		ecfg.Engine = ek
		s, err := SweepConflict(kind, ecfg, percents)
		if err != nil {
			return EngineComparison{}, fmt.Errorf("bench: engine %v: %w", ek, err)
		}
		cmpr.Engines = append(cmpr.Engines, EngineSeries{Engine: ek, Series: s})
	}
	return cmpr, nil
}

// RunEngineComparison sweeps every benchmark under every engine on both
// axes.
func RunEngineComparison(cfg Config, sizes, percents []int) ([]EngineComparison, error) {
	var out []EngineComparison
	for _, kind := range workload.Kinds() {
		bs, err := SweepEnginesBlockSize(kind, cfg, sizes)
		if err != nil {
			return nil, err
		}
		out = append(out, bs)
		cs, err := SweepEnginesConflict(kind, cfg, percents)
		if err != nil {
			return nil, err
		}
		out = append(out, cs)
	}
	return out, nil
}
