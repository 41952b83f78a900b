// Package bench is the evaluation harness: it reproduces every table and
// figure of the paper's §7 on top of the deterministic simulated-time
// runtime (see DESIGN.md for the substitution rationale) and, optionally,
// on real OS threads.
//
// Protocol, mirroring §7.2: for each benchmark and parameter combination,
// a block is generated once; the serial miner, the parallel miner (3
// workers) and the validator (3 workers) each run it from the same initial
// state; speedup is serial time divided by the variant's time. The paper
// takes 3 warm-up runs and 5 measured runs because JVM timings are noisy;
// simulated virtual time is exact, so by default one measured run suffices
// and the standard deviation is zero (configurable for real-time mode).
package bench

import (
	"fmt"

	"contractstm/internal/chain"
	"contractstm/internal/engine"
	"contractstm/internal/miner"
	"contractstm/internal/runtime"
	"contractstm/internal/sched"
	"contractstm/internal/stm"
	"contractstm/internal/types"
	"contractstm/internal/validator"
	"contractstm/internal/workload"
)

// Mode selects the time base.
type Mode int

const (
	// ModeSim measures deterministic virtual time (gas units) on the
	// discrete-event simulator. This is the default.
	ModeSim Mode = iota + 1
	// ModeReal measures wall-clock nanoseconds on OS threads with a
	// calibrated CPU burn per gas unit. Only meaningful on multi-core
	// hosts.
	ModeReal
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeSim:
		return "sim"
	case ModeReal:
		return "real"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config tunes the harness.
type Config struct {
	// Workers is the pool size for both miner and validator (paper: 3).
	Workers int
	// Runs is the number of measured repetitions (paper: 5; sim default 1).
	Runs int
	// Warmups is the number of unmeasured repetitions (paper: 3; sim
	// default 0 — virtual time has no warm-up effects).
	Warmups int
	// Mode selects simulated or real time.
	Mode Mode
	// Policy selects the speculative write policy (default eager).
	Policy stm.Policy
	// BurnFactor calibrates ModeReal CPU burn per gas unit.
	BurnFactor int
	// InterferencePerMille models shared-resource contention between
	// concurrently active simulated cores (ModeSim only): each unit of
	// work costs an extra k/1000 per additional active thread. The default
	// (150) reproduces the ~0.7 parallel efficiency visible in the paper's
	// JVM measurements; set to a negative value for ideal cores.
	InterferencePerMille int
	// Engine selects the block-execution engine measured as "the miner"
	// (default speculative — the paper's Algorithm 1). The serial baseline
	// and the validator runs are unaffected, so speedups stay comparable
	// across engines.
	Engine engine.Kind
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 3
	}
	if c.Mode == 0 {
		c.Mode = ModeSim
	}
	if c.Runs <= 0 {
		c.Runs = 1
		if c.Mode == ModeReal {
			c.Runs = 5
		}
	}
	if c.Warmups < 0 {
		c.Warmups = 0
	} else if c.Warmups == 0 && c.Mode == ModeReal {
		c.Warmups = 3
	}
	if c.Policy == 0 {
		c.Policy = stm.PolicyEager
	}
	if c.BurnFactor <= 0 {
		c.BurnFactor = 8
	}
	if c.InterferencePerMille == 0 {
		c.InterferencePerMille = DefaultInterferencePerMille
	} else if c.InterferencePerMille < 0 {
		c.InterferencePerMille = 0
	}
	if c.Engine == 0 {
		c.Engine = engine.KindSpeculative
	}
	return c
}

// DefaultInterferencePerMille is the default simulated memory-contention
// factor; see Config.InterferencePerMille.
const DefaultInterferencePerMille = 150

func (c Config) runner() runtime.Runner {
	if c.Mode == ModeReal {
		return runtime.NewOSRunner(runtime.SpinBurn(c.BurnFactor))
	}
	return runtime.NewSimRunnerInterference(c.InterferencePerMille)
}

// Measurement is one (benchmark, parameters) data point.
type Measurement struct {
	Params workload.Params
	// SerialTime, MinerTime and ValidatorTime are per-run durations in the
	// mode's unit (virtual gas-time or nanoseconds).
	SerialTime    Sample
	MinerTime     Sample
	ValidatorTime Sample
	// MinerSpeedup and ValidatorSpeedup are serial/variant mean ratios —
	// the paper's "Speedup Over Serial".
	MinerSpeedup     float64
	ValidatorSpeedup float64
	// Retries counts discarded execution attempts in the last mining run
	// (speculative aborts or OCC re-executions).
	Retries int
	// Rounds counts OCC validate-and-commit rounds in the last mining run
	// (1 for the other engines).
	Rounds int
	// Edges and CriticalPath describe the last run's published schedule.
	Edges        int
	CriticalPath uint64
}

// Measure runs the full protocol for one parameter combination.
func Measure(p workload.Params, cfg Config) (Measurement, error) {
	cfg = cfg.withDefaults()
	wl, err := workload.Generate(p)
	if err != nil {
		return Measurement{}, fmt.Errorf("bench: generate: %w", err)
	}
	parent := chain.GenesisHeader(types.HashString("bench-genesis"))
	m := Measurement{Params: p}

	eng, err := engine.New(cfg.Engine)
	if err != nil {
		return Measurement{}, fmt.Errorf("bench: %w", err)
	}
	mopts := engine.Options{Workers: cfg.Workers, Policy: cfg.Policy}
	vcfg := validator.Config{Workers: cfg.Workers}

	// The serial baseline mirrors the paper's: the same instrumented
	// (speculative) code run on a single thread — "a serial miner that runs
	// the block without parallelization" (§7.2). A single worker pays the
	// STM bookkeeping but never waits or aborts. It is the common
	// denominator for every engine's speedup.
	scfg := miner.Config{Workers: 1, Policy: cfg.Policy}

	total := cfg.Warmups + cfg.Runs
	for run := 0; run < total; run++ {
		measured := run >= cfg.Warmups

		wl.Reset()
		serial, err := miner.MineParallel(cfg.runner(), wl.World, parent, wl.Calls, scfg)
		if err != nil {
			return Measurement{}, fmt.Errorf("bench: serial: %w", err)
		}

		wl.Reset()
		mres, err := miner.Mine(eng, cfg.runner(), wl.World, parent, wl.Calls, mopts)
		if err != nil {
			return Measurement{}, fmt.Errorf("bench: mine (%v): %w", cfg.Engine, err)
		}

		wl.Reset()
		vres, err := validator.Validate(cfg.runner(), wl.World, mres.Block, vcfg)
		if err != nil {
			return Measurement{}, fmt.Errorf("bench: validate (%v block): %w", cfg.Engine, err)
		}

		if !measured {
			continue
		}
		m.SerialTime.Add(float64(serial.Makespan))
		m.MinerTime.Add(float64(mres.Makespan))
		m.ValidatorTime.Add(float64(vres.Makespan))
		m.Retries = mres.Stats.Retries
		m.Rounds = mres.Stats.Rounds
		m.Edges = mres.Graph.EdgeCount()
		if metrics, err := sched.Metrics(mres.Graph); err == nil {
			m.CriticalPath = metrics.CriticalPathLen
		}
	}
	if mt := m.MinerTime.Mean(); mt > 0 {
		m.MinerSpeedup = m.SerialTime.Mean() / mt
	}
	if vt := m.ValidatorTime.Mean(); vt > 0 {
		m.ValidatorSpeedup = m.SerialTime.Mean() / vt
	}
	return m, nil
}
