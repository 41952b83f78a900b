// Command blockbench regenerates the paper's evaluation (§7): Table 1,
// every Figure 1 chart, and the Appendix B running-time charts, over the
// deterministic simulated-time runtime (or real OS threads with -mode
// real on multi-core hosts).
//
// Usage:
//
//	blockbench                     # everything: figure 1, table 1, appendix B
//	blockbench -table1             # only Table 1
//	blockbench -figure1            # only Figure 1 series
//	blockbench -appendixb          # only Appendix B times
//	blockbench -engines            # engine comparison: serial vs speculative vs occ
//	blockbench -engine occ         # run the sweeps with a specific engine as the miner
//	blockbench -csv out.csv        # also write every data point as CSV
//	blockbench -quick              # reduced sweeps (fast sanity run)
//	blockbench -workers 3 -runs 5  # pool size and repetitions
//	blockbench -mode real          # wall-clock mode (multi-core hosts)
//	blockbench -policy lazy        # lazy speculative writes ablation
//	blockbench -interference -1    # ideal simulated cores (no contention)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"contractstm/internal/bench"
	"contractstm/internal/engine"
	"contractstm/internal/stm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "blockbench:", err)
		os.Exit(1)
	}
}

// writeCSV emits one sweep's data points to path ("" = no CSV wanted).
func writeCSV(path string, emit func(io.Writer)) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create csv: %w", err)
	}
	emit(f)
	if err := f.Close(); err != nil {
		return fmt.Errorf("close csv: %w", err)
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func run() error {
	var (
		table1    = flag.Bool("table1", false, "print Table 1 (average speedups)")
		figure1   = flag.Bool("figure1", false, "print Figure 1 series (speedups over block size and conflict)")
		appendixB = flag.Bool("appendixb", false, "print Appendix B (running times, mean ± stddev)")
		csvPath   = flag.String("csv", "", "write all data points to this CSV file")
		quick     = flag.Bool("quick", false, "use reduced sweeps")
		workers   = flag.Int("workers", 3, "miner/validator pool size (paper: 3)")
		runs      = flag.Int("runs", 0, "measured runs per point (default: 1 sim, 5 real)")
		warmups   = flag.Int("warmups", 0, "warm-up runs per point (default: 0 sim, 3 real)")
		mode      = flag.String("mode", "sim", `time base: "sim" (deterministic virtual time) or "real" (wall clock)`)
		policy    = flag.String("policy", "eager", `speculative write policy: "eager" or "lazy"`)
		engName   = flag.String("engine", "speculative", `execution engine measured as the miner: "serial", "speculative" or "occ"`)
		engines   = flag.Bool("engines", false, "print the engine comparison (every benchmark under every engine)")
		interfere = flag.Int("interference", bench.DefaultInterferencePerMille,
			"simulated memory contention in per-mille per extra active core; negative = ideal cores")
	)
	flag.Parse()

	all := !*table1 && !*figure1 && !*appendixB && !*engines
	cfg := bench.Config{
		Workers:              *workers,
		Runs:                 *runs,
		Warmups:              *warmups,
		InterferencePerMille: *interfere,
	}
	engKind, err := engine.ParseKind(*engName)
	if err != nil {
		return err
	}
	cfg.Engine = engKind
	switch *mode {
	case "sim":
		cfg.Mode = bench.ModeSim
	case "real":
		cfg.Mode = bench.ModeReal
	default:
		return fmt.Errorf("unknown -mode %q", *mode)
	}
	switch *policy {
	case "eager":
		cfg.Policy = stm.PolicyEager
	case "lazy":
		cfg.Policy = stm.PolicyLazy
	default:
		return fmt.Errorf("unknown -policy %q", *policy)
	}

	sizes, conflicts := bench.BlockSizes, bench.ConflictPercents
	if *quick {
		sizes = []int{10, 50, 200, 400}
		conflicts = []int{0, 50, 100}
	}

	engLabel := cfg.Engine.String()
	if *engines {
		engLabel = "all"
	}
	fmt.Printf("blockbench: mode=%s workers=%d policy=%s engine=%s sizes=%v conflicts=%v\n\n",
		cfg.Mode, *workers, cfg.Policy, engLabel, sizes, conflicts)

	if *engines {
		cmps, err := bench.RunEngineComparison(cfg, sizes, conflicts)
		if err != nil {
			return err
		}
		for _, c := range cmps {
			bench.WriteEngineComparison(os.Stdout, c)
		}
		return writeCSV(*csvPath, func(w io.Writer) { bench.WriteEngineCSV(w, cmps) })
	}

	figs, table, err := bench.RunAll(cfg, sizes, conflicts)
	if err != nil {
		return err
	}

	if all || *figure1 {
		for _, f := range figs {
			bench.WriteFigure1(os.Stdout, f)
		}
	}
	if all || *appendixB {
		for _, f := range figs {
			bench.WriteAppendixB(os.Stdout, f, bench.TimeUnit(cfg.Mode))
		}
	}
	if all || *table1 {
		bench.WriteTable1(os.Stdout, table)
	}
	return writeCSV(*csvPath, func(w io.Writer) { bench.WriteCSV(w, figs) })
}
