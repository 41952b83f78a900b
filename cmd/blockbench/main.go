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
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "blockbench:", err)
		os.Exit(1)
	}
}

// writeCSV emits one sweep's data points to path ("" = no CSV wanted) and
// reports the file on stdout.
func writeCSV(stdout io.Writer, path string, emit func(io.Writer)) error {
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
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}

// run parses args (without the program name) and writes the requested
// tables to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("blockbench", flag.ExitOnError)
	var (
		table1    = fs.Bool("table1", false, "print Table 1 (average speedups)")
		figure1   = fs.Bool("figure1", false, "print Figure 1 series (speedups over block size and conflict)")
		appendixB = fs.Bool("appendixb", false, "print Appendix B (running times, mean ± stddev)")
		csvPath   = fs.String("csv", "", "write all data points to this CSV file")
		quick     = fs.Bool("quick", false, "use reduced sweeps")
		workers   = fs.Int("workers", 3, "miner/validator pool size (paper: 3)")
		runs      = fs.Int("runs", 0, "measured runs per point (default: 1 sim, 5 real)")
		warmups   = fs.Int("warmups", 0, "warm-up runs per point (default: 0 sim, 3 real)")
		mode      = fs.String("mode", "sim", `time base: "sim" (deterministic virtual time) or "real" (wall clock)`)
		policy    = fs.String("policy", "eager", `speculative write policy: "eager" or "lazy"`)
		engName   = fs.String("engine", "speculative", `execution engine measured as the miner: "serial", "speculative" or "occ"`)
		engines   = fs.Bool("engines", false, "print the engine comparison (every benchmark under every engine)")
		interfere = fs.Int("interference", bench.DefaultInterferencePerMille,
			"simulated memory contention in per-mille per extra active core; negative = ideal cores")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

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
	fmt.Fprintf(stdout, "blockbench: mode=%s workers=%d policy=%s engine=%s sizes=%v conflicts=%v\n\n",
		cfg.Mode, *workers, cfg.Policy, engLabel, sizes, conflicts)

	if *engines {
		cmps, err := bench.RunEngineComparison(cfg, sizes, conflicts)
		if err != nil {
			return err
		}
		for _, c := range cmps {
			bench.WriteEngineComparison(stdout, c)
		}
		return writeCSV(stdout, *csvPath, func(w io.Writer) { bench.WriteEngineCSV(w, cmps) })
	}

	figs, table, err := bench.RunAll(cfg, sizes, conflicts)
	if err != nil {
		return err
	}

	if all || *figure1 {
		for _, f := range figs {
			bench.WriteFigure1(stdout, f)
		}
	}
	if all || *appendixB {
		for _, f := range figs {
			bench.WriteAppendixB(stdout, f, bench.TimeUnit(cfg.Mode))
		}
	}
	if all || *table1 {
		bench.WriteTable1(stdout, table)
	}
	return writeCSV(stdout, *csvPath, func(w io.Writer) { bench.WriteCSV(w, figs) })
}
