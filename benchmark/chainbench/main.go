// Command chainbench is the repository's benchmark: one workload per
// invocation, run through a fixed sequence of phases that drive every
// layer of the node from outside, through public functions only.
//
//	A setup    generate leader and follower worlds, build nodes, start servers
//	B exec     serial / speculative / OCC mining and validation, interleaved per block
//	C ingest → drain over HTTP, with a durable validating follower
//	D receipt rounds: last submit → durable receipt event
//	E recover  reopen the leader's data dir (WAL replay through the validator)
//	F sync     a fresh node catches up from the leader over HTTP
//	G per-layer probes (traced run only)
//
// They run in the order B, then A and C once per rep, E and F on the
// last rep's chain, and A, D and G on a pair of their own.
//
// -trace 0 prints the end-to-end metrics; -trace 1 repeats phases B–D
// with spans around each public call and prints the per-layer metrics.
// The last line of standard output is one JSON object: correct,
// attempted, failed, metrics. See ../README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"syscall"
	"time"

	"contractstm/internal/node"
)

// run is one invocation's state.
type run struct {
	spec    spec
	seed    int64
	workers int
	// dataRoot holds this run's data dirs; removed when the run ends.
	dataRoot string
	outDir   string
	rep      *report
	// trace is nil on the untraced (end-to-end) run.
	trace *tracer

	execTimes  execTimes
	chainTimes chainTimes
	setups     []float64
	// untracedCommit holds the first rep's commit intervals on a traced
	// run, where that rep runs without spans.
	untracedCommit []float64
	// phaseWall lists each phase's wall-clock time for the report.
	phaseWall []string

	// The traced run's state: samples per layer key, the probe WAL of
	// phase B, the shadow world of phase D, the state size and the
	// leader's WAL counters after the last drain.
	layerMu   sync.Mutex
	layer     map[string][]float64
	execPath  *blockPath
	shadow    *shadow
	stateKB   float64
	walStatus node.Status
}

// timePhase notes how long a phase took; the sizing of every
// repetition count is read off these lines.
func (r *run) timePhase(name string, start time.Time) {
	r.phaseWall = append(r.phaseWall, fmt.Sprintf("%s=%.2fs", name, time.Since(start).Seconds()))
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chainbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name (exec_lowconflict, exec_highconflict, ingest_smalltx, bigstate_reads)")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same worlds and calls")
	secs := fs.Int("seconds", refSeconds, "run length the repetition counts are scaled to")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	quick := fs.Bool("quick", false, "smoke test: two units per phase")
	outDir := fs.String("out", "out", "directory for data dirs and the trace file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := specByName(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "chainbench:", err)
		return 2
	}
	if *secs < 1 {
		fmt.Fprintln(stderr, "chainbench: -seconds must be at least 1")
		return 2
	}
	if *quick {
		sp = sp.quick()
	} else {
		sp = sp.scaled(float64(*secs) / refSeconds)
	}

	r := &run{spec: sp, seed: *seed, workers: workers(), outDir: *outDir, rep: newReport()}
	if *traced != 0 {
		r.trace = newTracer()
		r.layer = make(map[string][]float64)
	}
	if err := r.execute(stdout); err != nil {
		fmt.Fprintln(stderr, "chainbench:", err)
		return 1
	}
	if r.rep.failed > 0 {
		return 1
	}
	return 0
}

// execute runs the phases and prints the report. Any error aborts the
// run without a result line: a benchmark that could not finish has
// nothing to report.
func (r *run) execute(stdout io.Writer) error {
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(r.outDir, "data-"+r.spec.name+"-")
	if err != nil {
		return err
	}
	r.dataRoot = root
	defer os.RemoveAll(root)

	r.printProfile(stdout)
	start := time.Now()
	if err := r.phaseExec(); err != nil {
		return fmt.Errorf("phase B (exec): %w", err)
	}
	r.timePhase("B", start)
	r.calibrate()
	if err := r.phaseChain(); err != nil {
		return err
	}
	if r.trace != nil {
		r.layerMetrics(stdout)
		path := filepath.Join(r.outDir, "trace-"+r.spec.name+".json")
		if err := r.trace.writeFile(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: %d spans written to %s\n", len(r.trace.spans), path)
	}
	fmt.Fprintf(stdout, "wall_s %.2f %v\n", time.Since(start).Seconds(), r.phaseWall)
	return r.rep.write(stdout)
}

// printProfile records the machine the numbers were measured on.
func (r *run) printProfile(w io.Writer) {
	var st syscall.Statfs_t
	fsType := "unknown"
	if err := syscall.Statfs(r.dataRoot, &st); err == nil {
		names := map[int64]string{0xef53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683e: "btrfs", 0x794c7630: "overlayfs"}
		if fsType = names[int64(st.Type)]; fsType == "" {
			fsType = fmt.Sprintf("0x%x", st.Type)
		}
	}
	fmt.Fprintf(w, "workload %s seed %d trace %t\n", r.spec.name, r.seed, r.trace != nil)
	fmt.Fprintf(w, "machine nproc=%d GOMAXPROCS=%d workers=%d go=%s data_dir_fs=%s\n",
		goruntime.NumCPU(), goruntime.GOMAXPROCS(0), r.workers, goruntime.Version(), fsType)
}
