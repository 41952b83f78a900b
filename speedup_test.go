package contractstm_test

import (
	"fmt"
	goruntime "runtime"
	"testing"

	"contractstm/internal/bench"
	"contractstm/internal/chain"
	"contractstm/internal/engine"
	"contractstm/internal/gas"
	"contractstm/internal/miner"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
	"contractstm/internal/validator"
	"contractstm/internal/workload"
)

// The speedup sweep: the paper's roles timed in wall-clock on OS threads,
// over Table 1's four workloads (200 transactions at 15 % conflict), a
// 500-transfer token block, and SimpleAuction, Ballot and Token at 60 %
// and 100 % conflict (cells named like Token-c60), each with no compute
// and with SpinBurn(64), at W = 1 … max(3, nproc) workers. Run it with
//
//	go test -run '^$' -bench BenchmarkSpeedup -benchtime 1x .
//
// Each cell reports ns/op, B/op, allocs/op and its speedup over the serial
// miner on the same block; a block's serial cell runs first, so a -bench
// filter must keep it for the others to report a speedup. The numbers mean
// nothing without the core count, so every cell also reports nproc and
// GOMAXPROCS.
//
// A whole-grid run is not before/after evidence on a 2-core machine, even
// at -benchtime 20x: between two test binaries whose functions sat at
// identical addresses, the median cell moved −9.9 … +12.8 % from run to
// run, and 8 of 100 cells left the parent's own interquartile range. To
// compare a cell across commits, run that cell alone, alternating the two
// binaries, at least 16 times each, e.g.
//
//	go test -c -o new.test . && ./new.test -test.run '^$' \
//	    -test.bench 'BenchmarkSpeedup/Token/spin=0/serial$' -test.benchtime 20x

// speedupBlocks are the sweep's blocks, the high-conflict ones last.
func speedupBlocks() []workload.Params {
	var ps []workload.Params
	for _, k := range workload.Kinds() {
		ps = append(ps, workload.Params{
			Kind: k, Transactions: bench.SweepTransactionsFixed,
			ConflictPercent: bench.SweepConflictFixed, Seed: bench.DefaultSeed,
		})
	}
	ps = append(ps, workload.Params{
		Kind: workload.KindToken, Transactions: 500,
		ConflictPercent: bench.SweepConflictFixed, Seed: bench.DefaultSeed,
	})
	for _, conflict := range []int{60, 100} {
		for _, k := range []workload.Kind{workload.KindAuction, workload.KindBallot, workload.KindToken} {
			n := bench.SweepTransactionsFixed
			if k == workload.KindToken {
				n = 500
			}
			ps = append(ps, workload.Params{Kind: k, Transactions: n, ConflictPercent: conflict, Seed: bench.DefaultSeed})
		}
	}
	return ps
}

// speedupName names a block's cells: its kind, and its conflict when that
// is not the sweep's 15 %, as in Token-c60.
func speedupName(p workload.Params) string {
	if p.ConflictPercent == bench.SweepConflictFixed {
		return p.Kind.String()
	}
	return fmt.Sprintf("%v-c%d", p.Kind, p.ConflictPercent)
}

// speedupSpins are the SpinBurn factors: none, and 64 iterations of a
// xorshift loop per unit of modelled gas.
var speedupSpins = []int{0, 64}

// speedupRoles are the timed roles after the serial miner, each swept over
// the worker counts.
var speedupRoles = []string{"speculative", "occ", "validator"}

// speedupWorkers returns W = 1 … max(3, nproc).
func speedupWorkers() []int {
	ws := make([]int, max(3, goruntime.NumCPU()))
	for i := range ws {
		ws[i] = i + 1
	}
	return ws
}

// speedupCell is one block of the sweep, ready for every role.
type speedupCell struct {
	wl *workload.Workload
	// block is what the validator validates: the speculative miner's
	// block at three workers on the simulated runner, the paper's setup.
	block chain.Block
}

var speedupParent = chain.GenesisHeader(types.HashString("bench-genesis"))

func newSpeedupCell(p workload.Params) (*speedupCell, error) {
	wl, err := workload.Generate(p)
	if err != nil {
		return nil, err
	}
	res, err := miner.Mine(engine.SpeculativeEngine{}, runtime.NewSimRunner(), wl.World, speedupParent, wl.Calls, engine.Options{Workers: 3})
	if err != nil {
		return nil, err
	}
	wl.Reset()
	return &speedupCell{wl: wl, block: res.Block}, nil
}

// run executes role once from the parent state on OS threads that burn
// spin, and returns the block it mined or validated. It leaves the world
// at that block's post-state.
func (c *speedupCell) run(role string, workers int, burn func(gas.Gas)) (chain.Block, error) {
	r := runtime.NewOSRunner(burn)
	if role == "validator" {
		_, err := validator.Validate(r, c.wl.World, c.block, validator.Config{Workers: workers})
		return c.block, err
	}
	k, err := engine.ParseKind(role)
	if err != nil {
		return chain.Block{}, err
	}
	res, err := miner.Mine(engine.MustNew(k), r, c.wl.World, speedupParent, c.wl.Calls, engine.Options{Workers: workers})
	return res.Block, err
}

func BenchmarkSpeedup(b *testing.B) {
	for _, p := range speedupBlocks() {
		cell, err := newSpeedupCell(p)
		if err != nil {
			b.Fatalf("%s: %v", speedupName(p), err)
		}
		for _, spin := range speedupSpins {
			burn := runtime.SpinBurn(spin)
			var serialNs float64
			timed := func(role string, workers int) func(b *testing.B) {
				return func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						cell.wl.Reset()
						b.StartTimer()
						if _, err := cell.run(role, workers, burn); err != nil {
							b.Fatalf("%s: %v", role, err)
						}
					}
					ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
					if role == "serial" {
						serialNs = ns
					}
					if serialNs > 0 {
						b.ReportMetric(serialNs/ns, "speedup")
					}
					b.ReportMetric(float64(goruntime.NumCPU()), "nproc")
					b.ReportMetric(float64(goruntime.GOMAXPROCS(0)), "gomaxprocs")
				}
			}
			name := fmt.Sprintf("%s/spin=%d", speedupName(p), spin)
			b.Run(name+"/serial", timed("serial", 1))
			for _, role := range speedupRoles {
				for _, w := range speedupWorkers() {
					b.Run(fmt.Sprintf("%s/%s/W=%d", name, role, w), timed(role, w))
				}
			}
		}
	}
}

// TestSpeedupCellsAgree runs every cell of BenchmarkSpeedup once and
// checks that each role ends at the state root of a serial execution
// (engine.RunOrdered) of the role's order S, so the sweep cannot rot. An
// auction's outcome depends on the order of its bids, so on the Auction
// and Mixed blocks a parallel role's S, and with it its root, may differ
// from the serial miner's block order.
func TestSpeedupCellsAgree(t *testing.T) {
	for _, p := range speedupBlocks() {
		cell, err := newSpeedupCell(p)
		if err != nil {
			t.Fatalf("%s: %v", speedupName(p), err)
		}
		for _, spin := range speedupSpins {
			burn := runtime.SpinBurn(spin)
			check := func(role string, w int) {
				t.Helper()
				cell.wl.Reset()
				b, err := cell.run(role, w, burn)
				if err != nil {
					t.Fatalf("%s spin=%d %s W=%d: %v", speedupName(p), spin, role, w, err)
				}
				cell.wl.Reset()
				if _, err := engine.RunOrdered(runtime.NewSimRunner(), cell.wl.World, cell.wl.Calls, b.Schedule.Order); err != nil {
					t.Fatalf("%s spin=%d %s W=%d: serial execution of S: %v", speedupName(p), spin, role, w, err)
				}
				if want, err := cell.wl.World.StateRoot(); err != nil || b.Header.StateRoot != want {
					t.Errorf("%s spin=%d %s W=%d: state root %s, serial execution of its S %s (err %v)",
						speedupName(p), spin, role, w, b.Header.StateRoot.Short(), want.Short(), err)
				}
			}
			check("serial", 1)
			for _, role := range speedupRoles {
				for _, w := range speedupWorkers() {
					check(role, w)
				}
			}
		}
	}
}
