package engine_test

import (
	"errors"
	"testing"

	"contractstm/internal/engine"
	"contractstm/internal/runtime"
	"contractstm/internal/sched"
	"contractstm/internal/stm"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

// spanRunner records the makespan of the last run it served.
type spanRunner struct {
	runtime.Runner
	span uint64
}

func (r *spanRunner) Run(workers int, body func(runtime.Thread)) (uint64, error) {
	span, err := r.Runner.Run(workers, body)
	r.span = span
	return span, err
}

// TestReplayStopsAtFirstMismatch: once one task's trace differs from its
// profile, the tasks that have not started return without executing. On
// one simulated worker, a block whose every profile is empty costs one
// transaction's replay, not the block's.
func TestReplayStopsAtFirstMismatch(t *testing.T) {
	wl, err := workload.Generate(workload.Params{Kind: workload.KindBallot, Transactions: 40, Seed: 3})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	res, err := engine.MustNew(engine.KindSerial).ExecuteBlock(runtime.NewSimRunner(), wl.World, wl.Calls, engine.Options{Workers: 1})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	plan, _, err := sched.ConstructValidator(len(wl.Calls), res.Schedule)
	if err != nil {
		t.Fatalf("construct: %v", err)
	}

	wl.Reset()
	full := &spanRunner{Runner: runtime.NewSimRunner()}
	if _, err := engine.Replay(full, wl.World, wl.Calls, res.Profiles, plan, 1); err != nil {
		t.Fatalf("honest replay: %v", err)
	}

	wl.Reset()
	empty := make([]stm.Profile, len(wl.Calls))
	for i := range empty {
		empty[i].Tx = types.TxID(i)
	}
	stopped := &spanRunner{Runner: runtime.NewSimRunner()}
	if _, err := engine.Replay(stopped, wl.World, wl.Calls, empty, plan, 1); !errors.Is(err, engine.ErrTraceMismatch) {
		t.Fatalf("err = %v, want ErrTraceMismatch", err)
	}
	if stopped.span*10 > full.span {
		t.Errorf("replay ran on after the first mismatch: %d of the honest replay's %d gas-time", stopped.span, full.span)
	}
}
