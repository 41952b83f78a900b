package engine_test

import (
	"fmt"
	"slices"
	"testing"

	"contractstm/internal/engine"
	"contractstm/internal/runtime"
	"contractstm/internal/sched"
	"contractstm/internal/workload"
)

// TestLockTableScheduleMatchesProfiles pins that every engine's (S, H),
// read off the lock table's per-lock histories, is exactly the (S, H) that
// sched.BuildSchedule derives from the profiles the block publishes — the
// derivation anyone holding only a block uses. It runs every engine on
// every workload kind at no, half and full conflict with one to three
// workers, on simulated and on OS threads (the latter under -race in CI,
// repeatedly).
func TestLockTableScheduleMatchesProfiles(t *testing.T) {
	const txs = 30
	runners := []struct {
		name string
		new  func() runtime.Runner
	}{
		{"sim", func() runtime.Runner { return runtime.NewSimRunner() }},
		{"os", func() runtime.Runner { return runtime.NewOSRunner(nil) }},
	}
	for _, eng := range engine.Kinds() {
		edges := 0
		for _, kind := range workload.AllKinds() {
			for _, conflict := range []int{0, 50, 100} {
				wl, err := workload.Generate(workload.Params{Kind: kind, Transactions: txs, ConflictPercent: conflict, Seed: 5})
				if err != nil {
					t.Fatalf("%v/conflict=%d: generate: %v", kind, conflict, err)
				}
				for workers := 1; workers <= 3; workers++ {
					for _, r := range runners {
						name := fmt.Sprintf("%v/%v/conflict=%d/W=%d/%s", eng, kind, conflict, workers, r.name)
						wl.Reset()
						res, err := engine.MustNew(eng).ExecuteBlock(r.new(), wl.World, wl.Calls, engine.Options{Workers: workers})
						if err != nil {
							t.Fatalf("%s: ExecuteBlock: %v", name, err)
						}
						want, _, err := sched.BuildSchedule(len(wl.Calls), res.Profiles)
						if err != nil {
							t.Fatalf("%s: BuildSchedule(profiles): %v", name, err)
						}
						if !slices.Equal(res.Schedule.Edges, want.Edges) {
							t.Fatalf("%s: H from the lock table has edges %v, from the profiles %v", name, res.Schedule.Edges, want.Edges)
						}
						if !slices.Equal(res.Schedule.Order, want.Order) {
							t.Fatalf("%s: S from the lock table is %v, from the profiles %v", name, res.Schedule.Order, want.Order)
						}
						edges += len(want.Edges)
					}
				}
			}
		}
		if edges == 0 {
			t.Fatalf("%v: no block had a happens-before edge: the comparison proved nothing", eng)
		}
	}
}
