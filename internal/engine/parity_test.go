package engine_test

// Engine parity: every engine must be a drop-in execution strategy. For
// every workload kind, a block sealed from any engine's result must pass
// the deterministic fork-join validator, and every engine's outcome must
// equal the serial execution of its own published order S (the paper's
// serializability contract). On conflict-free blocks — where no
// serialization order is observable — all engines must additionally
// produce identical receipts and state roots. (With conflicts present,
// engines legitimately discover different serializable orders: the
// speculative engine's order is whatever the lock contention resolved to,
// the OCC engine's is its commit order, the serial engine's is block
// order.)

import (
	"fmt"
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
	"contractstm/internal/validator"
	"contractstm/internal/workload"
)

// allKinds enumerates every workload, including the extension workloads
// (Token's hot account and Delegation's multi-key read sets stress OCC's
// validate-and-commit rounds harder than the paper's benchmarks).
func allKinds() []workload.Kind {
	return append(workload.Kinds(), workload.KindToken, workload.KindDelegation)
}

func genesis() chain.Header {
	return chain.GenesisHeader(types.HashString("engine-parity"))
}

func TestEngineParityAcrossWorkloads(t *testing.T) {
	for _, kind := range allKinds() {
		for _, conflict := range []int{0, 30, 80} {
			kind, conflict := kind, conflict
			t.Run(fmt.Sprintf("%v/conflict=%d", kind, conflict), func(t *testing.T) {
				wl, err := workload.Generate(workload.Params{
					Kind: kind, Transactions: 60, ConflictPercent: conflict, Seed: 7,
				})
				if err != nil {
					t.Fatalf("generate: %v", err)
				}

				for _, ek := range engine.Kinds() {
					wl.Reset()
					eng := engine.MustNew(ek)
					res, err := eng.ExecuteBlock(runtime.NewSimRunner(), wl.World, wl.Calls,
						engine.Options{Workers: 3})
					if err != nil {
						t.Fatalf("%v: ExecuteBlock: %v", ek, err)
					}
					root, err := wl.World.StateRoot()
					if err != nil {
						t.Fatalf("%v: state root: %v", ek, err)
					}

					// Every engine's sealed block must pass validation
					// against a fresh parent-state world.
					wl.Reset()
					block, _ := chain.Seal(genesis(), wl.Calls, res.Receipts, res.Schedule, res.Profiles, root)
					if _, err := validator.Validate(runtime.NewSimRunner(), wl.World, block,
						validator.Config{Workers: 3}); err != nil {
						t.Fatalf("%v: sealed block rejected: %v", ek, err)
					}

					// Every engine's outcome must equal the serial
					// execution of its own published order S.
					wl.Reset()
					replay, err := engine.RunOrdered(runtime.NewSimRunner(), wl.World, wl.Calls, res.Schedule.Order)
					if err != nil {
						t.Fatalf("%v: RunOrdered: %v", ek, err)
					}
					replayRoot, err := wl.World.StateRoot()
					if err != nil {
						t.Fatalf("%v: replay state root: %v", ek, err)
					}
					if replayRoot != root {
						t.Fatalf("%v not serializable in its order S: %s != %s", ek, replayRoot.Short(), root.Short())
					}
					for i := range res.Receipts {
						if replay.Receipts[i].Reverted != res.Receipts[i].Reverted ||
							replay.Receipts[i].GasUsed != res.Receipts[i].GasUsed {
							t.Fatalf("%v receipt %d: replay %+v != engine %+v", ek, i, replay.Receipts[i], res.Receipts[i])
						}
					}
				}
			})
		}
	}
}

func TestEnginesAgreeOnConflictFreeBlocks(t *testing.T) {
	// With no data conflicts there is no observable serialization order,
	// so all three engines must produce byte-identical receipts and state
	// roots for every workload.
	for _, kind := range allKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			wl, err := workload.Generate(workload.Params{
				Kind: kind, Transactions: 60, ConflictPercent: 0, Seed: 7,
			})
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			type outcome struct {
				receipts  []contract.Receipt
				stateRoot types.Hash
			}
			outcomes := make(map[engine.Kind]outcome)
			for _, ek := range engine.Kinds() {
				wl.Reset()
				res, err := engine.MustNew(ek).ExecuteBlock(runtime.NewSimRunner(), wl.World, wl.Calls,
					engine.Options{Workers: 3})
				if err != nil {
					t.Fatalf("%v: ExecuteBlock: %v", ek, err)
				}
				root, err := wl.World.StateRoot()
				if err != nil {
					t.Fatalf("%v: state root: %v", ek, err)
				}
				outcomes[ek] = outcome{receipts: res.Receipts, stateRoot: root}
			}
			ref := outcomes[engine.KindSerial]
			for _, ek := range engine.Kinds() {
				got := outcomes[ek]
				if got.stateRoot != ref.stateRoot {
					t.Fatalf("%v state root %s != serial %s", ek, got.stateRoot.Short(), ref.stateRoot.Short())
				}
				for i := range ref.receipts {
					if got.receipts[i].Reverted != ref.receipts[i].Reverted ||
						got.receipts[i].GasUsed != ref.receipts[i].GasUsed {
						t.Fatalf("%v receipt %d = %+v, serial %+v", ek, i, got.receipts[i], ref.receipts[i])
					}
				}
			}
		})
	}
}

func TestEngineSerializableInScheduleOrder(t *testing.T) {
	// Each engine's published serial order S must reproduce its receipts
	// and state when executed serially — the paper's core serializability
	// claim, extended to every engine.
	for _, ek := range engine.Kinds() {
		ek := ek
		t.Run(ek.String(), func(t *testing.T) {
			wl, err := workload.Generate(workload.Params{
				Kind: workload.KindMixed, Transactions: 48, ConflictPercent: 50, Seed: 11,
			})
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			eng := engine.MustNew(ek)
			res, err := eng.ExecuteBlock(runtime.NewSimRunner(), wl.World, wl.Calls,
				engine.Options{Workers: 3})
			if err != nil {
				t.Fatalf("ExecuteBlock: %v", err)
			}
			root, err := wl.World.StateRoot()
			if err != nil {
				t.Fatalf("state root: %v", err)
			}

			wl.Reset()
			replay, err := engine.RunOrdered(runtime.NewSimRunner(), wl.World, wl.Calls, res.Schedule.Order)
			if err != nil {
				t.Fatalf("RunOrdered: %v", err)
			}
			replayRoot, err := wl.World.StateRoot()
			if err != nil {
				t.Fatalf("replay state root: %v", err)
			}
			if replayRoot != root {
				t.Fatalf("serial replay of S diverged: %s != %s", replayRoot.Short(), root.Short())
			}
			for i := range res.Receipts {
				if replay.Receipts[i].Reverted != res.Receipts[i].Reverted ||
					replay.Receipts[i].GasUsed != res.Receipts[i].GasUsed {
					t.Fatalf("receipt %d: replay %+v != engine %+v", i, replay.Receipts[i], res.Receipts[i])
				}
			}
		})
	}
}

func TestEngineDeterministicOnSimRunner(t *testing.T) {
	for _, ek := range engine.Kinds() {
		ek := ek
		t.Run(ek.String(), func(t *testing.T) {
			run := func() (types.Hash, uint64) {
				wl, err := workload.Generate(workload.Params{
					Kind: workload.KindAuction, Transactions: 40, ConflictPercent: 40, Seed: 3,
				})
				if err != nil {
					t.Fatalf("generate: %v", err)
				}
				eng := engine.MustNew(ek)
				res, err := eng.ExecuteBlock(runtime.NewSimRunner(), wl.World, wl.Calls,
					engine.Options{Workers: 3})
				if err != nil {
					t.Fatalf("ExecuteBlock: %v", err)
				}
				root, err := wl.World.StateRoot()
				if err != nil {
					t.Fatalf("state root: %v", err)
				}
				return root, res.Makespan
			}
			r1, m1 := run()
			r2, m2 := run()
			if r1 != r2 || m1 != m2 {
				t.Fatalf("nondeterministic: (%s, %d) vs (%s, %d)", r1.Short(), m1, r2.Short(), m2)
			}
		})
	}
}

func TestOCCEngineRetriesUnderConflict(t *testing.T) {
	// A conflict-heavy auction block must force OCC re-execution rounds;
	// the stats must reflect them.
	wl, err := workload.Generate(workload.Params{
		Kind: workload.KindAuction, Transactions: 40, ConflictPercent: 80, Seed: 5,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	res, err := engine.OCCEngine{}.ExecuteBlock(runtime.NewSimRunner(), wl.World, wl.Calls,
		engine.Options{Workers: 3})
	if err != nil {
		t.Fatalf("ExecuteBlock: %v", err)
	}
	if res.Stats.Rounds < 2 {
		t.Fatalf("expected multiple OCC rounds at 80%% conflict, got %d", res.Stats.Rounds)
	}
	if res.Stats.Retries == 0 || len(res.Stats.RetriedTxs) == 0 {
		t.Fatalf("expected OCC retries, got stats %+v", res.Stats)
	}
}

func TestEngineParityOnOSThreads(t *testing.T) {
	// Real goroutines exercise the lock-free dispatch cursor and the OCC
	// round structure under genuine concurrency (run under -race in CI).
	// Whatever serializable order a parallel engine discovers, its block
	// must validate and its outcome must match the serial execution of its
	// published order S.
	wl, err := workload.Generate(workload.Params{
		Kind: workload.KindMixed, Transactions: 45, ConflictPercent: 40, Seed: 13,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	for _, ek := range engine.Kinds() {
		wl.Reset()
		res, err := engine.MustNew(ek).ExecuteBlock(runtime.NewOSRunner(nil), wl.World, wl.Calls,
			engine.Options{Workers: 4})
		if err != nil {
			t.Fatalf("%v: ExecuteBlock: %v", ek, err)
		}
		root, err := wl.World.StateRoot()
		if err != nil {
			t.Fatalf("%v: state root: %v", ek, err)
		}

		wl.Reset()
		block, _ := chain.Seal(genesis(), wl.Calls, res.Receipts, res.Schedule, res.Profiles, root)
		if _, err := validator.Validate(runtime.NewOSRunner(nil), wl.World, block,
			validator.Config{Workers: 4}); err != nil {
			t.Fatalf("%v: sealed block rejected: %v", ek, err)
		}

		wl.Reset()
		if _, err := engine.RunOrdered(runtime.NewOSRunner(nil), wl.World, wl.Calls, res.Schedule.Order); err != nil {
			t.Fatalf("%v: RunOrdered: %v", ek, err)
		}
		replayRoot, err := wl.World.StateRoot()
		if err != nil {
			t.Fatalf("%v: replay state root: %v", ek, err)
		}
		if replayRoot != root {
			t.Fatalf("%v not serializable in its order S on OS threads: %s != %s",
				ek, replayRoot.Short(), root.Short())
		}
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, ek := range engine.Kinds() {
		got, err := engine.ParseKind(ek.String())
		if err != nil || got != ek {
			t.Fatalf("ParseKind(%q) = %v, %v", ek.String(), got, err)
		}
	}
	if _, err := engine.ParseKind("warp-drive"); err == nil {
		t.Fatal("ParseKind accepted nonsense")
	}
}

// TestEngineIncrementalRootOverGeneratedRuns: the state root is computed
// incrementally — each block re-hashes only what it wrote, on top of
// hashes cached by the blocks before — so it is checked where writes come
// from: every engine, on simulated and on OS threads, over 20-block runs
// generated from a seed. After every block the incremental root must
// equal the root of the same contents rebuilt from nothing (the state
// stream decoded into a world that has never hashed anything), and the
// root of a serial replay of the block in its published order S.
func TestEngineIncrementalRootOverGeneratedRuns(t *testing.T) {
	const blocks, blockSize = 20, 12
	kinds := []workload.Kind{workload.KindMixed, workload.KindHotCold, workload.KindToken, workload.KindDelegation}
	runners := []struct {
		name string
		new  func() runtime.Runner
	}{
		{"sim", func() runtime.Runner { return runtime.NewSimRunner() }},
		{"os", func() runtime.Runner { return runtime.NewOSRunner(nil) }},
	}
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		params := workload.Params{
			Kind: kinds[seed%int64(len(kinds))], Transactions: blocks * blockSize,
			ConflictPercent: int(seed*23) % 90, Seed: seed,
		}
		generate := func(t *testing.T) *workload.Workload {
			wl, err := workload.Generate(params)
			if err != nil {
				t.Fatalf("seed %d: generate: %v", seed, err)
			}
			return wl
		}
		for _, ek := range engine.Kinds() {
			for _, r := range runners {
				t.Run(fmt.Sprintf("seed%d/%v/%s", seed, ek, r.name), func(t *testing.T) {
					wl, replay, rebuilt := generate(t), generate(t), generate(t)
					for b := 0; b < blocks; b++ {
						fail := func(format string, args ...any) {
							t.Helper()
							t.Fatalf("seed %d (%v, conflict %d), block %d: %s",
								seed, params.Kind, params.ConflictPercent, b+1, fmt.Sprintf(format, args...))
						}
						calls := wl.Calls[b*blockSize : (b+1)*blockSize]
						res, err := engine.MustNew(ek).ExecuteBlock(r.new(), wl.World, calls, engine.Options{Workers: 3})
						if err != nil {
							fail("ExecuteBlock: %v", err)
						}
						root, err := wl.World.StateRoot()
						if err != nil {
							fail("state root: %v", err)
						}

						state, err := wl.World.EncodeState()
						if err != nil {
							fail("encode state: %v", err)
						}
						if err := rebuilt.World.RestoreState(state); err != nil {
							fail("rebuild: %v", err)
						}
						if scratch, err := rebuilt.World.StateRoot(); err != nil || scratch != root {
							fail("incremental root %s, rebuilt from nothing %s (err %v)", root.Short(), scratch.Short(), err)
						}

						if _, err := engine.RunOrdered(runtime.NewSimRunner(), replay.World, calls, res.Schedule.Order); err != nil {
							fail("RunOrdered: %v", err)
						}
						if serial, err := replay.World.StateRoot(); err != nil || serial != root {
							fail("incremental root %s, serial replay in order S %s (err %v)", root.Short(), serial.Short(), err)
						}
					}
				})
			}
		}
	}
}
