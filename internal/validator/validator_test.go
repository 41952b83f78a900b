package validator

import (
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/gas"
	"contractstm/internal/miner"
	"contractstm/internal/runtime"
	"contractstm/internal/sched"
	"contractstm/internal/stm"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

func genesis() chain.Header { return chain.GenesisHeader(types.HashString("test-genesis")) }

// mineBlock generates a workload, mines it in parallel, and returns the
// workload (reset to pre-block state) plus the mined block.
func mineBlock(t *testing.T, p workload.Params) (*workload.Workload, chain.Block) {
	t.Helper()
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	res, err := miner.Mine(engine.SpeculativeEngine{}, runtime.NewSimRunner(), w.World, genesis(), w.Calls, engine.Options{Workers: 3})
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	w.Reset()
	return w, res.Block
}

// reseal recomputes header commitments after (malicious) body edits, so
// tampering tests exercise the validator's semantic checks rather than the
// cheap commitment comparison.
func reseal(b chain.Block) chain.Block {
	sealed, _ := chain.Seal(genesis(), b.Calls, b.Receipts, b.Schedule, b.Profiles, b.Header.StateRoot)
	return sealed
}

func TestValidateHonestBlocks(t *testing.T) {
	for _, kind := range workload.Kinds() {
		for _, conflict := range []int{0, 15, 50, 100} {
			kind, conflict := kind, conflict
			t.Run(kind.String()+"/"+strconv.Itoa(conflict), func(t *testing.T) {
				w, block := mineBlock(t, workload.Params{
					Kind: kind, Transactions: 40, ConflictPercent: conflict, Seed: 42,
				})
				res, err := Validate(runtime.NewSimRunner(), w.World, block, Config{Workers: 3})
				if err != nil {
					t.Fatalf("honest block rejected: %v", err)
				}
				if len(res.Receipts) != 40 {
					t.Fatalf("receipts = %d", len(res.Receipts))
				}
			})
		}
	}
}

func TestValidateHonestBlockVariousWorkers(t *testing.T) {
	// "The validator is not required to match the miner's level of
	// parallelism" (§4).
	for _, workers := range []int{1, 2, 3, 6} {
		w, block := mineBlock(t, workload.Params{
			Kind: workload.KindMixed, Transactions: 45, ConflictPercent: 30, Seed: 5,
		})
		if _, err := Validate(runtime.NewSimRunner(), w.World, block, Config{Workers: workers}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

func TestValidateOnOSThreads(t *testing.T) {
	w, err := workload.Generate(workload.Params{
		Kind: workload.KindMixed, Transactions: 40, ConflictPercent: 20, Seed: 17,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	res, err := miner.Mine(engine.SpeculativeEngine{}, runtime.NewOSRunner(nil), w.World, genesis(), w.Calls, engine.Options{Workers: 4})
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	w.Reset()
	if _, err := Validate(runtime.NewOSRunner(nil), w.World, res.Block, Config{Workers: 4}); err != nil {
		t.Fatalf("validate on OS threads: %v", err)
	}
}

func TestValidateRejectsTamperedStateRoot(t *testing.T) {
	w, block := mineBlock(t, workload.Params{
		Kind: workload.KindBallot, Transactions: 30, ConflictPercent: 15, Seed: 1,
	})
	block.Header.StateRoot = types.HashString("lies")
	if _, err := Validate(runtime.NewSimRunner(), w.World, block, Config{Workers: 3}); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
}

func TestValidateRejectsBodyTamperingWithoutReseal(t *testing.T) {
	w, block := mineBlock(t, workload.Params{
		Kind: workload.KindBallot, Transactions: 30, ConflictPercent: 15, Seed: 1,
	})
	block.Receipts[3].Reverted = !block.Receipts[3].Reverted
	if _, err := Validate(runtime.NewSimRunner(), w.World, block, Config{Workers: 3}); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected (commitment mismatch)", err)
	}
}

func TestValidateRejectsForgedReceipts(t *testing.T) {
	w, block := mineBlock(t, workload.Params{
		Kind: workload.KindBallot, Transactions: 30, ConflictPercent: 50, Seed: 1,
	})
	// Find a reverted receipt and forge it as committed, with a reseal so
	// commitments pass; re-execution must catch the lie.
	forged := -1
	for i, r := range block.Receipts {
		if r.Reverted {
			forged = i
			break
		}
	}
	if forged < 0 {
		t.Fatal("fixture: no reverted tx at 50% ballot conflict")
	}
	block.Receipts[forged].Reverted = false
	block = reseal(block)
	if _, err := Validate(runtime.NewSimRunner(), w.World, block, Config{Workers: 3}); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected (receipt mismatch)", err)
	}
}

func TestValidateRejectsStrippedSchedule(t *testing.T) {
	// The central security property: a miner that publishes an
	// over-parallel schedule (dropping happens-before edges between
	// conflicting transactions) must be caught. With the profiles stripped
	// too, the profiles show no race, and the replay's traces reveal that
	// they lie.
	w, block := mineBlock(t, workload.Params{
		Kind: workload.KindAuction, Transactions: 30, ConflictPercent: 60, Seed: 2,
	})
	if len(block.Schedule.Edges) == 0 {
		t.Fatal("fixture: no edges to strip")
	}
	block.Schedule.Edges = nil
	// Also strip the conflicting locks out of the profiles, the way a
	// cheating miner would have to for H to look edge-free.
	for i := range block.Profiles {
		block.Profiles[i].Entries = nil
	}
	block = reseal(block)
	if _, err := Validate(runtime.NewSimRunner(), w.World, block, Config{Workers: 3}); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
}

func TestValidateRejectsDroppedEdgesKeepingProfiles(t *testing.T) {
	// Dropping edges while keeping honest profiles is inconsistent: the
	// happens-before graph rebuilt by the validator comes from the block's
	// edge list, and Precheck's race check (sched.CheckProfileRaces) finds
	// conflicting profile uses unordered before anything executes.
	w, block := mineBlock(t, workload.Params{
		Kind: workload.KindEtherDoc, Transactions: 30, ConflictPercent: 80, Seed: 3,
	})
	if len(block.Schedule.Edges) == 0 {
		t.Fatal("fixture: no edges to strip")
	}
	block.Schedule.Edges = nil
	block = reseal(block)
	if _, err := Precheck(block); !errors.Is(err, ErrRejected) || !strings.Contains(err.Error(), sched.ErrRace.Error()) {
		t.Fatalf("Precheck err = %v, want ErrRejected for a race", err)
	}
	// Validate refuses it for the race too, with the world untouched:
	// the race check runs before the replay.
	before, err := w.World.StateRoot()
	if err != nil {
		t.Fatalf("state root: %v", err)
	}
	_, err = Validate(runtime.NewSimRunner(), w.World, block, Config{Workers: 3})
	if !errors.Is(err, ErrRejected) || !strings.Contains(err.Error(), sched.ErrRace.Error()) {
		t.Fatalf("err = %v, want ErrRejected for a race", err)
	}
	if after, _ := w.World.StateRoot(); after != before {
		t.Fatal("Validate executed the racy block before refusing it")
	}
}

func TestValidateRejectsDuplicatedProfileEntry(t *testing.T) {
	// A profile that names its first lock twice in place of its second
	// has the length of the trace, and each of its entries is found in
	// the trace; the replay compares a trace with its profile by length
	// and lookups, so Precheck must refuse the duplicate first. Accepting
	// it would hide the second lock from the race check.
	w, block := mineBlock(t, workload.Params{
		Kind: workload.KindBallot, Transactions: 30, ConflictPercent: 15, Seed: 4,
	})
	i := slices.IndexFunc(block.Profiles, func(p stm.Profile) bool { return len(p.Entries) > 1 })
	if i < 0 {
		t.Fatal("fixture: no profile with two entries")
	}
	block.Profiles[i].Entries[1] = block.Profiles[i].Entries[0]
	block = reseal(block)
	if _, err := Validate(runtime.NewSimRunner(), w.World, block, Config{Workers: 3}); !errors.Is(err, ErrRejected) ||
		!strings.Contains(err.Error(), "not strictly ascending") {
		t.Fatalf("err = %v, want ErrRejected (profile not canonical)", err)
	}
}

func TestValidateRejectsForgedProfiles(t *testing.T) {
	w, block := mineBlock(t, workload.Params{
		Kind: workload.KindBallot, Transactions: 30, ConflictPercent: 15, Seed: 4,
	})
	// Claim tx 0 held an extra lock it never touches.
	block.Profiles[0].Entries = append(block.Profiles[0].Entries, stm.ProfileEntry{
		Lock: stm.LockID{Scope: "phantom", Key: "x"}, Mode: stm.ModeExclusive, Counter: 1,
	})
	block = reseal(block)
	if _, err := Validate(runtime.NewSimRunner(), w.World, block, Config{Workers: 3}); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected (trace mismatch)", err)
	}
}

func TestValidateRejectsCyclicSchedule(t *testing.T) {
	w, block := mineBlock(t, workload.Params{
		Kind: workload.KindBallot, Transactions: 10, ConflictPercent: 0, Seed: 5,
	})
	block.Schedule.Edges = append(block.Schedule.Edges,
		sched.Edge{From: 0, To: 1}, sched.Edge{From: 1, To: 0})
	block = reseal(block)
	if _, err := Validate(runtime.NewSimRunner(), w.World, block, Config{Workers: 3}); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected (cyclic H)", err)
	}
}

func TestValidateRejectsWrongParentState(t *testing.T) {
	_, block := mineBlock(t, workload.Params{
		Kind: workload.KindBallot, Transactions: 20, ConflictPercent: 0, Seed: 6,
	})
	// Validate against a *different* world (wrong seed): traces may match,
	// but the final state cannot.
	other, err := workload.Generate(workload.Params{
		Kind: workload.KindBallot, Transactions: 20, ConflictPercent: 0, Seed: 7,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if _, err := Validate(runtime.NewSimRunner(), other.World, block, Config{Workers: 3}); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
}

func TestValidateAcceptsOverSerializedSchedule(t *testing.T) {
	// The paper observes a miner may publish a *slower but correct*
	// schedule (for example, fully sequential) and proposes incentives,
	// not validation, to discourage it. Adding every consecutive edge of S
	// to H keeps the block valid: the validator must accept it.
	w, block := mineBlock(t, workload.Params{
		Kind: workload.KindMixed, Transactions: 30, ConflictPercent: 15, Seed: 8,
	})
	order := block.Schedule.Order
	for i := 1; i < len(order); i++ {
		block.Schedule.Edges = append(block.Schedule.Edges,
			sched.Edge{From: order[i-1], To: order[i]})
	}
	block = reseal(block)
	if _, err := Validate(runtime.NewSimRunner(), w.World, block, Config{Workers: 3}); err != nil {
		t.Fatalf("over-serialized but correct schedule rejected: %v", err)
	}
}

func TestValidateAdvancesWorldState(t *testing.T) {
	w, block := mineBlock(t, workload.Params{
		Kind: workload.KindBallot, Transactions: 20, ConflictPercent: 0, Seed: 9,
	})
	if _, err := Validate(runtime.NewSimRunner(), w.World, block, Config{Workers: 3}); err != nil {
		t.Fatalf("validate: %v", err)
	}
	root, err := w.World.StateRoot()
	if err != nil {
		t.Fatalf("state root: %v", err)
	}
	if root != block.Header.StateRoot {
		t.Fatal("world did not advance to the block's post-state")
	}
}

func TestValidateEmptyBlock(t *testing.T) {
	w, err := contract.NewWorld(gas.DefaultSchedule())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	res, err := miner.Mine(engine.SpeculativeEngine{}, runtime.NewSimRunner(), w, genesis(), nil, engine.Options{Workers: 3})
	if err != nil {
		t.Fatalf("mine empty: %v", err)
	}
	if _, err := Validate(runtime.NewSimRunner(), w, res.Block, Config{Workers: 3}); err != nil {
		t.Fatalf("validate empty: %v", err)
	}
}

func TestValidatorFasterThanSerialOnLowConflict(t *testing.T) {
	// The headline property in simulated time: with 3 workers and low
	// conflict, validation beats the serial baseline.
	p := workload.Params{Kind: workload.KindBallot, Transactions: 200, ConflictPercent: 0, Seed: 10}
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	serial, err := miner.ExecuteSerial(runtime.NewSimRunner(), w.World, w.Calls, nil)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	w.Reset()
	res, err := miner.Mine(engine.SpeculativeEngine{}, runtime.NewSimRunner(), w.World, genesis(), w.Calls, engine.Options{Workers: 3})
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	w.Reset()
	vres, err := Validate(runtime.NewSimRunner(), w.World, res.Block, Config{Workers: 3})
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if vres.Makespan >= serial.Makespan {
		t.Fatalf("validator makespan %d >= serial %d: no speedup", vres.Makespan, serial.Makespan)
	}
	if res.Makespan >= serial.Makespan {
		t.Fatalf("miner makespan %d >= serial %d: no speedup", res.Makespan, serial.Makespan)
	}
	// Validators replay without conflict detection: faster than mining.
	if vres.Makespan >= res.Makespan {
		t.Fatalf("validator %d >= miner %d: replay should be cheaper", vres.Makespan, res.Makespan)
	}
}
