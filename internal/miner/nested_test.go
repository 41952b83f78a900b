package miner

import (
	"math/rand"
	"testing"

	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/gas"
	"contractstm/internal/runtime"
	"contractstm/internal/stm"
	"contractstm/internal/storage"
	"contractstm/internal/types"
	"contractstm/internal/validator"
	"contractstm/internal/workload"
)

// vaultContract is a test contract for cross-contract calls under
// speculation: "depositVia" routes a token transfer through a nested call
// and records the deposit; "depositStrict" reverts the whole transaction
// when the nested transfer fails.
type vaultContract struct {
	addr     types.Address
	token    types.Address
	deposits *storage.Map
}

func (v *vaultContract) ContractAddress() types.Address { return v.addr }

func (v *vaultContract) Invoke(env *contract.Env, fn string, args []any) any {
	switch fn {
	case "depositVia":
		// Nested call: move tokens from the caller to the vault's account,
		// then record the deposit. A failed transfer is swallowed — the
		// deposit record is simply not written (CALL-style).
		amount := args[0].(uint64)
		// Inside the nested call msg.sender is the vault, so the depositor
		// must be passed explicitly (the usual transferFrom shape).
		if _, err := env.CallContract(v.token, "transferFrom", env.Msg().Sender, v.addr, amount); err != nil {
			return false
		}
		env.Do(v.deposits.AddUint(env.Ex(), storage.KeyAddr(env.Msg().Sender), amount))
		return true
	case "depositStrict":
		amount := args[0].(uint64)
		if _, err := env.CallContract(v.token, "transferFrom", env.Msg().Sender, v.addr, amount); err != nil {
			env.Throw("deposit failed: %v", err)
		}
		env.Do(v.deposits.AddUint(env.Ex(), storage.KeyAddr(env.Msg().Sender), amount))
		return true
	case "depositOf":
		n, err := v.deposits.GetUint(env.Ex(), storage.KeyAddr(args[0].(types.Address)))
		env.Do(err)
		return n
	default:
		env.Throw("vault: unknown function %q", fn)
		return nil
	}
}

// tokenForVault is a minimal token the vault calls into; sender-keyed
// balances, debit exclusive, credit commutative.
type tokenForVault struct {
	addr     types.Address
	balances *storage.Map
}

func (t *tokenForVault) ContractAddress() types.Address { return t.addr }

func (t *tokenForVault) Invoke(env *contract.Env, fn string, args []any) any {
	switch fn {
	case "transferFrom":
		// Trusted-caller variant (no allowance bookkeeping): only the
		// vault is deployed alongside this token in the tests.
		from := args[0].(types.Address)
		to := args[1].(types.Address)
		amount := args[2].(uint64)
		env.Do(t.balances.SubUint(env.Ex(), storage.KeyAddr(from), amount))
		env.Do(t.balances.AddUint(env.Ex(), storage.KeyAddr(to), amount))
		return nil
	default:
		env.Throw("token: unknown function %q", fn)
		return nil
	}
}

// buildVaultWorld deploys the vault + token and funds n depositors, the
// last `broke` of which get no balance (their nested transfers fail).
func buildVaultWorld(t *testing.T, n, broke int) (*contract.World, []contract.Call, types.Address, types.Address) {
	t.Helper()
	w, err := contract.NewWorld(gas.DefaultSchedule())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	tokenAddr := types.AddressFromUint64(0x700)
	vaultAddr := types.AddressFromUint64(0x701)
	balances, err := storage.NewMap(w.Store(), "vtoken/balances")
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	deposits, err := storage.NewMap(w.Store(), "vault/deposits")
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	if err := w.Deploy(&tokenForVault{addr: tokenAddr, balances: balances}); err != nil {
		t.Fatalf("deploy token: %v", err)
	}
	if err := w.Deploy(&vaultContract{addr: vaultAddr, token: tokenAddr, deposits: deposits}); err != nil {
		t.Fatalf("deploy vault: %v", err)
	}

	// Fund depositors directly (this world uses its own token balances,
	// not the world ledger).
	calls := make([]contract.Call, 0, n)
	for i := 0; i < n; i++ {
		sender := types.AddressFromUint64(uint64(0x9000 + i))
		if i < n-broke {
			fundVaultBalance(t, w, balances, sender, 1000)
		}
		fn := "depositVia"
		if i%2 == 1 {
			fn = "depositStrict"
		}
		calls = append(calls, contract.Call{
			Sender: sender, Contract: vaultAddr, Function: fn,
			Args: []any{uint64(10 + i)}, GasLimit: 1_000_000,
		})
	}
	return w, calls, vaultAddr, tokenAddr
}

// fundVaultBalance seeds a balance using a serial transaction.
func fundVaultBalance(t *testing.T, w *contract.World, balances *storage.Map, a types.Address, amount uint64) {
	t.Helper()
	_, err := runtime.NewSimRunner().Run(1, func(th runtime.Thread) {
		tx := stm.BeginSerial(0, th, 1_000_000, w.Schedule())
		if err := balances.AddUint(tx, storage.KeyAddr(a), amount); err != nil {
			t.Errorf("fund: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestNestedCallsUnderParallelMining(t *testing.T) {
	const n, broke = 40, 8
	w, calls, _, _ := buildVaultWorld(t, n, broke)
	pre := w.Snapshot()

	serial, err := ExecuteSerial(runtime.NewSimRunner(), w, calls, nil)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	serialRoot := serial.StateRoot

	w.Restore(pre)
	res, err := Mine(engine.SpeculativeEngine{}, runtime.NewSimRunner(), w, genesis(), calls, engine.Options{Workers: 3})
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	if res.Block.Header.StateRoot != serialRoot {
		t.Fatal("nested-call block diverged from serial execution")
	}

	// Outcome split: depositVia from a broke sender COMMITS (false
	// result, no state change); depositStrict from a broke sender REVERTS.
	wantReverted := 0
	for i := n - broke; i < n; i++ {
		if calls[i].Function == "depositStrict" {
			wantReverted++
		}
	}
	gotReverted := 0
	for _, r := range res.Block.Receipts {
		if r.Reverted {
			gotReverted++
		}
	}
	if gotReverted != wantReverted {
		t.Fatalf("reverted = %d, want %d", gotReverted, wantReverted)
	}

	// The validator must accept the block (nested calls replay
	// deterministically, including the aborted child frames).
	w.Restore(pre)
	if _, err := validator.Validate(runtime.NewSimRunner(), w, res.Block, validator.Config{Workers: 3}); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestNestedCallsUnderOSThreads(t *testing.T) {
	const n, broke = 30, 6
	w, calls, _, _ := buildVaultWorld(t, n, broke)
	pre := w.Snapshot()
	res, err := Mine(engine.SpeculativeEngine{}, runtime.NewOSRunner(nil), w, genesis(), calls, engine.Options{Workers: 4})
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	// Serializability in the discovered order.
	w.Restore(pre)
	replay, err := ExecuteSerial(runtime.NewOSRunner(nil), w, calls, res.Block.Schedule.Order)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if replay.StateRoot != res.Block.Header.StateRoot {
		t.Fatal("nested-call schedule not serializable on OS threads")
	}
}

// TestRandomizedSerializabilityFuzz is the repository's broadest property
// test: across random seeds, kinds and conflict levels, every mined block
// must (a) replay serially in its published order S to the same state
// root, and (b) pass full validation.
func TestRandomizedSerializabilityFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	kinds := append(workload.Kinds(), workload.KindToken)
	iterations := 25
	if testing.Short() {
		iterations = 8
	}
	for it := 0; it < iterations; it++ {
		p := workload.Params{
			Kind:            kinds[rng.Intn(len(kinds))],
			Transactions:    5 + rng.Intn(60),
			ConflictPercent: rng.Intn(101),
			Seed:            rng.Int63n(1_000_000),
		}
		wl, err := workload.Generate(p)
		if err != nil {
			t.Fatalf("it=%d %+v: generate: %v", it, p, err)
		}
		workers := 2 + rng.Intn(3)
		res, err := Mine(engine.SpeculativeEngine{}, runtime.NewSimRunner(), wl.World, genesis(), wl.Calls, engine.Options{Workers: workers})
		if err != nil {
			t.Fatalf("it=%d %+v: mine: %v", it, p, err)
		}
		wl.Reset()
		replay, err := ExecuteSerial(runtime.NewSimRunner(), wl.World, wl.Calls, res.Block.Schedule.Order)
		if err != nil {
			t.Fatalf("it=%d %+v: replay: %v", it, p, err)
		}
		if replay.StateRoot != res.Block.Header.StateRoot {
			t.Fatalf("it=%d %+v: schedule not serializable", it, p)
		}
		wl.Reset()
		if _, err := validator.Validate(runtime.NewSimRunner(), wl.World, res.Block, validator.Config{Workers: workers}); err != nil {
			t.Fatalf("it=%d %+v: validate: %v", it, p, err)
		}
	}
}
