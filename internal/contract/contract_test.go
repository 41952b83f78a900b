package contract

import (
	"fmt"
	"strings"
	"testing"

	"contractstm/internal/gas"
	"contractstm/internal/runtime"
	"contractstm/internal/stm"
	"contractstm/internal/storage"
	"contractstm/internal/types"
)

// counterContract is a minimal test contract: a named counter with an
// increment guarded by an owner check, a failing function, and a nested
// call into another counter.
type counterContract struct {
	addr  types.Address
	owner types.Address
	count *storage.Map
}

func newCounter(t *testing.T, w *World, addr, owner types.Address) *counterContract {
	t.Helper()
	m, err := storage.NewMap(w.Store(), "counter/"+addr.Short())
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	c := &counterContract{addr: addr, owner: owner, count: m}
	if err := w.Deploy(c); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	return c
}

func (c *counterContract) ContractAddress() types.Address { return c.addr }

func (c *counterContract) Invoke(env *Env, fn string, args []any) any {
	switch fn {
	case "inc":
		env.Do(c.count.AddUint(env.Ex(), "n", args[0].(uint64)))
		return nil
	case "incThenThrow":
		env.Do(c.count.AddUint(env.Ex(), "n", 5))
		env.Throw("deliberate failure")
		return nil
	case "get":
		n, err := c.count.GetUint(env.Ex(), "n")
		env.Do(err)
		return n
	case "ownerOnly":
		env.Require(env.Msg().Sender == c.owner, "not owner")
		return nil
	case "burn":
		env.UseGas(args[0].(uint64))
		return nil
	case "callOther":
		res, err := env.CallContract(args[0].(types.Address), args[1].(string), args[2:]...)
		if err != nil {
			// Swallow the callee's failure; caller proceeds (CALL-style).
			return err.Error()
		}
		return res
	case "callOtherStrict":
		res, err := env.CallContract(args[0].(types.Address), args[1].(string), args[2:]...)
		if err != nil {
			env.Throw("propagating callee failure: %v", err)
		}
		return res
	case "pay":
		env.Transfer(args[0].(types.Address), args[1].(types.Amount))
		return nil
	case "forceRetry":
		env.Do(fmt.Errorf("synthetic conflict: %w", stm.ErrDeadlock))
		return nil
	case "recurse":
		if _, err := env.CallContract(c.addr, "recurse"); err != nil {
			env.Throw("%v", err)
		}
		return nil
	default:
		env.Throw("unknown function %q", fn)
		return nil
	}
}

// execOne is execWith under the eager policy.
func execOne(t *testing.T, w *World, call Call) Outcome {
	t.Helper()
	return execWith(t, w, call, stm.PolicyEager)
}

func testWorld(t *testing.T) *World {
	t.Helper()
	w, err := NewWorld(gas.DefaultSchedule())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	return w
}

var (
	addrA  = types.AddressFromUint64(1)
	addrB  = types.AddressFromUint64(2)
	sender = types.AddressFromUint64(100)
)

func TestExecuteCommit(t *testing.T) {
	w := testWorld(t)
	newCounter(t, w, addrA, sender)
	out := execOne(t, w, Call{Sender: sender, Contract: addrA, Function: "inc", Args: []any{uint64(3)}, GasLimit: 100_000})
	if out.Kind != OutcomeCommitted {
		t.Fatalf("outcome = %+v, want committed", out)
	}
	if out.GasUsed == 0 {
		t.Fatal("committed call used no gas")
	}
	got := execOne(t, w, Call{Sender: sender, Contract: addrA, Function: "get", GasLimit: 100_000})
	if got.Result.(uint64) != 3 {
		t.Fatalf("counter = %v, want 3", got.Result)
	}
}

func TestExecuteThrowRevertsState(t *testing.T) {
	w := testWorld(t)
	newCounter(t, w, addrA, sender)
	rootBefore, _ := w.StateRoot()
	out := execOne(t, w, Call{Sender: sender, Contract: addrA, Function: "incThenThrow", GasLimit: 100_000})
	if out.Kind != OutcomeReverted {
		t.Fatalf("outcome = %+v, want reverted", out)
	}
	if !strings.Contains(out.Reason, "deliberate failure") {
		t.Fatalf("reason = %q", out.Reason)
	}
	rootAfter, _ := w.StateRoot()
	if rootBefore != rootAfter {
		t.Fatal("throw did not revert state")
	}
}

func TestExecuteRequire(t *testing.T) {
	w := testWorld(t)
	newCounter(t, w, addrA, sender)
	ok := execOne(t, w, Call{Sender: sender, Contract: addrA, Function: "ownerOnly", GasLimit: 100_000})
	if ok.Kind != OutcomeCommitted {
		t.Fatalf("owner call = %+v", ok)
	}
	bad := execOne(t, w, Call{Sender: addrB, Contract: addrA, Function: "ownerOnly", GasLimit: 100_000})
	if bad.Kind != OutcomeReverted || !strings.Contains(bad.Reason, "not owner") {
		t.Fatalf("non-owner call = %+v", bad)
	}
}

func TestExecuteOutOfGas(t *testing.T) {
	w := testWorld(t)
	newCounter(t, w, addrA, sender)
	out := execOne(t, w, Call{Sender: sender, Contract: addrA, Function: "burn", Args: []any{uint64(1_000_000)}, GasLimit: 500})
	if out.Kind != OutcomeReverted {
		t.Fatalf("outcome = %+v, want reverted on out-of-gas", out)
	}
	if out.GasUsed != 500 {
		t.Fatalf("gas used = %d, want full limit 500", out.GasUsed)
	}
}

func TestExecuteUnknownContract(t *testing.T) {
	w := testWorld(t)
	out := execOne(t, w, Call{Sender: sender, Contract: addrB, Function: "x", GasLimit: 100_000})
	if out.Kind != OutcomeReverted || !strings.Contains(out.Reason, "no contract") {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestExecuteUnknownFunction(t *testing.T) {
	w := testWorld(t)
	newCounter(t, w, addrA, sender)
	out := execOne(t, w, Call{Sender: sender, Contract: addrA, Function: "nope", GasLimit: 100_000})
	if out.Kind != OutcomeReverted || !strings.Contains(out.Reason, "unknown function") {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestExecuteRetrySignal(t *testing.T) {
	w := testWorld(t)
	newCounter(t, w, addrA, sender)
	out := execOne(t, w, Call{Sender: sender, Contract: addrA, Function: "forceRetry", GasLimit: 100_000})
	if out.Kind != OutcomeRetry {
		t.Fatalf("outcome = %+v, want retry", out)
	}
}

func TestTransfers(t *testing.T) {
	w := testWorld(t)
	c := newCounter(t, w, addrA, sender)
	_ = c
	// Seed the contract's balance at genesis.
	_, err := runtime.NewSimRunner().Run(1, func(th runtime.Thread) {
		tx := stm.BeginSerial(0, th, 1_000_000, w.Schedule())
		if err := w.Mint(tx, addrA, 100); err != nil {
			t.Errorf("Mint: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := execOne(t, w, Call{Sender: sender, Contract: addrA, Function: "pay", Args: []any{addrB, types.Amount(40)}, GasLimit: 100_000})
	if out.Kind != OutcomeCommitted {
		t.Fatalf("pay = %+v", out)
	}
	// Check balances.
	_, err = runtime.NewSimRunner().Run(1, func(th runtime.Thread) {
		tx := stm.BeginSerial(1, th, 1_000_000, w.Schedule())
		a, _ := w.BalanceOf(tx, addrA)
		b, _ := w.BalanceOf(tx, addrB)
		if a != 60 || b != 40 {
			t.Errorf("balances = %d/%d, want 60/40", a, b)
		}
		_ = tx.Commit()
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Overdraft throws and rolls back.
	out = execOne(t, w, Call{Sender: sender, Contract: addrA, Function: "pay", Args: []any{addrB, types.Amount(1000)}, GasLimit: 100_000})
	if out.Kind != OutcomeReverted || !strings.Contains(out.Reason, "insufficient balance") {
		t.Fatalf("overdraft = %+v", out)
	}
}

func TestNestedCallCommits(t *testing.T) {
	w := testWorld(t)
	newCounter(t, w, addrA, sender)
	newCounter(t, w, addrB, sender)
	out := execOne(t, w, Call{Sender: sender, Contract: addrA, Function: "callOther",
		Args: []any{addrB, "inc", uint64(9)}, GasLimit: 100_000})
	if out.Kind != OutcomeCommitted {
		t.Fatalf("outcome = %+v", out)
	}
	got := execOne(t, w, Call{Sender: sender, Contract: addrB, Function: "get", GasLimit: 100_000})
	if got.Result.(uint64) != 9 {
		t.Fatalf("callee counter = %v, want 9", got.Result)
	}
}

func TestNestedCalleeThrowLeavesCallerIntact(t *testing.T) {
	w := testWorld(t)
	newCounter(t, w, addrA, sender)
	newCounter(t, w, addrB, sender)
	// Caller increments itself, then calls B.incThenThrow (which increments
	// B and throws). B's effects must vanish; A's must survive.
	out := execOne(t, w, Call{Sender: sender, Contract: addrA, Function: "inc", Args: []any{uint64(1)}, GasLimit: 100_000})
	if out.Kind != OutcomeCommitted {
		t.Fatalf("setup inc = %+v", out)
	}
	out = execOne(t, w, Call{Sender: sender, Contract: addrA, Function: "callOther",
		Args: []any{addrB, "incThenThrow"}, GasLimit: 100_000})
	if out.Kind != OutcomeCommitted {
		t.Fatalf("caller must commit despite callee throw: %+v", out)
	}
	if msg, ok := out.Result.(string); !ok || !strings.Contains(msg, "callee threw") {
		t.Fatalf("caller result = %v, want callee-threw error text", out.Result)
	}
	b := execOne(t, w, Call{Sender: sender, Contract: addrB, Function: "get", GasLimit: 100_000})
	if b.Result.(uint64) != 0 {
		t.Fatalf("callee counter = %v, want 0 (aborted)", b.Result)
	}
}

func TestNestedCalleeThrowPropagatedByStrictCaller(t *testing.T) {
	w := testWorld(t)
	newCounter(t, w, addrA, sender)
	newCounter(t, w, addrB, sender)
	out := execOne(t, w, Call{Sender: sender, Contract: addrA, Function: "callOtherStrict",
		Args: []any{addrB, "incThenThrow"}, GasLimit: 100_000})
	if out.Kind != OutcomeReverted {
		t.Fatalf("strict caller must revert: %+v", out)
	}
}

func TestNestedMsgSenderIsCaller(t *testing.T) {
	w := testWorld(t)
	newCounter(t, w, addrA, sender)
	// B's owner is contract A, so ownerOnly succeeds only via A.
	b := &counterContract{addr: addrB, owner: addrA}
	m, err := storage.NewMap(w.Store(), "counter/b2")
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	b.count = m
	if err := w.Deploy(b); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	direct := execOne(t, w, Call{Sender: sender, Contract: addrB, Function: "ownerOnly", GasLimit: 100_000})
	if direct.Kind != OutcomeReverted {
		t.Fatalf("direct call should fail owner check: %+v", direct)
	}
	viaA := execOne(t, w, Call{Sender: sender, Contract: addrA, Function: "callOtherStrict",
		Args: []any{addrB, "ownerOnly"}, GasLimit: 100_000})
	if viaA.Kind != OutcomeCommitted {
		t.Fatalf("nested call should pass owner check (msg.sender = A): %+v", viaA)
	}
}

func TestCallDepthLimit(t *testing.T) {
	w := testWorld(t)
	newCounter(t, w, addrA, sender)
	out := execOne(t, w, Call{Sender: sender, Contract: addrA, Function: "recurse", GasLimit: 10_000_000})
	if out.Kind != OutcomeReverted {
		t.Fatalf("unbounded recursion = %+v, want reverted", out)
	}
}

func TestDeployDuplicate(t *testing.T) {
	w := testWorld(t)
	newCounter(t, w, addrA, sender)
	dup := &counterContract{addr: addrA}
	if err := w.Deploy(dup); err == nil {
		t.Fatal("duplicate deploy succeeded")
	}
}

func TestAppendForHashDistinguishesCalls(t *testing.T) {
	base := Call{Sender: sender, Contract: addrA, Function: "f", Args: []any{uint64(1)}, GasLimit: 10}
	variants := []Call{
		{Sender: addrB, Contract: addrA, Function: "f", Args: []any{uint64(1)}, GasLimit: 10},
		{Sender: sender, Contract: addrB, Function: "f", Args: []any{uint64(1)}, GasLimit: 10},
		{Sender: sender, Contract: addrA, Function: "g", Args: []any{uint64(1)}, GasLimit: 10},
		{Sender: sender, Contract: addrA, Function: "f", Args: []any{uint64(2)}, GasLimit: 10},
		{Sender: sender, Contract: addrA, Function: "f", Args: []any{uint64(1)}, GasLimit: 11},
		{Sender: sender, Contract: addrA, Function: "f", Args: []any{uint64(1)}, Value: 5, GasLimit: 10},
		{Sender: sender, Contract: addrA, Function: "f", Args: []any{"1"}, GasLimit: 10},
		{Sender: sender, Contract: addrA, Function: "f", Args: []any{true, uint64(1)}, GasLimit: 10},
	}
	enc := string(base.AppendForHash(nil))
	for i, v := range variants {
		if string(v.AppendForHash(nil)) == enc {
			t.Fatalf("variant %d encodes identically to base", i)
		}
	}
}

func TestEncodeArgAllKinds(t *testing.T) {
	args := []any{uint64(1), int(2), true, false, "s", addrA, types.HashString("h"), types.Amount(3), 3.5}
	seen := map[string]bool{}
	for _, a := range args {
		enc := string(appendArg(nil, a))
		if seen[enc] {
			t.Fatalf("encoding collision on %v", a)
		}
		seen[enc] = true
	}
}

func TestReceiptAppendForHash(t *testing.T) {
	a := Receipt{Tx: 1, Reverted: false, GasUsed: 100}
	b := Receipt{Tx: 1, Reverted: true, GasUsed: 100}
	c := Receipt{Tx: 1, Reverted: false, GasUsed: 101}
	d := Receipt{Tx: 1, Reverted: false, GasUsed: 100, Reason: "ignored"}
	if string(a.AppendForHash(nil)) == string(b.AppendForHash(nil)) {
		t.Fatal("reverted flag not hashed")
	}
	if string(a.AppendForHash(nil)) == string(c.AppendForHash(nil)) {
		t.Fatal("gas not hashed")
	}
	if string(a.AppendForHash(nil)) != string(d.AppendForHash(nil)) {
		t.Fatal("reason must not affect the hash")
	}
}

func TestOutcomeKindString(t *testing.T) {
	for _, k := range []OutcomeKind{OutcomeCommitted, OutcomeReverted, OutcomeRetry, OutcomeKind(99)} {
		if k.String() == "" {
			t.Fatal("empty outcome string")
		}
	}
}
