package contract

import (
	"testing"

	"contractstm/internal/runtime"
	"contractstm/internal/stm"
	"contractstm/internal/storage"
	"contractstm/internal/types"
)

// arrayContract pushes onto and indexes one boosted array.
type arrayContract struct {
	addr types.Address
	arr  *storage.Array
}

func (c *arrayContract) ContractAddress() types.Address { return c.addr }

func (c *arrayContract) Invoke(env *Env, fn string, args []any) any {
	switch fn {
	case "push":
		_, err := c.arr.Push(env.Ex(), uint64(1))
		env.Do(err)
	case "get":
		_, err := c.arr.Get(env.Ex(), int(args[0].(uint64)))
		env.Do(err)
	case "set":
		env.Do(c.arr.Set(env.Ex(), int(args[0].(uint64)), uint64(2)))
	case "add":
		env.Do(c.arr.AddUint(env.Ex(), int(args[0].(uint64)), 3))
	default:
		env.Throw("unknown function %q", fn)
	}
	return nil
}

// TestArrayOutOfRangeReasonIsScheduleIndependent: an out-of-range Get,
// Set or AddUint takes only its element's lock, which a Push of another
// element does not conflict with, so the two may run in either order on
// a miner and on a validator. The receipt's Reason must then be the same
// in both orders, or a follower would serve different text than the
// leader for one block. Both policies' paths are covered: eager reads the
// array in place, lazy through the transaction's overlay.
func TestArrayOutOfRangeReasonIsScheduleIndependent(t *testing.T) {
	for _, policy := range []stm.Policy{stm.PolicyEager, stm.PolicyLazy} {
		for _, fn := range []string{"get", "set", "add"} {
			reasons := map[string]string{}
			for _, order := range []string{"push first", "push last"} {
				w := testWorld(t)
				arr, err := storage.NewArray(w.Store(), "arr")
				if err != nil {
					t.Fatalf("NewArray: %v", err)
				}
				if err := w.Deploy(&arrayContract{addr: addrA, arr: arr}); err != nil {
					t.Fatalf("Deploy: %v", err)
				}
				run := func(id types.TxID, fn string, args ...any) Receipt {
					call := Call{Sender: sender, Contract: addrA, Function: fn, Args: args, GasLimit: 100_000}
					return ReceiptFor(id, execWith(t, w, call, policy))
				}
				run(0, "push") // the array starts with one element
				var r Receipt
				if order == "push first" {
					run(1, "push")
					r = run(2, fn, uint64(5))
				} else {
					r = run(1, fn, uint64(5))
					run(2, "push")
				}
				if !r.Reverted {
					t.Fatalf("%s, %s, %s: %s[5] on a short array did not revert", policy, fn, order, fn)
				}
				reasons[order] = r.Reason
			}
			const want = "arr[5]: storage: index out of range"
			for order, got := range reasons {
				if got != want {
					t.Errorf("%s, %s, %s: reason %q, want %q", policy, fn, order, got, want)
				}
			}
		}
	}
}

// execWith runs one call speculatively under policy on a single
// simulated thread against a fresh manager and returns the outcome.
func execWith(t *testing.T, w *World, call Call, policy stm.Policy) Outcome {
	t.Helper()
	var out Outcome
	mgr := stm.NewManager(w.Schedule())
	if _, err := runtime.NewSimRunner().Run(1, func(th runtime.Thread) {
		tx := stm.BeginSpeculative(mgr, 0, th, call.GasLimit, policy)
		out = Execute(w, tx, call)
	}); err != nil {
		t.Fatalf("sim run: %v", err)
	}
	return out
}
