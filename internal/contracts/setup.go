package contracts

import (
	"contractstm/internal/contract"
	"contractstm/internal/gas"
	"contractstm/internal/runtime"
	"contractstm/internal/stm"
	"contractstm/internal/types"
)

// setupExec is a minimal stm.Executor for constructor/genesis effects:
// contract deployment happens before mining starts, outside any
// transaction, so it needs no locks, no gas and no undo — exactly like the
// paper's benchmarks, which put contracts "into an initial state" before
// measuring.
type setupExec struct {
	sched gas.Schedule
}

var _ stm.Executor = (*setupExec)(nil)

func (s *setupExec) Access(stm.LockID, stm.Mode, gas.Gas) error { return nil }
func (s *setupExec) LogUndo(stm.Undo)                           {}
func (s *setupExec) Overlay() *stm.Overlay                      { return nil }
func (s *setupExec) ChargeStep(uint64) error                    { return nil }
func (s *setupExec) Thread() runtime.Thread                     { return nil }
func (s *setupExec) Schedule() gas.Schedule                     { return s.sched }

// initRaw runs constructor effects directly against storage.
func initRaw(w *contract.World, body func(ex *setupExec) error) error {
	return body(&setupExec{sched: w.Schedule()})
}

// Setup returns a non-transactional executor for test fixtures and genesis
// state (minting balances, seeding auction bids, registering voters).
func Setup(w *contract.World) stm.Executor {
	return &setupExec{sched: w.Schedule()}
}

// mustAddr extracts an address argument or throws.
func mustAddr(env *contract.Env, args []any, i int) (a types.Address) {
	if i >= len(args) {
		env.Throw("missing argument %d", i)
	}
	a, ok := args[i].(types.Address)
	if !ok {
		env.Throw("argument %d: want address, got %T", i, args[i])
	}
	return a
}

// mustUint extracts a uint64 argument or throws.
func mustUint(env *contract.Env, args []any, i int) uint64 {
	if i >= len(args) {
		env.Throw("missing argument %d", i)
	}
	n, ok := args[i].(uint64)
	if !ok {
		env.Throw("argument %d: want uint64, got %T", i, args[i])
	}
	return n
}

// mustHash extracts a hash argument or throws.
func mustHash(env *contract.Env, args []any, i int) (h types.Hash) {
	if i >= len(args) {
		env.Throw("missing argument %d", i)
	}
	h, ok := args[i].(types.Hash)
	if !ok {
		env.Throw("argument %d: want hash, got %T", i, args[i])
	}
	return h
}

// mustAmount extracts an amount argument or throws.
func mustAmount(env *contract.Env, args []any, i int) types.Amount {
	if i >= len(args) {
		env.Throw("missing argument %d", i)
	}
	switch v := args[i].(type) {
	case types.Amount:
		return v
	case uint64:
		return types.Amount(v)
	default:
		env.Throw("argument %d: want amount, got %T", i, args[i])
		return 0
	}
}
