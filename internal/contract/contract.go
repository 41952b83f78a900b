// Package contract is the smart-contract execution framework: the analogue
// of the paper's JVM/Scala contract host (§6). It provides the world state
// (account balances plus a contract registry), the per-invocation
// environment (msg context, gas, throw/revert), nested contract calls as
// nested speculative actions, and the execution wrapper that converts a
// contract invocation into a committed, reverted, or retryable transaction.
//
// # Control flow
//
// Contract code is written in direct style, like Solidity: it does not
// thread errors. Inside a contract function, failures are panics carrying
// typed signals, recovered exactly once at the transaction boundary
// (Execute) or the nested-call boundary (Env.CallContract):
//
//   - Throw / Require / storage failures → the transaction reverts
//     (effects undone, gas consumed, still part of the block schedule);
//   - abstract-lock deadlock → the speculative attempt aborts and the miner
//     retries it (invisible to contract authors);
//   - out of gas → revert, with the whole gas limit consumed.
//
// This mirrors the paper's prototype, where "the Solidity throw operation
// … is emulated by throwing a Java runtime exception caught by the miner".
package contract

import (
	"encoding/binary"
	"errors"
	"fmt"

	"contractstm/internal/gas"
	"contractstm/internal/stm"
	"contractstm/internal/storage"
	"contractstm/internal/types"
)

// Msg is the invocation context available to contract code, mirroring
// Solidity's msg global.
type Msg struct {
	// Sender is the account that (directly) invoked the current frame: the
	// transaction's sender, or the calling contract for nested calls.
	Sender types.Address
	// Value is the currency amount attached to the call.
	Value types.Amount
}

// Contract is a deployed smart contract: a named set of functions over
// boosted storage. Implementations dispatch on the function name and panic
// via Env.Throw for contract-level failures.
type Contract interface {
	// ContractAddress returns the contract's account address.
	ContractAddress() types.Address
	// Invoke runs the named function. It returns the function's result and
	// panics (through Env helpers) to signal throws.
	Invoke(env *Env, function string, args []any) any
}

// Call describes one requested contract invocation: the unit the miner
// packs into blocks ("transaction" in blockchain terms, §1 fn. 1).
type Call struct {
	// Sender is the externally-owned account issuing the call.
	Sender types.Address
	// Contract is the callee's address.
	Contract types.Address
	// Function is the contract function name.
	Function string
	// Args are the function arguments (uint64, string, bool,
	// types.Address, types.Hash or types.Amount).
	Args []any
	// Value is the currency attached to the call.
	Value types.Amount
	// GasLimit bounds the call's execution steps.
	GasLimit gas.Gas
}

// AppendForHash appends the call's canonical encoding to dst: the bytes
// its transaction ID hashes, which are also its leaf in the block's tx
// root. Appending into a buffer the caller reuses, it allocates nothing.
func (c Call) AppendForHash(dst []byte) []byte {
	dst = append(dst, c.Sender[:]...)
	dst = append(dst, c.Contract[:]...)
	dst = append(dst, byte(len(c.Function)))
	dst = append(dst, c.Function...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(c.Value))
	dst = binary.BigEndian.AppendUint64(dst, uint64(c.GasLimit))
	for _, a := range c.Args {
		dst = appendArg(dst, a)
	}
	return dst
}

// appendArg appends one argument's canonical encoding, with a type tag.
func appendArg(dst []byte, a any) []byte {
	switch x := a.(type) {
	case uint64:
		return binary.BigEndian.AppendUint64(append(dst, 0x01), x)
	case int:
		return binary.BigEndian.AppendUint64(append(dst, 0x02), uint64(x))
	case bool:
		if x {
			return append(dst, 0x03, 1)
		}
		return append(dst, 0x03, 0)
	case string:
		dst = binary.BigEndian.AppendUint32(append(dst, 0x04), uint32(len(x)))
		return append(dst, x...)
	case types.Address:
		return append(append(dst, 0x05), x[:]...)
	case types.Hash:
		return append(append(dst, 0x06), x[:]...)
	case types.Amount:
		return binary.BigEndian.AppendUint64(append(dst, 0x07), uint64(x))
	default:
		// Unknown argument types hash by their formatted representation;
		// contracts validate argument types themselves at invoke time.
		s := fmt.Sprintf("%T:%v", a, a)
		dst = binary.BigEndian.AppendUint32(append(dst, 0xff), uint32(len(s)))
		return append(dst, s...)
	}
}

// World is the global chain state: balances, deployed contracts, and the
// store that owns all boosted objects.
type World struct {
	store     *storage.Store
	balances  *storage.Map
	contracts map[types.Address]Contract
	sched     gas.Schedule
}

// NewWorld creates an empty world using the given cost schedule.
func NewWorld(sched gas.Schedule) (*World, error) {
	store := storage.NewStore()
	balances, err := storage.NewMap(store, "world/balances")
	if err != nil {
		return nil, err
	}
	return &World{
		store:     store,
		balances:  balances,
		contracts: make(map[types.Address]Contract),
		sched:     sched,
	}, nil
}

// Store returns the world's boosted-object store.
func (w *World) Store() *storage.Store { return w.store }

// Schedule returns the world's gas schedule.
func (w *World) Schedule() gas.Schedule { return w.sched }

// Deploy registers a contract. Deployment is a setup-time operation, not a
// transaction (the paper's benchmarks likewise pre-initialize contracts).
func (w *World) Deploy(c Contract) error {
	addr := c.ContractAddress()
	if _, dup := w.contracts[addr]; dup {
		return fmt.Errorf("contract: address %s already deployed", addr)
	}
	w.contracts[addr] = c
	return nil
}

// ContractAt returns the contract deployed at addr.
func (w *World) ContractAt(addr types.Address) (Contract, bool) {
	c, ok := w.contracts[addr]
	return c, ok
}

// Mint credits an account outside any transaction (genesis/setup only).
func (w *World) Mint(th stm.Executor, addr types.Address, amount types.Amount) error {
	return w.balances.AddUint(th, storage.KeyAddr(addr), uint64(amount))
}

// BalanceOf reads an account balance transactionally.
func (w *World) BalanceOf(ex stm.Executor, addr types.Address) (types.Amount, error) {
	n, err := w.balances.GetUint(ex, storage.KeyAddr(addr))
	return types.Amount(n), err
}

// BalanceIn reads an account balance in the version of the world that
// snap holds. It touches nothing a transaction can change, so it takes no
// lock and may run beside an executing block.
func (w *World) BalanceIn(snap storage.Snapshot, addr types.Address) (types.Amount, error) {
	v, ok := w.balances.GetIn(snap, storage.KeyAddr(addr))
	if !ok {
		return 0, nil
	}
	n, isUint := v.(uint64)
	if !isUint {
		return 0, fmt.Errorf("%w: balance of %s holds %T", storage.ErrNotCounter, addr, v)
	}
	return types.Amount(n), nil
}

// StateRoot commits to the full world state.
func (w *World) StateRoot() (types.Hash, error) { return w.store.StateRoot() }

// Snapshot and Restore delegate to the store: a handle on the state as it
// is now, and a return to it. Both cost a few words per object.
func (w *World) Snapshot() storage.Snapshot { return w.store.Snapshot() }
func (w *World) Restore(s storage.Snapshot) { w.store.Restore(s) }

// EncodeState renders the full world state as self-describing bytes for
// durable persistence (state snapshots). The world must be quiescent —
// at a block boundary, no transactions in flight.
func (w *World) EncodeState() ([]byte, error) {
	return w.store.EncodeState()
}

// RestoreState replaces the world state with previously encoded state.
// The decoding world must have been built by the same genesis setup
// (same objects, same contracts); mismatches are errors, not silent
// corruption. Contract code and balances-of-record both live in the
// store, so this is a complete state replacement.
func (w *World) RestoreState(data []byte) error {
	snap, err := w.store.DecodeState(data)
	if err != nil {
		return fmt.Errorf("contract: restore state: %w", err)
	}
	w.store.Restore(snap)
	return nil
}

// throwSignal is the panic payload of a contract throw.
type throwSignal struct{ reason string }

// retrySignal is the panic payload of a speculative conflict abort
// (deadlock); the miner retries the transaction.
type retrySignal struct{ err error }

// Env is the per-frame execution environment handed to contract functions.
type Env struct {
	world *World
	tx    *stm.Tx
	msg   Msg
	// self is the currently-executing contract's address (msg.sender for
	// its nested calls).
	self types.Address
	// depth counts nested call frames; bounded like the EVM's call depth.
	depth int
}

// MaxCallDepth bounds nested contract calls, mirroring the EVM's limit
// (1024 there; smaller here because simulated workloads never approach it).
const MaxCallDepth = 128

// Msg returns the current invocation context.
func (e *Env) Msg() Msg { return e.msg }

// Self returns the executing contract's address.
func (e *Env) Self() types.Address { return e.self }

// Ex returns the stm executor for direct storage operations.
func (e *Env) Ex() stm.Executor { return e.tx }

// World returns the world (read-only registry access for contracts).
func (e *Env) World() *World { return e.world }

// Throw aborts the current transaction like Solidity's throw: effects are
// rolled back and the transaction is recorded as reverted.
func (e *Env) Throw(format string, args ...any) {
	panic(throwSignal{reason: fmt.Sprintf(format, args...)})
}

// Require throws unless cond holds.
func (e *Env) Require(cond bool, reason string) {
	if !cond {
		e.Throw("%s", reason)
	}
}

// Do checks a storage/stm error inside contract code: deadlocks become
// retry signals (handled by the miner), everything else becomes a throw.
func (e *Env) Do(err error) {
	if err == nil {
		return
	}
	if errors.Is(err, stm.ErrDeadlock) {
		panic(retrySignal{err: err})
	}
	// Out of gas, out of range, type errors: contract-level throw.
	panic(throwSignal{reason: err.Error()})
}

// UseGas charges n computation steps (hash rounds, loop iterations, …).
func (e *Env) UseGas(n uint64) {
	e.Do(e.tx.ChargeStep(n))
}

// Balance returns an account's balance.
func (e *Env) Balance(addr types.Address) types.Amount {
	amt, err := e.world.BalanceOf(e.tx, addr)
	e.Do(err)
	return amt
}

// Transfer moves amount from the executing contract's account to `to`,
// throwing on insufficient balance. The debit is exclusive (it reads the
// balance); the credit is a commutative increment.
func (e *Env) Transfer(to types.Address, amount types.Amount) {
	e.transferFrom(e.self, to, amount)
}

// TransferFromSender moves amount from msg.sender to `to` (used to collect
// payments attached conceptually to a call).
func (e *Env) TransferFromSender(to types.Address, amount types.Amount) {
	e.transferFrom(e.msg.Sender, to, amount)
}

func (e *Env) transferFrom(from, to types.Address, amount types.Amount) {
	if amount == 0 {
		return
	}
	err := e.world.balances.SubUint(e.tx, storage.KeyAddr(from), uint64(amount))
	if err != nil && errors.Is(err, storage.ErrUnderflow) {
		e.Throw("insufficient balance: %s needs %d: %v", from.Short(), amount, err)
	}
	e.Do(err)
	e.Do(e.world.balances.AddUint(e.tx, storage.KeyAddr(to), uint64(amount)))
}

// CallContract invokes another contract as a nested speculative action
// (§3): the callee can commit or abort independently; a callee throw is
// reported to the caller as an error with the caller's effects intact.
// Deadlock signals propagate — the whole transaction retries.
func (e *Env) CallContract(target types.Address, function string, args ...any) (result any, err error) {
	if e.depth+1 > MaxCallDepth {
		e.Throw("call depth %d exceeds limit", e.depth+1)
	}
	e.Do(e.tx.ChargeStep(uint64(e.world.sched.Call)))
	callee, ok := e.world.contracts[target]
	if !ok {
		e.Throw("no contract at %s", target.Short())
	}
	child, nerr := e.tx.BeginNested()
	e.Do(nerr)
	childEnv := &Env{
		world: e.world,
		tx:    child,
		msg:   Msg{Sender: e.self},
		self:  target,
		depth: e.depth + 1,
	}
	defer func() {
		r := recover()
		switch sig := r.(type) {
		case nil:
			err = child.Commit()
		case throwSignal:
			if aerr := child.Abort(); aerr != nil {
				panic(aerr)
			}
			result = nil
			err = fmt.Errorf("contract: callee threw: %s", sig.reason)
		default:
			// retrySignal and genuine bugs unwind through the caller.
			if child.Status() == stm.StatusActive {
				_ = child.Abort()
			}
			panic(r)
		}
	}()
	result = callee.Invoke(childEnv, function, args)
	return result, nil
}
