package contract

import (
	"encoding/binary"
	"fmt"
	"sync"

	"contractstm/internal/gas"
	"contractstm/internal/stm"
	"contractstm/internal/types"
)

// OutcomeKind classifies how a transaction execution ended.
type OutcomeKind int

const (
	// OutcomeCommitted means the contract function completed and its
	// effects are permanent.
	OutcomeCommitted OutcomeKind = iota + 1
	// OutcomeReverted means the contract threw (or ran out of gas): its
	// effects were undone, but the transaction stays in the block and in
	// the published schedule.
	OutcomeReverted
	// OutcomeRetry means a speculative conflict (deadlock victim) aborted
	// the attempt; the miner must re-execute. Never surfaces to blocks.
	OutcomeRetry
)

// String implements fmt.Stringer.
func (k OutcomeKind) String() string {
	switch k {
	case OutcomeCommitted:
		return "committed"
	case OutcomeReverted:
		return "reverted"
	case OutcomeRetry:
		return "retry"
	default:
		return fmt.Sprintf("outcome(%d)", int(k))
	}
}

// Outcome is the result of executing one transaction attempt.
type Outcome struct {
	Kind OutcomeKind
	// Result is the contract function's return value (committed only).
	Result any
	// Reason is the throw reason (reverted) or conflict description
	// (retry).
	Reason string
	// GasUsed is the gas consumed by the attempt.
	GasUsed gas.Gas
}

// Receipt is the durable, consensus-relevant digest of an execution,
// stored in the block and re-derived (and checked) by validators.
type Receipt struct {
	Tx       types.TxID `json:"tx"`
	Reverted bool       `json:"reverted"`
	GasUsed  gas.Gas    `json:"gasUsed"`
	Reason   string     `json:"reason,omitempty"`
}

// AppendForHash appends the receipt's canonical encoding, its leaf in the
// block's receipt root, to dst. The human-readable Reason is deliberately
// excluded: equivalent reverts must hash identically across
// implementations.
func (r Receipt) AppendForHash(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.Tx))
	if r.Reverted {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return binary.BigEndian.AppendUint64(dst, uint64(r.GasUsed))
}

// envPool recycles the root environments Execute hands to contract code.
// An environment lives exactly as long as its Execute call: contracts
// must not keep it.
var envPool = sync.Pool{New: func() any { return new(Env) }}

// Execute runs one contract call under an already-begun root transaction
// and settles it: Commit on success, Revert on a contract throw, Abort on a
// speculative conflict. It never lets contract panics escape except for
// genuine bugs (non-signal panics), which propagate.
func Execute(w *World, tx *stm.Tx, call Call) (out Outcome) {
	env := envPool.Get().(*Env)
	*env = Env{world: w, tx: tx, msg: Msg{Sender: call.Sender, Value: call.Value}, self: call.Contract}
	defer func() {
		r := recover()
		*env = Env{}
		envPool.Put(env)
		switch sig := r.(type) {
		case nil:
			return
		case throwSignal:
			if err := tx.Revert(); err != nil {
				panic(fmt.Sprintf("contract: revert after throw failed: %v", err))
			}
			out = Outcome{Kind: OutcomeReverted, Reason: sig.reason, GasUsed: tx.Meter().Used()}
		case retrySignal:
			if err := tx.Abort(); err != nil {
				panic(fmt.Sprintf("contract: abort after conflict failed: %v", err))
			}
			out = Outcome{Kind: OutcomeRetry, Reason: sig.err.Error(), GasUsed: tx.Meter().Used()}
		default:
			panic(r)
		}
	}()

	env.Do(tx.ChargeStep(uint64(w.sched.TxBase)))

	callee, ok := w.contracts[call.Contract]
	if !ok {
		env.Throw("no contract at %s", call.Contract.Short())
	}
	if call.Value > 0 {
		env.TransferFromSender(call.Contract, call.Value)
	}
	result := callee.Invoke(env, call.Function, call.Args)
	if err := tx.Commit(); err != nil {
		panic(fmt.Sprintf("contract: commit failed: %v", err))
	}
	return Outcome{Kind: OutcomeCommitted, Result: result, GasUsed: tx.Meter().Used()}
}

// ReceiptFor converts an outcome into the block receipt for tx id.
func ReceiptFor(id types.TxID, out Outcome) Receipt {
	return Receipt{
		Tx:       id,
		Reverted: out.Kind == OutcomeReverted,
		GasUsed:  out.GasUsed,
		Reason:   out.Reason,
	}
}
