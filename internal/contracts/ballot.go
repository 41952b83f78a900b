// Package contracts contains the smart contracts used by the paper's
// evaluation — Ballot, SimpleAuction and EtherDoc — hand-translated from
// Solidity to Go against the boosted-storage API, following the same
// methodology as the paper's Scala translation (§6): every contract
// function runs as one speculative transaction, Solidity mappings become
// boosted maps, struct types become immutable value types, and throw
// becomes Env.Throw.
//
// A small Token contract (not in the paper) is included for the examples.
//
// Translation notes that matter for concurrency:
//
//   - Ballot's proposals array of structs is split into a names array and a
//     voteCounts array so that "voteCount += weight" can use the boosted
//     increment operation; concurrent votes for the same proposal commute,
//     which reproduces the paper's observation that Ballot barely suffers
//     from added data conflict.
//   - EtherDoc's per-owner document count is deliberately translated as a
//     read-modify-write (Get+Put) rather than an increment: it reproduces
//     the naive translation whose transfers all contend on the same shared
//     entry, matching the paper's "we expect a faster drop-off … because
//     each contending transaction touches the same shared data".
package contracts

import (
	"encoding/binary"
	"fmt"

	"contractstm/internal/codec"
	"contractstm/internal/contract"
	"contractstm/internal/storage"
	"contractstm/internal/types"
)

// Voter is Ballot's per-address record (Appendix A of the paper).
// Voter values are immutable: functions store fresh copies.
type Voter struct {
	// Weight is accumulated by delegation; 0 means "may not vote".
	Weight uint64
	// Voted reports whether the voter already cast (or delegated) a vote.
	Voted bool
	// Delegate is the address the vote was delegated to, if any.
	Delegate types.Address
	// Vote is the index of the voted proposal.
	Vote uint64
}

// EncodeValue implements storage.Encoder.
func (v Voter) EncodeValue() []byte {
	out := make([]byte, 0, 8+1+types.AddressLen+8)
	out = append(out, types.Uint64Bytes(v.Weight)...)
	if v.Voted {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = append(out, v.Delegate[:]...)
	return append(out, types.Uint64Bytes(v.Vote)...)
}

// decodeVoter is EncodeValue's inverse (storage.Map.DecodeStructs).
func decodeVoter(b []byte) (any, error) {
	if len(b) != 8+1+types.AddressLen+8 || b[8] > 1 {
		return nil, fmt.Errorf("%w: %d-byte Voter record", codec.ErrFormat, len(b))
	}
	v := Voter{Weight: binary.BigEndian.Uint64(b), Voted: b[8] == 1}
	copy(v.Delegate[:], b[9:])
	v.Vote = binary.BigEndian.Uint64(b[9+types.AddressLen:])
	return v, nil
}

// Ballot is the voting-with-delegation contract from the Solidity
// documentation, the paper's first benchmark.
type Ballot struct {
	addr        types.Address
	chairperson *storage.Cell
	voters      *storage.Map
	// proposalNames[i] / voteCounts[i] together form Solidity's
	// proposals[i] struct; see the package comment.
	proposalNames *storage.Array
	voteCounts    *storage.Array
}

var _ contract.Contract = (*Ballot)(nil)

// NewBallot deploys a Ballot chaired by chairperson with the given
// proposal names. The chairperson gets weight 1, per the Solidity
// constructor.
func NewBallot(w *contract.World, addr, chairperson types.Address, proposalNames []string) (*Ballot, error) {
	store := w.Store()
	prefix := "ballot:" + addr.Short()
	chairCell, err := storage.NewCell(store, prefix+"/chairperson", chairperson)
	if err != nil {
		return nil, err
	}
	voters, err := storage.NewMap(store, prefix+"/voters")
	if err != nil {
		return nil, err
	}
	voters.DecodeStructs(decodeVoter)
	names, err := storage.NewArray(store, prefix+"/proposalNames")
	if err != nil {
		return nil, err
	}
	counts, err := storage.NewArray(store, prefix+"/voteCounts")
	if err != nil {
		return nil, err
	}
	b := &Ballot{
		addr:          addr,
		chairperson:   chairCell,
		voters:        voters,
		proposalNames: names,
		voteCounts:    counts,
	}
	if err := w.Deploy(b); err != nil {
		return nil, err
	}
	// Constructor effects, applied at genesis (non-transactional setup).
	if err := initRaw(w, func(ex *setupExec) error {
		if err := voters.Put(ex, storage.KeyAddr(chairperson), Voter{Weight: 1}); err != nil {
			return err
		}
		for _, name := range proposalNames {
			if _, err := names.Push(ex, name); err != nil {
				return err
			}
			if _, err := counts.Push(ex, uint64(0)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("ballot constructor: %w", err)
	}
	return b, nil
}

// ContractAddress implements contract.Contract.
func (b *Ballot) ContractAddress() types.Address { return b.addr }

// Invoke implements contract.Contract.
func (b *Ballot) Invoke(env *contract.Env, fn string, args []any) any {
	switch fn {
	case "giveRightToVote":
		b.giveRightToVote(env, mustAddr(env, args, 0))
		return nil
	case "delegate":
		b.delegate(env, mustAddr(env, args, 0))
		return nil
	case "vote":
		b.vote(env, mustUint(env, args, 0))
		return nil
	case "winningProposal":
		return b.winningProposal(env)
	case "winnerName":
		return b.winnerName(env)
	default:
		env.Throw("ballot: unknown function %q", fn)
		return nil
	}
}

// giveRightToVote grants voter a unit voting weight; chairperson only.
func (b *Ballot) giveRightToVote(env *contract.Env, voter types.Address) {
	env.UseGas(40)
	chair, err := b.chairperson.Read(env.Ex())
	env.Do(err)
	v := b.getVoter(env, voter)
	if env.Msg().Sender != chair.(types.Address) || v.Voted {
		env.Throw("giveRightToVote: not chairperson or voter already voted")
	}
	v.Weight = 1
	env.Do(b.voters.Put(env.Ex(), storage.KeyAddr(voter), v))
}

// delegate transfers the sender's vote to `to`, following delegation
// chains and rejecting loops, per the Solidity original.
func (b *Ballot) delegate(env *contract.Env, to types.Address) {
	env.UseGas(60)
	senderAddr := env.Msg().Sender
	sender := b.getVoter(env, senderAddr)
	if sender.Voted {
		env.Throw("delegate: sender already voted")
	}
	// Forward the delegation while `to` also delegated. Each hop reads
	// another voter record (and burns gas, bounding the walk).
	for {
		d := b.getVoter(env, to)
		if d.Delegate.IsZero() || d.Delegate == senderAddr {
			break
		}
		to = d.Delegate
		env.UseGas(20)
	}
	if to == senderAddr {
		env.Throw("delegate: delegation loop")
	}
	sender.Voted = true
	sender.Delegate = to
	env.Do(b.voters.Put(env.Ex(), storage.KeyAddr(senderAddr), sender))
	d := b.getVoter(env, to)
	if d.Voted {
		// Delegate already voted: add directly to that proposal's count.
		env.Do(b.voteCounts.AddUint(env.Ex(), int(d.Vote), sender.Weight))
	} else {
		d.Weight += sender.Weight
		env.Do(b.voters.Put(env.Ex(), storage.KeyAddr(to), d))
	}
}

// vote casts the sender's weight for the proposal. A second vote throws —
// the race the paper's Listing 1 highlights as needing serializability.
func (b *Ballot) vote(env *contract.Env, proposal uint64) {
	env.UseGas(80)
	senderAddr := env.Msg().Sender
	sender := b.getVoter(env, senderAddr)
	if sender.Voted {
		env.Throw("vote: already voted")
	}
	sender.Voted = true
	sender.Vote = proposal
	env.Do(b.voters.Put(env.Ex(), storage.KeyAddr(senderAddr), sender))
	// Out-of-range proposals throw via the array bounds check, mirroring
	// Solidity's automatic revert. The count update is a boosted increment:
	// concurrent votes for one proposal commute.
	env.Do(b.voteCounts.AddUint(env.Ex(), int(proposal), sender.Weight))
}

// winningProposal scans all proposals for the highest count.
func (b *Ballot) winningProposal(env *contract.Env) uint64 {
	env.UseGas(30)
	n, err := b.voteCounts.Len(env.Ex())
	env.Do(err)
	var winner, winning uint64
	for p := 0; p < n; p++ {
		count, err := b.voteCounts.GetUint(env.Ex(), p)
		env.Do(err)
		env.UseGas(5)
		if count > winning {
			winning = count
			winner = uint64(p)
		}
	}
	return winner
}

// winnerName returns the winning proposal's name.
func (b *Ballot) winnerName(env *contract.Env) string {
	w := b.winningProposal(env)
	name, err := b.proposalNames.Get(env.Ex(), int(w))
	env.Do(err)
	return name.(string)
}

// SeedVoter registers a voter with unit weight at genesis (benchmark
// fixture: "the contract is put into an initial state where voters are
// already registered", §7.1).
func (b *Ballot) SeedVoter(w *contract.World, voter types.Address) error {
	return initRaw(w, func(ex *setupExec) error {
		return b.voters.Put(ex, storage.KeyAddr(voter), Voter{Weight: 1})
	})
}

// getVoter loads a Voter record (zero record when absent, like Solidity's
// default-initialized mapping values).
func (b *Ballot) getVoter(env *contract.Env, addr types.Address) Voter {
	v, ok, err := b.voters.Get(env.Ex(), storage.KeyAddr(addr))
	env.Do(err)
	if !ok {
		return Voter{}
	}
	voter, isVoter := v.(Voter)
	if !isVoter {
		env.Throw("ballot: corrupt voter record for %s", addr.Short())
	}
	return voter
}
