package contracts

import (
	"strings"
	"testing"

	"contractstm/internal/contract"
	"contractstm/internal/gas"
	"contractstm/internal/runtime"
	"contractstm/internal/stm"
	"contractstm/internal/types"
)

var (
	ballotAddr  = types.AddressFromUint64(0xB0)
	auctionAddr = types.AddressFromUint64(0xA0)
	docAddr     = types.AddressFromUint64(0xD0)
	tokenAddr   = types.AddressFromUint64(0xE0)
	chair       = types.AddressFromUint64(0xC0)
	alice       = types.AddressFromUint64(1)
	bob         = types.AddressFromUint64(2)
	carol       = types.AddressFromUint64(3)
)

func newWorld(t *testing.T) *contract.World {
	t.Helper()
	w, err := contract.NewWorld(gas.DefaultSchedule())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	return w
}

// run executes one call serially and returns the outcome.
func run(t *testing.T, w *contract.World, sender types.Address, target types.Address, fn string, args ...any) contract.Outcome {
	t.Helper()
	return runCall(t, w, contract.Call{
		Sender: sender, Contract: target, Function: fn, Args: args, GasLimit: 1_000_000,
	})
}

// runValue executes one call with currency attached (Solidity msg.value).
func runValue(t *testing.T, w *contract.World, sender, target types.Address, fn string, value uint64, args ...any) contract.Outcome {
	t.Helper()
	return runCall(t, w, contract.Call{
		Sender: sender, Contract: target, Function: fn, Args: args,
		Value: types.Amount(value), GasLimit: 1_000_000,
	})
}

func runCall(t *testing.T, w *contract.World, call contract.Call) contract.Outcome {
	t.Helper()
	var out contract.Outcome
	_, err := runtime.NewSimRunner().Run(1, func(th runtime.Thread) {
		tx := stm.BeginSerial(0, th, call.GasLimit, w.Schedule())
		out = contract.Execute(w, tx, call)
	})
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}
	return out
}

// readBalance reads an account's world balance inside a serial transaction.
func readBalance(t *testing.T, w *contract.World, a types.Address) uint64 {
	t.Helper()
	var out uint64
	_, err := runtime.NewSimRunner().Run(1, func(th runtime.Thread) {
		tx := stm.BeginSerial(0, th, 1_000_000, w.Schedule())
		amt, err := w.BalanceOf(tx, a)
		if err != nil {
			t.Errorf("BalanceOf: %v", err)
		}
		out = uint64(amt)
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}
	return out
}

func mustCommit(t *testing.T, out contract.Outcome) any {
	t.Helper()
	if out.Kind != contract.OutcomeCommitted {
		t.Fatalf("outcome = %s (%s), want committed", out.Kind, out.Reason)
	}
	return out.Result
}

func mustRevert(t *testing.T, out contract.Outcome, reasonFragment string) {
	t.Helper()
	if out.Kind != contract.OutcomeReverted {
		t.Fatalf("outcome = %s, want reverted", out.Kind)
	}
	if !strings.Contains(out.Reason, reasonFragment) {
		t.Fatalf("reason = %q, want fragment %q", out.Reason, reasonFragment)
	}
}

// --- Ballot ---------------------------------------------------------------

func newTestBallot(t *testing.T, w *contract.World, proposals ...string) *Ballot {
	t.Helper()
	if len(proposals) == 0 {
		proposals = []string{"p0", "p1", "p2"}
	}
	b, err := NewBallot(w, ballotAddr, chair, proposals)
	if err != nil {
		t.Fatalf("NewBallot: %v", err)
	}
	return b
}

func TestBallotVote(t *testing.T) {
	w := newWorld(t)
	newTestBallot(t, w)
	mustCommit(t, run(t, w, chair, ballotAddr, "giveRightToVote", alice))
	mustCommit(t, run(t, w, alice, ballotAddr, "vote", uint64(1)))
	winner := mustCommit(t, run(t, w, chair, ballotAddr, "winningProposal"))
	if winner.(uint64) != 1 {
		t.Fatalf("winner = %v, want 1", winner)
	}
	name := mustCommit(t, run(t, w, chair, ballotAddr, "winnerName"))
	if name.(string) != "p1" {
		t.Fatalf("winner name = %v", name)
	}
}

func TestBallotDoubleVoteThrows(t *testing.T) {
	w := newWorld(t)
	newTestBallot(t, w)
	mustCommit(t, run(t, w, chair, ballotAddr, "giveRightToVote", alice))
	mustCommit(t, run(t, w, alice, ballotAddr, "vote", uint64(0)))
	mustRevert(t, run(t, w, alice, ballotAddr, "vote", uint64(1)), "already voted")
	// The failed vote must not have counted.
	winner := mustCommit(t, run(t, w, chair, ballotAddr, "winningProposal"))
	if winner.(uint64) != 0 {
		t.Fatalf("winner = %v, want 0", winner)
	}
}

func TestBallotVoteOutOfRangeThrowsAndRollsBack(t *testing.T) {
	w := newWorld(t)
	newTestBallot(t, w)
	mustCommit(t, run(t, w, chair, ballotAddr, "giveRightToVote", alice))
	rootBefore, _ := w.StateRoot()
	mustRevert(t, run(t, w, alice, ballotAddr, "vote", uint64(99)), "out of range")
	rootAfter, _ := w.StateRoot()
	if rootBefore != rootAfter {
		t.Fatal("reverted vote left state changes (voted flag not rolled back)")
	}
	// Alice can still vote correctly afterwards.
	mustCommit(t, run(t, w, alice, ballotAddr, "vote", uint64(2)))
}

func TestBallotGiveRightToVoteOnlyChair(t *testing.T) {
	w := newWorld(t)
	newTestBallot(t, w)
	mustRevert(t, run(t, w, alice, ballotAddr, "giveRightToVote", bob), "not chairperson")
}

func TestBallotUnregisteredVoterAddsNoWeight(t *testing.T) {
	w := newWorld(t)
	newTestBallot(t, w)
	// Solidity semantics: an unregistered voter has weight 0; the vote
	// "succeeds" but adds no count.
	mustCommit(t, run(t, w, bob, ballotAddr, "vote", uint64(1)))
	winner := mustCommit(t, run(t, w, chair, ballotAddr, "winningProposal"))
	if winner.(uint64) != 0 {
		t.Fatalf("zero-weight vote moved the winner: %v", winner)
	}
	// And the voter is now marked voted, so a second attempt throws.
	mustRevert(t, run(t, w, bob, ballotAddr, "vote", uint64(1)), "already voted")
}

func TestBallotDelegateBeforeDelegateVoted(t *testing.T) {
	w := newWorld(t)
	newTestBallot(t, w)
	mustCommit(t, run(t, w, chair, ballotAddr, "giveRightToVote", alice))
	mustCommit(t, run(t, w, chair, ballotAddr, "giveRightToVote", bob))
	// Alice delegates to Bob before Bob votes: Bob's weight becomes 2.
	mustCommit(t, run(t, w, alice, ballotAddr, "delegate", bob))
	mustCommit(t, run(t, w, bob, ballotAddr, "vote", uint64(2)))
	winner := mustCommit(t, run(t, w, chair, ballotAddr, "winningProposal"))
	if winner.(uint64) != 2 {
		t.Fatalf("winner = %v, want 2", winner)
	}
	// Verify weight 2 landed: one more vote on p1 cannot overtake.
	mustCommit(t, run(t, w, chair, ballotAddr, "giveRightToVote", carol))
	mustCommit(t, run(t, w, carol, ballotAddr, "vote", uint64(1)))
	winner = mustCommit(t, run(t, w, chair, ballotAddr, "winningProposal"))
	if winner.(uint64) != 2 {
		t.Fatalf("winner after carol = %v, want 2 (weight 2 vs 1)", winner)
	}
}

func TestBallotDelegateAfterDelegateVoted(t *testing.T) {
	w := newWorld(t)
	newTestBallot(t, w)
	mustCommit(t, run(t, w, chair, ballotAddr, "giveRightToVote", alice))
	mustCommit(t, run(t, w, chair, ballotAddr, "giveRightToVote", bob))
	mustCommit(t, run(t, w, bob, ballotAddr, "vote", uint64(1)))
	// Alice delegates after Bob voted: her weight goes straight to p1.
	mustCommit(t, run(t, w, alice, ballotAddr, "delegate", bob))
	winner := mustCommit(t, run(t, w, chair, ballotAddr, "winningProposal"))
	if winner.(uint64) != 1 {
		t.Fatalf("winner = %v, want 1", winner)
	}
}

func TestBallotDelegationChainFollowed(t *testing.T) {
	w := newWorld(t)
	newTestBallot(t, w)
	for _, v := range []types.Address{alice, bob, carol} {
		mustCommit(t, run(t, w, chair, ballotAddr, "giveRightToVote", v))
	}
	mustCommit(t, run(t, w, bob, ballotAddr, "delegate", carol))
	// Alice delegates to Bob, which must forward to Carol.
	mustCommit(t, run(t, w, alice, ballotAddr, "delegate", bob))
	mustCommit(t, run(t, w, carol, ballotAddr, "vote", uint64(0)))
	// Carol's vote now carries weight 3; verify by out-voting attempt.
	winner := mustCommit(t, run(t, w, chair, ballotAddr, "winningProposal"))
	if winner.(uint64) != 0 {
		t.Fatalf("winner = %v, want 0", winner)
	}
}

func TestBallotSelfDelegationThrows(t *testing.T) {
	w := newWorld(t)
	newTestBallot(t, w)
	mustCommit(t, run(t, w, chair, ballotAddr, "giveRightToVote", alice))
	mustRevert(t, run(t, w, alice, ballotAddr, "delegate", alice), "loop")
}

func TestBallotBackDelegationFollowsSolidityQuirk(t *testing.T) {
	// Faithful Solidity behaviour: with alice→bob in place, bob delegating
	// to alice exits the chain walk early (alice's delegate IS msg.sender)
	// and does NOT throw; bob's weight lands on alice's recorded vote
	// (proposal 0 by default) because alice counts as having voted.
	w := newWorld(t)
	newTestBallot(t, w)
	mustCommit(t, run(t, w, chair, ballotAddr, "giveRightToVote", alice))
	mustCommit(t, run(t, w, chair, ballotAddr, "giveRightToVote", bob))
	mustCommit(t, run(t, w, alice, ballotAddr, "delegate", bob))
	mustCommit(t, run(t, w, bob, ballotAddr, "delegate", alice))
	winner := mustCommit(t, run(t, w, chair, ballotAddr, "winningProposal"))
	if winner.(uint64) != 0 {
		t.Fatalf("winner = %v, want 0 (bob's weight on alice's default vote)", winner)
	}
}

func TestBallotDoubleDelegateThrows(t *testing.T) {
	w := newWorld(t)
	newTestBallot(t, w)
	mustCommit(t, run(t, w, chair, ballotAddr, "giveRightToVote", alice))
	mustCommit(t, run(t, w, alice, ballotAddr, "delegate", bob))
	mustRevert(t, run(t, w, alice, ballotAddr, "delegate", carol), "already voted")
}

// --- SimpleAuction ---------------------------------------------------------

func newTestAuction(t *testing.T, w *contract.World) *SimpleAuction {
	t.Helper()
	a, err := NewSimpleAuction(w, auctionAddr, chair)
	if err != nil {
		t.Fatalf("NewSimpleAuction: %v", err)
	}
	return a
}

func TestAuctionBidAndOutbid(t *testing.T) {
	w := newWorld(t)
	newTestAuction(t, w)
	mustCommit(t, run(t, w, alice, auctionAddr, "bid", uint64(100)))
	mustCommit(t, run(t, w, bob, auctionAddr, "bid", uint64(200)))
	highest := mustCommit(t, run(t, w, chair, auctionAddr, "highest"))
	if highest.(uint64) != 200 {
		t.Fatalf("highest = %v", highest)
	}
	// Low bid throws.
	mustRevert(t, run(t, w, carol, auctionAddr, "bid", uint64(150)), "does not beat")
}

func TestAuctionWithdrawAfterOutbid(t *testing.T) {
	w := newWorld(t)
	a := newTestAuction(t, w)
	_ = a
	// Fund the auction so withdrawals can pay out.
	_, err := runtime.NewSimRunner().Run(1, func(th runtime.Thread) {
		if err := w.Mint(Setup(w), auctionAddr, 10_000); err != nil {
			t.Errorf("Mint: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	mustCommit(t, run(t, w, alice, auctionAddr, "bid", uint64(100)))
	mustCommit(t, run(t, w, bob, auctionAddr, "bid", uint64(200)))
	got := mustCommit(t, run(t, w, alice, auctionAddr, "withdraw"))
	if got.(uint64) != 100 {
		t.Fatalf("withdraw = %v, want 100", got)
	}
	// Second withdraw returns 0.
	got = mustCommit(t, run(t, w, alice, auctionAddr, "withdraw"))
	if got.(uint64) != 0 {
		t.Fatalf("second withdraw = %v, want 0", got)
	}
}

func TestAuctionBidPlusOne(t *testing.T) {
	w := newWorld(t)
	newTestAuction(t, w)
	mustCommit(t, run(t, w, alice, auctionAddr, "bid", uint64(10)))
	got := mustCommit(t, run(t, w, bob, auctionAddr, "bidPlusOne"))
	if got.(uint64) != 11 {
		t.Fatalf("bidPlusOne = %v, want 11", got)
	}
	highest := mustCommit(t, run(t, w, chair, auctionAddr, "highest"))
	if highest.(uint64) != 11 {
		t.Fatalf("highest = %v, want 11", highest)
	}
}

func TestAuctionEnd(t *testing.T) {
	w := newWorld(t)
	newTestAuction(t, w)
	_, err := runtime.NewSimRunner().Run(1, func(th runtime.Thread) {
		if err := w.Mint(Setup(w), auctionAddr, 10_000); err != nil {
			t.Errorf("Mint: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	mustCommit(t, run(t, w, alice, auctionAddr, "bid", uint64(100)))
	mustRevert(t, run(t, w, alice, auctionAddr, "auctionEnd"), "only the beneficiary")
	mustCommit(t, run(t, w, chair, auctionAddr, "auctionEnd"))
	mustRevert(t, run(t, w, bob, auctionAddr, "bid", uint64(500)), "already ended")
	mustRevert(t, run(t, w, chair, auctionAddr, "auctionEnd"), "already ended")
}

func TestAuctionSeedBid(t *testing.T) {
	w := newWorld(t)
	a := newTestAuction(t, w)
	if err := w.Mint(Setup(w), auctionAddr, 10_000); err != nil {
		t.Fatalf("Mint: %v", err)
	}
	if err := a.SeedBid(w, alice, 50); err != nil {
		t.Fatalf("SeedBid: %v", err)
	}
	if err := a.SeedBid(w, bob, 70); err != nil {
		t.Fatalf("SeedBid: %v", err)
	}
	if err := a.SeedBid(w, carol, 60); err == nil {
		t.Fatal("non-increasing seed bid accepted")
	}
	highest := mustCommit(t, run(t, w, chair, auctionAddr, "highest"))
	if highest.(uint64) != 70 {
		t.Fatalf("highest = %v, want 70", highest)
	}
	// Alice (outbid by the seed sequence) has a pending return.
	got := mustCommit(t, run(t, w, alice, auctionAddr, "withdraw"))
	if got.(uint64) != 50 {
		t.Fatalf("withdraw = %v, want 50", got)
	}
}

// --- EtherDoc ----------------------------------------------------------------

func newTestEtherDoc(t *testing.T, w *contract.World) *EtherDoc {
	t.Helper()
	e, err := NewEtherDoc(w, docAddr)
	if err != nil {
		t.Fatalf("NewEtherDoc: %v", err)
	}
	return e
}

func doc(s string) types.Hash { return types.HashString(s) }

func TestEtherDocCreateAndExists(t *testing.T) {
	w := newWorld(t)
	newTestEtherDoc(t, w)
	if got := mustCommit(t, run(t, w, alice, docAddr, "documentExists", doc("d1"))); got.(bool) {
		t.Fatal("unregistered document exists")
	}
	mustCommit(t, run(t, w, alice, docAddr, "createDocument", doc("d1")))
	if got := mustCommit(t, run(t, w, bob, docAddr, "documentExists", doc("d1"))); !got.(bool) {
		t.Fatal("registered document does not exist")
	}
	mustRevert(t, run(t, w, bob, docAddr, "createDocument", doc("d1")), "already exists")
	owner := mustCommit(t, run(t, w, bob, docAddr, "getOwner", doc("d1")))
	if owner.(types.Address) != alice {
		t.Fatalf("owner = %v, want alice", owner)
	}
}

func TestEtherDocTransferOwnership(t *testing.T) {
	w := newWorld(t)
	newTestEtherDoc(t, w)
	mustCommit(t, run(t, w, alice, docAddr, "createDocument", doc("d1")))
	mustRevert(t, run(t, w, bob, docAddr, "transferOwnership", doc("d1"), carol), "not the owner")
	mustCommit(t, run(t, w, alice, docAddr, "transferOwnership", doc("d1"), bob))
	owner := mustCommit(t, run(t, w, carol, docAddr, "getOwner", doc("d1")))
	if owner.(types.Address) != bob {
		t.Fatalf("owner = %v, want bob", owner)
	}
	aliceCount := mustCommit(t, run(t, w, chair, docAddr, "countForOwner", alice))
	bobCount := mustCommit(t, run(t, w, chair, docAddr, "countForOwner", bob))
	if aliceCount.(uint64) != 0 || bobCount.(uint64) != 1 {
		t.Fatalf("counts = %v/%v, want 0/1", aliceCount, bobCount)
	}
}

func TestEtherDocTransferMissingDocThrows(t *testing.T) {
	w := newWorld(t)
	newTestEtherDoc(t, w)
	mustRevert(t, run(t, w, alice, docAddr, "transferOwnership", doc("nope"), bob), "no such document")
}

func TestEtherDocSeed(t *testing.T) {
	w := newWorld(t)
	e := newTestEtherDoc(t, w)
	if err := e.SeedDocument(w, doc("d1"), alice); err != nil {
		t.Fatalf("SeedDocument: %v", err)
	}
	if got := mustCommit(t, run(t, w, bob, docAddr, "documentExists", doc("d1"))); !got.(bool) {
		t.Fatal("seeded document missing")
	}
	count := mustCommit(t, run(t, w, chair, docAddr, "countForOwner", alice))
	if count.(uint64) != 1 {
		t.Fatalf("count = %v, want 1", count)
	}
}

// --- Token -------------------------------------------------------------------

func newTestToken(t *testing.T, w *contract.World) *Token {
	t.Helper()
	tok, err := NewToken(w, tokenAddr, alice, 1000)
	if err != nil {
		t.Fatalf("NewToken: %v", err)
	}
	return tok
}

func TestTokenTransfer(t *testing.T) {
	w := newWorld(t)
	newTestToken(t, w)
	mustCommit(t, run(t, w, alice, tokenAddr, "transfer", bob, uint64(300)))
	got := mustCommit(t, run(t, w, chair, tokenAddr, "balanceOf", bob))
	if got.(uint64) != 300 {
		t.Fatalf("bob balance = %v", got)
	}
	mustRevert(t, run(t, w, bob, tokenAddr, "transfer", carol, uint64(9999)), "underflow")
	supply := mustCommit(t, run(t, w, chair, tokenAddr, "totalSupply"))
	if supply.(uint64) != 1000 {
		t.Fatalf("supply = %v", supply)
	}
}

func TestTokenApproveTransferFrom(t *testing.T) {
	w := newWorld(t)
	newTestToken(t, w)
	mustCommit(t, run(t, w, alice, tokenAddr, "approve", bob, uint64(100)))
	mustCommit(t, run(t, w, bob, tokenAddr, "transferFrom", alice, carol, uint64(60)))
	got := mustCommit(t, run(t, w, chair, tokenAddr, "balanceOf", carol))
	if got.(uint64) != 60 {
		t.Fatalf("carol balance = %v", got)
	}
	// Remaining allowance 40: a 50 transfer must throw.
	mustRevert(t, run(t, w, bob, tokenAddr, "transferFrom", alice, carol, uint64(50)), "allowance")
}

func TestVoterAndDocMetaEncodeDistinct(t *testing.T) {
	v1 := Voter{Weight: 1, Voted: true, Vote: 2}
	v2 := Voter{Weight: 1, Voted: true, Vote: 3}
	if string(v1.EncodeValue()) == string(v2.EncodeValue()) {
		t.Fatal("Voter encodings collide")
	}
	d1 := DocMeta{Owner: alice, Exists: true}
	d2 := DocMeta{Owner: alice, Exists: false}
	if string(d1.EncodeValue()) == string(d2.EncodeValue()) {
		t.Fatal("DocMeta encodings collide")
	}
}
