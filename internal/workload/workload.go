// Package workload generates the paper's benchmark blocks (§7.1): Ballot,
// SimpleAuction, EtherDoc and Mixed workloads parameterized by block size
// (number of transactions) and data-conflict percentage — "the percentage
// of transactions that contend with at least one other transaction for
// shared data".
//
// All generation is deterministic in the seed, so the same parameters
// always produce identical worlds and call lists; benchmarks restore the
// post-setup snapshot between runs instead of rebuilding.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"contractstm/internal/contract"
	"contractstm/internal/contracts"
	"contractstm/internal/gas"
	"contractstm/internal/storage"
	"contractstm/internal/types"
)

// Kind selects a benchmark workload.
type Kind int

const (
	// KindBallot is the voting workload: registered voters vote for one
	// proposal; conflict = voters attempting to double-vote.
	KindBallot Kind = iota + 1
	// KindAuction is the auction workload: outbid bidders withdraw;
	// conflict = bidPlusOne transactions all touching the highest bid.
	KindAuction
	// KindEtherDoc is the document-registry workload: existence checks;
	// conflict = ownership transfers all targeting the contract creator.
	KindEtherDoc
	// KindMixed combines the three in equal proportions.
	KindMixed
	// KindToken is an extension workload (not in the paper): token
	// transfers between disjoint pairs; conflict = transfers debiting one
	// hot account.
	KindToken
	// KindDelegation is an extension workload: Ballot delegations forming
	// chains. Each delegation walks its chain (reading every intermediate
	// voter record) before writing, so conflicting transactions overlap on
	// multi-key read sets — a sharper test of the lock manager than the
	// paper's single-key conflicts. Conflict% = fraction of delegations
	// targeting one hub voter.
	KindDelegation
	// KindHotCold is an extension workload: Token transfers with
	// Zipf-skewed key access. Conflict% of the transfers move value
	// *between* accounts of a small hot set, endpoints drawn under a Zipf
	// distribution — opposing transfers acquire their balance locks in
	// opposite orders (exclusive debit, then credit), so hot cross-traffic
	// deadlocks and retries under speculative mining. The cold majority
	// uses disjoint senders and recipients. The skew is what the lock-hint
	// selection policy (txpool.PolicyLockHint) is built for: the hot
	// accounts are identifiable from the calls alone (sender or argument),
	// so a feedback-informed miner spreads them across blocks while the
	// cold traffic fills every block to capacity.
	KindHotCold
	// KindFlooder is an adversarial extension workload: every transaction
	// is a token transfer from ONE sender to distinct recipients — the
	// shape of a spam flood against the ingest path. Under admission
	// control (internal/mempool) the per-sender slot cap and rate limit
	// throttle the whole workload to one sender's allowance; under
	// execution every call contends on the flooder's balance, so it also
	// degenerates the engines to serial. ConflictPercent is ignored — the
	// single sender IS the conflict.
	KindFlooder
)

// String implements fmt.Stringer; the names match the paper's benchmarks.
func (k Kind) String() string {
	switch k {
	case KindBallot:
		return "Ballot"
	case KindAuction:
		return "SimpleAuction"
	case KindEtherDoc:
		return "EtherDoc"
	case KindMixed:
		return "Mixed"
	case KindToken:
		return "Token"
	case KindDelegation:
		return "Delegation"
	case KindHotCold:
		return "HotCold"
	case KindFlooder:
		return "Flooder"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds lists the paper's four benchmarks in presentation order.
func Kinds() []Kind {
	return []Kind{KindBallot, KindAuction, KindEtherDoc, KindMixed}
}

// AllKinds lists every workload, the paper's four plus the extensions.
func AllKinds() []Kind {
	return append(Kinds(), KindToken, KindDelegation, KindHotCold, KindFlooder)
}

// ParseKind parses a workload name as commands accept it: the String()
// form ("SimpleAuction") or the short flag form ("auction"), case-
// insensitive. The one place the name→kind mapping lives, so a new
// workload is wired into every command at once.
func ParseKind(s string) (Kind, error) {
	lower := strings.ToLower(s)
	if lower == "auction" {
		return KindAuction, nil
	}
	for _, k := range AllKinds() {
		if strings.ToLower(k.String()) == lower {
			return k, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown kind %q", s)
}

// Params parameterizes one generated block.
type Params struct {
	Kind Kind
	// Transactions is the block size (the paper sweeps 10..400).
	Transactions int
	// ConflictPercent is the paper's data-conflict percentage (0..100).
	ConflictPercent int
	// Seed makes generation deterministic.
	Seed int64
	// GasLimit is the per-transaction gas limit (default 1,000,000).
	GasLimit gas.Gas
}

// HotPathParams is the representative block the repo's allocation
// ceilings are stated for (the alloc tests in miner, validator, chain and
// api): the paper's mixed workload, 128 transactions at 30 % conflict.
// Those tests mine it with three workers on the deterministic simulated
// runner, so a count is a property of the code, not of the host.
var HotPathParams = Params{Kind: KindMixed, Transactions: 128, ConflictPercent: 30, Seed: 42}

func (p Params) withDefaults() Params {
	if p.GasLimit == 0 {
		p.GasLimit = 1_000_000
	}
	return p
}

// Workload is a generated world plus the block's calls and a post-setup
// snapshot for cheap resets between benchmark runs.
type Workload struct {
	Params Params
	World  *contract.World
	Calls  []contract.Call
	snap   storage.Snapshot
}

// Reset rewinds the world to its freshly-generated state.
func (w *Workload) Reset() { w.World.Restore(w.snap) }

// Generate builds the world and block for p.
func Generate(p Params) (*Workload, error) {
	p = p.withDefaults()
	if p.Transactions <= 0 {
		return nil, fmt.Errorf("workload: %d transactions", p.Transactions)
	}
	if p.ConflictPercent < 0 || p.ConflictPercent > 100 {
		return nil, fmt.Errorf("workload: conflict percent %d out of range", p.ConflictPercent)
	}
	world, err := contract.NewWorld(gas.DefaultSchedule())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed*1000003 + int64(p.Kind)))

	var calls []contract.Call
	switch p.Kind {
	case KindBallot:
		calls, err = genBallot(world, p, 0, p.Transactions, p.ConflictPercent)
	case KindAuction:
		calls, err = genAuction(world, p, 0, p.Transactions, p.ConflictPercent)
	case KindEtherDoc:
		calls, err = genEtherDoc(world, p, 0, p.Transactions, p.ConflictPercent)
	case KindToken:
		calls, err = genToken(world, p, 0, p.Transactions, p.ConflictPercent)
	case KindDelegation:
		calls, err = genDelegation(world, p, 0, p.Transactions, p.ConflictPercent)
	case KindHotCold:
		calls, err = genHotCold(world, p, 0, p.Transactions, p.ConflictPercent)
	case KindFlooder:
		calls, err = genFlooder(world, p, 0, p.Transactions)
	case KindMixed:
		calls, err = genMixed(world, p)
	default:
		return nil, fmt.Errorf("workload: unknown kind %v", p.Kind)
	}
	if err != nil {
		return nil, err
	}
	// Deterministic shuffle so conflicting transactions are not adjacent
	// by construction.
	rng.Shuffle(len(calls), func(i, j int) { calls[i], calls[j] = calls[j], calls[i] })
	return &Workload{Params: p, World: world, Calls: calls, snap: world.Snapshot()}, nil
}

// conflictSplit partitions n transactions into contending and
// non-contending counts. pairwise workloads round the contending count to
// an even number.
func conflictSplit(n, percent int, pairwise bool) (contending, plain int) {
	c := n * percent / 100
	if pairwise {
		c -= c % 2
	}
	// A single "contending" transaction cannot contend with anything.
	if c == 1 {
		c = 0
	}
	return c, n - c
}

// Deterministic address derivation. Lanes keep Mixed's sub-workloads (and
// their actors and contracts) disjoint.

func contractAddr(kind Kind, lane int) types.Address {
	return types.AddressFromUint64(0xC0DE0000 + uint64(kind)<<8 + uint64(lane))
}

func actorAddr(seed int64, lane, i int) types.Address {
	return types.AddressFromUint64(uint64(seed)<<24 ^ (0xAC000000 + uint64(lane)<<20 + uint64(i)))
}

// genBallot builds the Ballot workload: every transaction votes for the
// same proposal (vote counts commute via increment mode); conflict% of the
// transactions form double-vote pairs contending on one voter's record.
func genBallot(world *contract.World, p Params, lane, n, conflictPct int) ([]contract.Call, error) {
	chair := actorAddr(p.Seed, lane, 999_999)
	addr := contractAddr(KindBallot, lane)
	ballot, err := contracts.NewBallot(world, addr, chair, []string{"alpha", "beta", "gamma"})
	if err != nil {
		return nil, err
	}
	contending, plain := conflictSplit(n, conflictPct, true)
	pairs := contending / 2

	calls := make([]contract.Call, 0, n)
	nextVoter := 0
	newVoter := func() (types.Address, error) {
		a := actorAddr(p.Seed, lane, nextVoter)
		nextVoter++
		return a, ballot.SeedVoter(world, a)
	}
	vote := func(sender types.Address) contract.Call {
		return contract.Call{Sender: sender, Contract: addr, Function: "vote",
			Args: []any{uint64(0)}, GasLimit: p.GasLimit}
	}
	for i := 0; i < plain; i++ {
		a, err := newVoter()
		if err != nil {
			return nil, err
		}
		calls = append(calls, vote(a))
	}
	for i := 0; i < pairs; i++ {
		a, err := newVoter()
		if err != nil {
			return nil, err
		}
		calls = append(calls, vote(a), vote(a)) // the second contends and reverts
	}
	return calls, nil
}

// genAuction builds the SimpleAuction workload: the contract is seeded
// with increasing bids so that `plain` bidders hold pending returns; the
// block withdraws them. Conflict transactions are bidPlusOne calls, each
// reading and raising the shared highest bid.
func genAuction(world *contract.World, p Params, lane, n, conflictPct int) ([]contract.Call, error) {
	beneficiary := actorAddr(p.Seed, lane, 999_998)
	addr := contractAddr(KindAuction, lane)
	auction, err := contracts.NewSimpleAuction(world, addr, beneficiary)
	if err != nil {
		return nil, err
	}
	contending, plain := conflictSplit(n, conflictPct, false)

	// Seed plain+1 increasing bids: the first `plain` bidders are outbid
	// and hold pending returns; fund the auction so withdrawals pay out.
	if err := world.Mint(contracts.Setup(world), addr, types.Amount(uint64(n+1)*uint64(n+2))); err != nil {
		return nil, err
	}
	for i := 0; i <= plain; i++ {
		bidder := actorAddr(p.Seed, lane, i)
		if err := auction.SeedBid(world, bidder, uint64(i+1)); err != nil {
			return nil, err
		}
	}

	calls := make([]contract.Call, 0, n)
	for i := 0; i < plain; i++ {
		calls = append(calls, contract.Call{
			Sender: actorAddr(p.Seed, lane, i), Contract: addr,
			Function: "withdraw", GasLimit: p.GasLimit,
		})
	}
	for i := 0; i < contending; i++ {
		calls = append(calls, contract.Call{
			Sender: actorAddr(p.Seed, lane, 500_000+i), Contract: addr,
			Function: "bidPlusOne", GasLimit: p.GasLimit,
		})
	}
	return calls, nil
}

// genEtherDoc builds the EtherDoc workload: the registry is seeded with one
// document per transaction; plain transactions check existence, contending
// transactions transfer ownership to the contract creator (all contending
// on the creator's document count).
func genEtherDoc(world *contract.World, p Params, lane, n, conflictPct int) ([]contract.Call, error) {
	addr := contractAddr(KindEtherDoc, lane)
	creator := actorAddr(p.Seed, lane, 999_997)
	etherdoc, err := contracts.NewEtherDoc(world, addr)
	if err != nil {
		return nil, err
	}
	contending, plain := conflictSplit(n, conflictPct, false)

	docHash := func(i int) types.Hash {
		return types.HashConcat(types.Uint64Bytes(uint64(p.Seed)), types.Uint64Bytes(uint64(lane)), types.Uint64Bytes(uint64(i)))
	}
	calls := make([]contract.Call, 0, n)
	for i := 0; i < plain; i++ {
		owner := actorAddr(p.Seed, lane, i)
		if err := etherdoc.SeedDocument(world, docHash(i), owner); err != nil {
			return nil, err
		}
		calls = append(calls, contract.Call{
			Sender: owner, Contract: addr,
			Function: "documentExists", Args: []any{docHash(i)}, GasLimit: p.GasLimit,
		})
	}
	for i := 0; i < contending; i++ {
		owner := actorAddr(p.Seed, lane, 500_000+i)
		if err := etherdoc.SeedDocument(world, docHash(500_000+i), owner); err != nil {
			return nil, err
		}
		calls = append(calls, contract.Call{
			Sender: owner, Contract: addr,
			Function: "transferOwnership", Args: []any{docHash(500_000 + i), creator}, GasLimit: p.GasLimit,
		})
	}
	return calls, nil
}

// genToken builds the extension Token workload: plain transactions move
// tokens between disjoint accounts; contending transactions all debit one
// hot account (exclusive on its balance).
func genToken(world *contract.World, p Params, lane, n, conflictPct int) ([]contract.Call, error) {
	addr := contractAddr(KindToken, lane)
	issuer := actorAddr(p.Seed, lane, 999_996)
	hot := actorAddr(p.Seed, lane, 999_995)
	token, err := contracts.NewToken(world, addr, issuer, 1_000_000_000)
	if err != nil {
		return nil, err
	}
	contending, plain := conflictSplit(n, conflictPct, false)

	// Genesis funding: every plain sender gets 1000; the hot account gets
	// enough for all contending debits.
	for i := 0; i < plain; i++ {
		if err := token.SeedBalance(world, actorAddr(p.Seed, lane, i), 1000); err != nil {
			return nil, err
		}
	}
	if contending > 0 {
		if err := token.SeedBalance(world, hot, uint64(contending)*10); err != nil {
			return nil, err
		}
	}

	calls := make([]contract.Call, 0, n)
	for i := 0; i < plain; i++ {
		from := actorAddr(p.Seed, lane, i)
		to := actorAddr(p.Seed, lane, 700_000+i)
		calls = append(calls, contract.Call{
			Sender: from, Contract: addr, Function: "transfer",
			Args: []any{to, uint64(7)}, GasLimit: p.GasLimit,
		})
	}
	for i := 0; i < contending; i++ {
		to := actorAddr(p.Seed, lane, 800_000+i)
		calls = append(calls, contract.Call{
			Sender: hot, Contract: addr, Function: "transfer",
			Args: []any{to, uint64(3)}, GasLimit: p.GasLimit,
		})
	}
	return calls, nil
}

// genDelegation builds the Delegation extension workload: every
// transaction is a Ballot delegate() call. Plain transactions delegate to
// a private proxy voter (disjoint two-key read/write sets); contending
// transactions all delegate to one hub voter, whose record every one of
// them reads and writes (weight accumulation).
func genDelegation(world *contract.World, p Params, lane, n, conflictPct int) ([]contract.Call, error) {
	chair := actorAddr(p.Seed, lane, 999_994)
	addr := contractAddr(KindDelegation, lane)
	ballot, err := contracts.NewBallot(world, addr, chair, []string{"alpha", "beta"})
	if err != nil {
		return nil, err
	}
	contending, plain := conflictSplit(n, conflictPct, false)

	hub := actorAddr(p.Seed, lane, 600_000)
	if err := ballot.SeedVoter(world, hub); err != nil {
		return nil, err
	}
	calls := make([]contract.Call, 0, n)
	for i := 0; i < plain; i++ {
		sender := actorAddr(p.Seed, lane, i)
		proxy := actorAddr(p.Seed, lane, 300_000+i)
		if err := ballot.SeedVoter(world, sender); err != nil {
			return nil, err
		}
		if err := ballot.SeedVoter(world, proxy); err != nil {
			return nil, err
		}
		calls = append(calls, contract.Call{
			Sender: sender, Contract: addr, Function: "delegate",
			Args: []any{proxy}, GasLimit: p.GasLimit,
		})
	}
	for i := 0; i < contending; i++ {
		sender := actorAddr(p.Seed, lane, 400_000+i)
		if err := ballot.SeedVoter(world, sender); err != nil {
			return nil, err
		}
		calls = append(calls, contract.Call{
			Sender: sender, Contract: addr, Function: "delegate",
			Args: []any{hub}, GasLimit: p.GasLimit,
		})
	}
	return calls, nil
}

// hotSetSize is KindHotCold's hot-account pool: small enough that a Zipf
// draw repeats senders within one block at realistic block sizes.
const hotSetSize = 4

// genHotCold builds the HotCold extension workload: cold transactions
// move tokens between disjoint accounts; hot transactions (conflict% of
// the block) move tokens between two distinct hot-set accounts, both
// endpoints drawn Zipf-skewed — so opposing hot transfers form lock
// cycles (each holds its sender's exclusive balance lock and wants the
// other's) and abort-and-retry under speculative mining. Generation is
// deterministic in the seed, Zipf draws included.
func genHotCold(world *contract.World, p Params, lane, n, conflictPct int) ([]contract.Call, error) {
	addr := contractAddr(KindHotCold, lane)
	issuer := actorAddr(p.Seed, lane, 999_993)
	token, err := contracts.NewToken(world, addr, issuer, 1_000_000_000)
	if err != nil {
		return nil, err
	}
	hot, cold := conflictSplit(n, conflictPct, false)

	rng := rand.New(rand.NewSource(p.Seed*7777777 + int64(lane)*31 + int64(KindHotCold)))
	// s=1.3, v=1 over [0, hotSetSize): a classic skew — the hottest
	// account takes roughly half the hot draws.
	zipf := rand.NewZipf(rng, 1.3, 1, hotSetSize-1)

	hotAccounts := make([]types.Address, hotSetSize)
	for i := range hotAccounts {
		hotAccounts[i] = actorAddr(p.Seed, lane, 900_000+i)
		if hot > 0 {
			if err := token.SeedBalance(world, hotAccounts[i], uint64(hot)*10); err != nil {
				return nil, err
			}
		}
	}

	calls := make([]contract.Call, 0, n)
	for i := 0; i < cold; i++ {
		from := actorAddr(p.Seed, lane, i)
		if err := token.SeedBalance(world, from, 1000); err != nil {
			return nil, err
		}
		to := actorAddr(p.Seed, lane, 700_000+i)
		calls = append(calls, contract.Call{
			Sender: from, Contract: addr, Function: "transfer",
			Args: []any{to, uint64(7)}, GasLimit: p.GasLimit,
		})
	}
	for i := 0; i < hot; i++ {
		from := int(zipf.Uint64())
		// A distinct hot counterparty: step past the sender so every hot
		// transfer crosses two hot balances.
		to := (from + 1 + int(zipf.Uint64())) % hotSetSize
		if to == from {
			to = (to + 1) % hotSetSize
		}
		calls = append(calls, contract.Call{
			Sender: hotAccounts[from], Contract: addr, Function: "transfer",
			Args: []any{hotAccounts[to], uint64(3)}, GasLimit: p.GasLimit,
		})
	}
	return calls, nil
}

// genFlooder builds the Flooder extension workload: n token transfers,
// all from one funded flooder account to distinct recipients. Every call
// is unique (distinct recipient → distinct content-derived TxID), so the
// flood defeats naive content dedup; only per-sender admission limits
// contain it.
func genFlooder(world *contract.World, p Params, lane, n int) ([]contract.Call, error) {
	addr := contractAddr(KindFlooder, lane)
	issuer := actorAddr(p.Seed, lane, 999_992)
	flooder := actorAddr(p.Seed, lane, 999_991)
	token, err := contracts.NewToken(world, addr, issuer, 1_000_000_000)
	if err != nil {
		return nil, err
	}
	if err := token.SeedBalance(world, flooder, uint64(n)*10); err != nil {
		return nil, err
	}
	calls := make([]contract.Call, 0, n)
	for i := 0; i < n; i++ {
		to := actorAddr(p.Seed, lane, 700_000+i)
		calls = append(calls, contract.Call{
			Sender: flooder, Contract: addr, Function: "transfer",
			Args: []any{to, uint64(3)}, GasLimit: p.GasLimit,
		})
	}
	return calls, nil
}

// genMixed builds the Mixed workload: Ballot, SimpleAuction and EtherDoc
// transactions in equal proportions, each lane's conflict added the same
// way as in its own benchmark (§7.1: "combines transactions on the above
// smart contracts in equal proportions").
func genMixed(world *contract.World, p Params) ([]contract.Call, error) {
	third := p.Transactions / 3
	counts := []int{third, third, p.Transactions - 2*third}
	gens := []func(*contract.World, Params, int, int, int) ([]contract.Call, error){
		genBallot, genAuction, genEtherDoc,
	}
	var calls []contract.Call
	for lane, gen := range gens {
		if counts[lane] == 0 {
			continue
		}
		cs, err := gen(world, p, lane, counts[lane], p.ConflictPercent)
		if err != nil {
			return nil, err
		}
		calls = append(calls, cs...)
	}
	return calls, nil
}
