package chain_test

import (
	"math/rand"
	goruntime "runtime"
	"slices"
	"testing"
	"time"

	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/crypto"
	"contractstm/internal/engine"
	"contractstm/internal/gas"
	"contractstm/internal/miner"
	"contractstm/internal/runtime"
	"contractstm/internal/sched"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

// atProcs runs f at GOMAXPROCS procs and fails the test if f has not
// returned within a minute: a fan that loses a task leaves its caller
// waiting for ever, and the deadline turns that hang into a failure.
func atProcs(t *testing.T, procs int, f func()) {
	t.Helper()
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(procs))
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatalf("GOMAXPROCS %d: not done within a minute: a fan lost a task", procs)
	}
}

// mineBlock mines a block of n transactions of kind on the simulated
// runner.
func mineBlock(t *testing.T, kind workload.Kind, n int) chain.Block {
	t.Helper()
	wl, err := workload.Generate(workload.Params{Kind: kind, Transactions: n, ConflictPercent: 30, Seed: 52})
	if err != nil {
		t.Fatalf("generate %v: %v", kind, err)
	}
	res, err := miner.Mine(engine.MustNew(engine.KindSpeculative), runtime.NewSimRunner(), wl.World,
		chain.GenesisHeader(types.HashString("g")), wl.Calls, engine.Options{Workers: 3})
	if err != nil {
		t.Fatalf("mine %v: %v", kind, err)
	}
	return res.Block
}

// fanSizes are the body sizes the fan tests seal: every size up to two
// chunks and a partial third, then one either side of every chunk
// boundary up to 1,000, and 1,000. Under the race detector, which runs
// the tests repeated, they are the sizes of the first three chunks'
// boundaries, every sixteenth size below them, and 1,000.
func fanSizes() []int {
	var sizes []int
	for n := 1; n <= 1000; n++ {
		boundary := (n+1)%crypto.Chunk <= 2
		keep := n <= 2*crypto.Chunk+1 || boundary
		if raceDetector {
			keep = n <= 3*crypto.Chunk+1 && (boundary || n%16 == 1)
		}
		if keep || n == 1000 {
			sizes = append(sizes, n)
		}
	}
	return sizes
}

// TestCommitmentFanMatchesOneProc: for a mined block of every paper
// workload, each prefix of fanSizes transactions seals at GOMAXPROCS 2
// and 16 to the header and tx IDs of GOMAXPROCS 1, whether Seal hashes
// the IDs or SealHashed is given them, and VerifyCommitments accepts it
// and returns those IDs.
func TestCommitmentFanMatchesOneProc(t *testing.T) {
	parent := chain.GenesisHeader(types.HashString("g"))
	for _, kind := range workload.Kinds() {
		b := mineBlock(t, kind, 1000)
		for _, n := range fanSizes() {
			calls, receipts, profiles := b.Calls[:n], b.Receipts[:n], b.Profiles[:n]
			var want chain.Block
			var wantIDs []types.Hash
			atProcs(t, 1, func() {
				want, wantIDs = chain.Seal(parent, calls, receipts, b.Schedule, profiles, b.Header.StateRoot)
			})
			if !slices.Equal(wantIDs, chain.TxLeavesOf(calls)) {
				t.Fatalf("%v, %d txs: Seal's tx IDs are not TxLeavesOf", kind, n)
			}
			for _, procs := range []int{2, 16} {
				atProcs(t, procs, func() {
					got, ids := chain.Seal(parent, calls, receipts, b.Schedule, profiles, b.Header.StateRoot)
					hashed := chain.SealHashed(parent, calls, wantIDs, receipts, b.Schedule, profiles, b.Header.StateRoot)
					verified, err := chain.VerifyCommitments(got)
					switch {
					case got.Header != want.Header || hashed.Header != want.Header:
						t.Errorf("%v, %d txs, GOMAXPROCS %d: header differs from GOMAXPROCS 1's", kind, n, procs)
					case !slices.Equal(ids, wantIDs):
						t.Errorf("%v, %d txs, GOMAXPROCS %d: Seal's tx IDs differ from GOMAXPROCS 1's", kind, n, procs)
					case err != nil:
						t.Errorf("%v, %d txs, GOMAXPROCS %d: %v", kind, n, procs, err)
					case !slices.Equal(verified, wantIDs):
						t.Errorf("%v, %d txs, GOMAXPROCS %d: VerifyCommitments' tx IDs differ from GOMAXPROCS 1's", kind, n, procs)
					}
				})
			}
		}
	}
}

// TestCommitmentFanMatchesMerkleRoot: for an empty tree and every size
// of fanSizes, SealHashed's tx root over random tx IDs and receipt root
// over random receipts equal crypto.MerkleRoot of the IDs and
// ReceiptRootOf of the receipts, both hashed on the caller alone, at
// GOMAXPROCS 1, 2, 3 and 16. The receipt counts are the tx counts in
// reverse, so one tree may fan while the other is a single chunk.
func TestCommitmentFanMatchesMerkleRoot(t *testing.T) {
	sizes := append([]int{0}, fanSizes()...)
	most := sizes[len(sizes)-1]
	rng := rand.New(rand.NewSource(52))
	ids := make([]types.Hash, most)
	for i := range ids {
		rng.Read(ids[i][:])
	}
	receipts := make([]contract.Receipt, most)
	for i := range receipts {
		receipts[i] = contract.Receipt{Tx: types.TxID(rng.Intn(most)), Reverted: rng.Intn(2) == 0, GasUsed: gas.Gas(rng.Int63())}
	}
	calls := make([]contract.Call, most) // SealHashed reads only their count
	parent := chain.GenesisHeader(types.HashString("g"))
	for _, procs := range []int{1, 2, 3, 16} {
		atProcs(t, procs, func() {
			for k, n := range sizes {
				r := receipts[:sizes[len(sizes)-1-k]]
				h := chain.SealHashed(parent, calls[:n], ids[:n], r, sched.Schedule{}, nil, types.Hash{}).Header
				if want := crypto.MerkleRoot(ids[:n]); h.TxRoot != want {
					t.Errorf("GOMAXPROCS %d, %d txs: tx root %s, MerkleRoot %s", procs, n, h.TxRoot.Short(), want.Short())
				}
				if want := chain.ReceiptRootOf(r); h.ReceiptRoot != want {
					t.Errorf("GOMAXPROCS %d, %d receipts: receipt root %s, ReceiptRootOf %s", procs, len(r), h.ReceiptRoot.Short(), want.Short())
				}
			}
		})
	}
}

// fanAllocs is what one block's commitment fan may allocate beyond
// hashing the same block on one goroutine: the fan's shared state, its
// done channel and the one helper GOMAXPROCS 2 starts.
const fanAllocs = 3

// mallocsPerCall is the heap allocations one call of f makes, averaged
// over repeated calls. Unlike testing.AllocsPerRun it leaves GOMAXPROCS
// as it is, so it sees what a fan allocates.
func mallocsPerCall(f func()) float64 {
	const calls = 50
	f()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		f()
	}
	goruntime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / calls
}

// TestCommitmentFanAllocs: at GOMAXPROCS 2, VerifyCommitments and Seal on
// a 128- and a 1,000-transaction block allocate at most fanAllocs more
// than the same call at GOMAXPROCS 1, and the same for both sizes: the
// fan costs a constant per block, not per chunk or per transaction.
func TestCommitmentFanAllocs(t *testing.T) {
	blocks := []chain.Block{mineBlock(t, workload.KindMixed, 128), mineBlock(t, workload.KindToken, 1000)}
	var extra [2][2]float64
	for i, b := range blocks {
		calls := []func(){
			func() {
				if _, err := chain.VerifyCommitments(b); err != nil {
					t.Error(err)
				}
			},
			func() { chain.Seal(b.Header, b.Calls, b.Receipts, b.Schedule, b.Profiles, b.Header.StateRoot) },
		}
		for c, call := range calls {
			var one, two float64
			atProcs(t, 1, func() { one = mallocsPerCall(call) })
			atProcs(t, 2, func() { two = mallocsPerCall(call) })
			extra[c][i] = two - one
			t.Logf("%d txs, call %d: %.2f allocations at GOMAXPROCS 1, %.2f at 2", len(b.Calls), c, one, two)
		}
	}
	for c, name := range []string{"VerifyCommitments", "Seal"} {
		for i, b := range blocks {
			if extra[c][i] > fanAllocs+poolSlack+0.5 {
				t.Errorf("%s on %d txs: the fan allocates %.2f times, ceiling %d", name, len(b.Calls), extra[c][i], fanAllocs)
			}
		}
		if d := extra[c][1] - extra[c][0]; d > 0.5+poolSlack || d < -0.5-poolSlack {
			t.Errorf("%s: the fan allocates %.2f times on 128 txs and %.2f on 1,000; want the same", name, extra[c][0], extra[c][1])
		}
	}
}
