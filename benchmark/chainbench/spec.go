package main

import (
	"fmt"
	goruntime "runtime"

	"contractstm/internal/contract"
	"contractstm/internal/gas"
	"contractstm/internal/workload"
)

// refSeconds is the run length the repetition counts below were sized
// for on a 2-core box; -seconds scales every count by seconds/refSeconds.
const refSeconds = 20

// receiptRoundSize is the phase-D round: 64 transactions submitted, one
// block mined, one receipt awaited.
const receiptRoundSize = 64

// spec is one workload: the generator parameters plus the repetition
// counts of each phase at refSeconds.
type spec struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same sentence).
	why      string
	kind     workload.Kind
	conflict int
	// blockSize × blocks transactions are ingested and drained per
	// phase-C rep; phase B cycles over the same blocks.
	blockSize int
	blocks    int
	// worldTxs is the transaction count the world is generated for. It
	// fixes the state size (workload.Generate seeds one or two entries
	// per call) and is at least what a phase-C rep or the receipt rounds
	// submit; each pair uses a prefix of the calls.
	worldTxs int
	// burn is the SpinBurn factor: contract compute per gas unit.
	burn int
	// execRounds is the phase-B unit count; every occEvery-th round
	// also mines with the OCC engine.
	execRounds int
	occEvery   int
	// reps is the number of fresh leader/follower pairs phase C runs.
	reps int
	// receiptRounds is the phase-D unit count.
	receiptRounds int
	// reopens is the sample count of phases E and F.
	reopens int
	// setups is the least number of pairs a run sets up: setup is a
	// sub-second stopwatch, the kind of number that needs the most
	// samples to repeat, so a run builds more pairs than it uses.
	setups int
	// loadTxs is how many requests the traced run's open loop sends.
	loadTxs int
}

var specs = []spec{
	{
		name: "exec_lowconflict",
		why:  "paper mix at 15% conflict with 45us of compute per tx: the engines do most of the work and parallel should beat serial",
		kind: workload.KindMixed, conflict: 15,
		blockSize: 200, blocks: 20, worldTxs: 4200,
		burn: 64, execRounds: 100, occEvery: 1, reps: 6, receiptRounds: 65, reopens: 7, setups: 12, loadTxs: 1500,
	},
	{
		name: "exec_highconflict",
		why:  "Zipf hot transfers at 60% conflict: deadlock victims, retries, OCC rounds and dense happens-before, so harder speculation shows its cost",
		kind: workload.KindHotCold, conflict: 60,
		blockSize: 200, blocks: 20, worldTxs: 4200,
		burn: 64, execRounds: 100, occEvery: 6, reps: 6, receiptRounds: 65, reopens: 7, setups: 12, loadTxs: 1500,
	},
	{
		name: "ingest_smalltx",
		why:  "token transfers with no contract compute in 500-tx blocks: api, mempool, seal, codec and WAL carry the run, the engines little",
		kind: workload.KindToken, conflict: 15,
		blockSize: 500, blocks: 16, worldTxs: 8000,
		burn: 0, execRounds: 100, occEvery: 1, reps: 5, receiptRounds: 65, reopens: 7, setups: 12, loadTxs: 1500,
	},
	{
		name: "bigstate_reads",
		why:  "100-tx blocks over a state 8x the others': per-block O(state) work (state root, snapshot, execMu hold) dominates, so per-block bookkeeping shows as a loss",
		kind: workload.KindToken, conflict: 5,
		blockSize: 100, blocks: 20, worldTxs: 16000,
		burn: 0, execRounds: 60, occEvery: 6, reps: 4, receiptRounds: 65, reopens: 7, setups: 12, loadTxs: 1500,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns the spec with every repetition count multiplied by f,
// each kept at or above its floor. The unit sizes (block size, state
// size, burn) never change: a unit costs the same at every run length.
func (s spec) scaled(f float64) spec {
	scale := func(n, floor int) int {
		if m := int(float64(n)*f + 0.5); m > floor {
			return m
		}
		return floor
	}
	s.execRounds = scale(s.execRounds, 2)
	s.reps = scale(s.reps, 1)
	s.receiptRounds = scale(s.receiptRounds, 2)
	s.reopens = scale(s.reopens, 1)
	if max := s.worldTxs / receiptRoundSize; s.receiptRounds > max {
		s.receiptRounds = max
	}
	return s
}

// quick shrinks the spec to a smoke test: two units per phase.
func (s spec) quick() spec {
	s.blocks = 2
	s.execRounds, s.occEvery = 2, 1
	// Two reps: the traced run compares an untraced rep with a traced one.
	s.reps, s.receiptRounds, s.reopens = 2, 2, 1
	s.setups, s.loadTxs = 0, 64
	return s
}

// workers is the engine and validator pool size: every core up to the
// paper's three, and never fewer than two so a parallel engine is parallel.
func workers() int {
	w := goruntime.NumCPU()
	if w < 2 {
		w = 2
	}
	if w > 3 {
		w = 3
	}
	return w
}

// generate builds the workload's world and calls for seed and makes
// every call content-unique. Ballot double-votes and HotCold hot
// transfers are otherwise byte-identical, hash to one wire.TxIDOf and
// fold to 409 tx_duplicate over /v1/tx; a distinct gas limit per call
// (never reached: the contracts use a few hundred gas) separates them
// without changing what they execute.
func generate(s spec, seed int64) (*workload.Workload, error) {
	wl, err := workload.Generate(workload.Params{
		Kind: s.kind, Transactions: s.worldTxs, ConflictPercent: s.conflict, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	uniquify(wl.Calls)
	return wl, nil
}

func uniquify(calls []contract.Call) {
	for i := range calls {
		calls[i].GasLimit = 1_000_000 + gas.Gas(i)
	}
}
