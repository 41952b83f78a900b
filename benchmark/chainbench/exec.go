package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/miner"
	"contractstm/internal/runtime"
	"contractstm/internal/validator"
	"contractstm/internal/workload"
)

// warmupUnits is how many leading units every per-unit estimate discards.
const warmupUnits = 5

// execTimes are phase B's per-block samples, in seconds.
type execTimes struct {
	serial, spec, occ, validate []float64
}

// phaseExec is phase B: per round, from the same reset world, mine one
// block with each engine and validate the speculative block, on real OS
// threads. The variants are interleaved per block and their order
// rotates per round, so a slow stretch of the host hits all of them and
// no variant always runs behind the same predecessor.
func (r *run) phaseExec() error {
	sp := r.spec
	wl, err := generate(sp, r.seed)
	if err != nil {
		return err
	}
	root, err := wl.World.StateRoot()
	if err != nil {
		return err
	}
	parent := chain.GenesisHeader(root)
	runner := r.nodeRunner()
	opts := engine.Options{Workers: r.workers}
	var t execTimes
	if r.trace != nil {
		state, err := wl.World.EncodeState()
		if err != nil {
			return err
		}
		r.stateKB = float64(len(state)) / 1024
		if r.execPath, err = r.newBlockPath("exec-probe-wal"); err != nil {
			return err
		}
		defer r.execPath.log.Close()
	}

	rounds, warm := sp.execRounds, warmupUnits
	if r.trace != nil {
		// A traced round also runs every layer on its own, 2.5 times the
		// work; fewer rounds keep the traced run as long as the other.
		rounds = rounds * 4 / 10
	}
	if rounds <= warm {
		rounds, warm = sp.execRounds, 0
	}
	for round := -warm; round < rounds; round++ {
		idx := (round + warm) % sp.blocks
		calls := wl.Calls[idx*sp.blockSize : (idx+1)*sp.blockSize]
		id := uint64(round + warm)
		timed := round >= 0
		// checked rounds verify each engine's block against a serial
		// replay of its published order; untimed, so it costs no signal.
		checked := !timed || round%10 == 0

		mine := func(kind engine.Kind, into *[]float64) (miner.Result, error) {
			name := kind.String()
			wl.Reset()
			start := time.Now()
			res, err := miner.Mine(engine.MustNew(kind), runner, wl.World, parent, calls, opts)
			end := time.Now()
			if err != nil {
				return res, fmt.Errorf("mine %s: %w", name, err)
			}
			if timed {
				*into = append(*into, end.Sub(start).Seconds())
				r.trace.add("miner.mine."+name, "", id, start, end)
			}
			if checked {
				r.checkSerializable(wl, calls, res.Block, name)
			}
			return res, nil
		}

		// Validation needs the round's speculative block, so the two
		// travel as a pair; the rotation moves the pair, serial and OCC.
		var specRes miner.Result
		for k := 0; k < 3 && err == nil; k++ {
			switch (k + int(id)) % 3 {
			case 0:
				_, err = mine(engine.KindSerial, &t.serial)
			case 1:
				if specRes, err = mine(engine.KindSpeculative, &t.spec); err == nil {
					err = r.validateBlock(wl, runner, specRes.Block, &t, id, timed)
				}
			case 2:
				// OCC is sampled on workloads where its rounds are long.
				if int(id)%sp.occEvery == 0 {
					_, err = mine(engine.KindOCC, &t.occ)
				}
			}
		}
		if err != nil {
			return err
		}
		if r.trace != nil && timed {
			if err := r.probeLayers(wl, runner, parent, calls, specRes, id); err != nil {
				return err
			}
		}
	}
	goruntime.GC()

	txs := float64(sp.blockSize)
	r.execTimes = t
	if r.trace == nil {
		r.rep.set("mine_tx_per_s", "tx/s", txs/fast(t.spec))
		r.rep.set("mine_occ_tx_per_s", "tx/s", txs/fast(t.occ))
		r.rep.set("mine_serial_tx_per_s", "tx/s", txs/fast(t.serial))
		r.rep.set("validate_tx_per_s", "tx/s", txs/fast(t.validate))
	}
	return nil
}

// validateBlock replays b on the reset world with the fork-join
// validator and times it.
func (r *run) validateBlock(wl *workload.Workload, runner runtime.Runner, b chain.Block, t *execTimes, id uint64, timed bool) error {
	wl.Reset()
	start := time.Now()
	_, err := validator.Validate(runner, wl.World, b, validator.Config{Workers: r.workers})
	end := time.Now()
	r.rep.check(err == nil, "validator rejected a speculative block: %v", err)
	if err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	if timed {
		t.validate = append(t.validate, end.Sub(start).Seconds())
		r.trace.add("validator.validate", "", id, start, end)
	}
	return nil
}

// checkSerializable verifies an engine's block the way the paper states
// it: replaying the calls serially in the published order S from the
// parent state reaches the block's state root.
func (r *run) checkSerializable(wl *workload.Workload, calls []contract.Call, b chain.Block, name string) {
	wl.Reset()
	ser, err := miner.ExecuteSerial(runtime.NewOSRunner(nil), wl.World, calls, b.Schedule.Order)
	r.rep.check(err == nil && ser.StateRoot == b.Header.StateRoot,
		"%s block is not equivalent to a serial replay in its order S (err %v)", name, err)
}
