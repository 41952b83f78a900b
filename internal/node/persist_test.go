package node

import (
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/contracts"
	"contractstm/internal/engine"
	"contractstm/internal/gas"
	"contractstm/internal/persist"
	"contractstm/internal/runtime"
	"contractstm/internal/storage"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

// Durable-node tests. workload.Generate is deterministic in its params,
// so "the same genesis world" is regenerated at will — exactly how a
// restarted process rebuilds its genesis before recovery. The simulated
// runner makes mining itself deterministic, so a recovered node's
// subsequent blocks can be compared bit-for-bit against an uninterrupted
// run even for the parallel engines.

const (
	recBlocks    = 4
	recBlockSize = 6
)

func recParams() workload.Params {
	return workload.Params{
		Kind: workload.KindToken, Transactions: recBlocks * recBlockSize,
		ConflictPercent: 20, Seed: 41,
	}
}

// recWorld regenerates the deterministic genesis world and call list.
func recWorld(t *testing.T) (*contract.World, []contract.Call) {
	t.Helper()
	wl, err := workload.Generate(recParams())
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	return wl.World, wl.Calls
}

// recNode builds a node over a fresh copy of the deterministic world.
func recNode(t *testing.T, ek engine.Kind, dataDir string, opts persist.Options) (*Node, []contract.Call) {
	t.Helper()
	world, calls := recWorld(t)
	n, err := New(Config{
		World: world, Workers: 3, Engine: ek,
		Runner:  runtime.NewSimRunner(),
		DataDir: dataDir, Persist: opts,
	})
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}
	return n, calls
}

// headAndRoot snapshots the identity of a node's chain tip.
func headAndRoot(n *Node) (types.Hash, types.Hash) {
	h := n.Head().Header
	return h.Hash(), h.StateRoot
}

// TestCrashRecoveryEveryBlock is the property-style crash test: for every
// engine and every kill point N, a node that mined N blocks and died
// without any shutdown courtesy must recover from its data dir to the
// identical head hash and state root, and its subsequent mining must
// reproduce the uninterrupted run block for block.
func TestCrashRecoveryEveryBlock(t *testing.T) {
	for _, ek := range engine.Kinds() {
		ek := ek
		t.Run(ek.String(), func(t *testing.T) {
			t.Parallel()
			// The uninterrupted reference run.
			ref, calls := recNode(t, ek, "", persist.Options{})
			ref.SubmitAll(calls)
			refHeads := make([]types.Hash, recBlocks+1)
			refRoots := make([]types.Hash, recBlocks+1)
			refHeads[0], refRoots[0] = headAndRoot(ref)
			for b := 1; b <= recBlocks; b++ {
				if _, err := ref.MineOne(recBlockSize); err != nil {
					t.Fatalf("reference mine %d: %v", b, err)
				}
				refHeads[b], refRoots[b] = headAndRoot(ref)
			}

			// SnapshotEvery 2 exercises both recovery flavors across the
			// kill points: snapshot + WAL tail, and pure WAL replay.
			opts := persist.Options{SnapshotEvery: 2}
			for kill := 1; kill <= recBlocks; kill++ {
				dir := t.TempDir()
				n, calls := recNode(t, ek, dir, opts)
				n.SubmitAll(calls)
				for b := 1; b <= kill; b++ {
					if _, err := n.MineOne(recBlockSize); err != nil {
						t.Fatalf("kill=%d: mine %d: %v", kill, b, err)
					}
				}
				if h, _ := headAndRoot(n); h != refHeads[kill] {
					t.Fatalf("kill=%d: pre-crash head diverged from reference", kill)
				}
				// Crash: no graceful Close, no pool save — Kill drops the
				// file handles (and data-dir lock) the way a dead process
				// would.
				n.Kill()

				re, calls := recNode(t, ek, dir, opts)
				gotHead, gotRoot := headAndRoot(re)
				if gotHead != refHeads[kill] || gotRoot != refRoots[kill] {
					t.Fatalf("kill=%d: recovered to head %s root %s, want %s %s",
						kill, gotHead.Short(), gotRoot.Short(), refHeads[kill].Short(), refRoots[kill].Short())
				}
				// The crash lost the pool; resubmit the unmined suffix (FIFO
				// selection consumed exactly kill*blockSize calls) and check
				// the recovered node keeps mining the reference chain.
				re.SubmitAll(calls[kill*recBlockSize:])
				for b := kill + 1; b <= recBlocks; b++ {
					if _, err := re.MineOne(recBlockSize); err != nil {
						t.Fatalf("kill=%d: post-recovery mine %d: %v", kill, b, err)
					}
					if h, r := headAndRoot(re); h != refHeads[b] || r != refRoots[b] {
						t.Fatalf("kill=%d: post-recovery block %d diverged from reference", kill, b)
					}
				}
				if err := re.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
			}
		})
	}
}

// TestRecoveryRejectsForeignGenesis: a data dir belongs to one genesis
// world; reopening it under a different one must fail loudly — also in
// the adversarial case where the foreign world has the same contracts
// (so a state restore would "work") and snapshot retention has already
// pruned the genesis snapshot.
func TestRecoveryRejectsForeignGenesis(t *testing.T) {
	// Every block snapshots, so by the third block the genesis snapshot
	// file is pruned and only the permanent identity marker remembers
	// where this directory came from.
	opts := persist.Options{SnapshotEvery: 1}
	dir := t.TempDir()
	n, calls := recNode(t, engine.KindSerial, dir, opts)
	n.SubmitAll(calls)
	for b := 1; b <= 3; b++ {
		if _, err := n.MineOne(recBlockSize); err != nil {
			t.Fatalf("mine: %v", err)
		}
	}
	if err := n.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// A structurally different world.
	other, err := workload.Generate(workload.Params{
		Kind: workload.KindBallot, Transactions: 4, ConflictPercent: 0, Seed: 9,
	})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	if _, err := New(Config{World: other.World, Workers: 1, DataDir: dir, Persist: opts}); err == nil {
		t.Fatal("foreign genesis world reopened someone else's data dir")
	}

	// The same deterministic setup but a different seed: identical
	// object names, different genesis state. RestoreState alone would
	// succeed, so only the identity marker stands between this and
	// silently adopting the wrong chain.
	sameShape, err := workload.Generate(func() workload.Params {
		p := recParams()
		p.Seed++
		return p
	}())
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	if _, err := New(Config{World: sameShape.World, Workers: 1, DataDir: dir, Persist: opts}); err == nil {
		t.Fatal("same-shape foreign genesis adopted the data dir")
	}

	// The rightful world still opens it.
	re, _ := recNode(t, engine.KindSerial, dir, opts)
	if re.Head().Header.Number != 3 {
		t.Fatalf("rightful reopen at height %d, want 3", re.Head().Header.Number)
	}
	if err := re.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestPoolSurvivesRestart is the txpool restart-gap fix: submitted but
// unmined calls must survive a graceful shutdown and land back in the
// reopened node's pool, in order.
func TestPoolSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	n, calls := recNode(t, engine.KindSerial, dir, persist.Options{})
	n.SubmitAll(calls)
	if _, err := n.MineOne(recBlockSize); err != nil {
		t.Fatalf("mine: %v", err)
	}
	pending := n.PoolLen()
	if pending == 0 {
		t.Fatal("test needs unmined calls in the pool")
	}
	if err := n.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re, _ := recNode(t, engine.KindSerial, dir, persist.Options{})
	if got := re.PoolLen(); got != pending {
		t.Fatalf("restored pool %d calls, want %d", got, pending)
	}
	// The restored calls are the original unmined suffix, still in order:
	// mining them reproduces the uninterrupted chain.
	ref, refCalls := recNode(t, engine.KindSerial, "", persist.Options{})
	ref.SubmitAll(refCalls)
	for b := 1; b <= recBlocks; b++ {
		if _, err := ref.MineOne(recBlockSize); err != nil {
			t.Fatalf("reference mine: %v", err)
		}
	}
	for b := 2; b <= recBlocks; b++ {
		if _, err := re.MineOne(recBlockSize); err != nil {
			t.Fatalf("post-restart mine: %v", err)
		}
	}
	if re.Head().Header.Hash() != ref.Head().Header.Hash() {
		t.Fatal("chain mined from the restored pool diverged from reference")
	}
	if err := re.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The pool file was consumed: a crash-reopen now must not resurrect
	// stale calls... but Close above re-saved the current pool, so drain
	// it first and close again.
	re2, _ := recNode(t, engine.KindSerial, dir, persist.Options{})
	for re2.PoolLen() > 0 {
		if _, err := re2.MineOne(recBlockSize); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
	if err := re2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re3, _ := recNode(t, engine.KindSerial, dir, persist.Options{})
	defer re3.Close()
	if got := re3.PoolLen(); got != 0 {
		t.Fatalf("drained node restored %d pool calls, want 0", got)
	}
}

// TestStatusReportsPersistence: the status surface carries the durable
// node's recovery facts.
func TestStatusReportsPersistence(t *testing.T) {
	dir := t.TempDir()
	n, calls := recNode(t, engine.KindSerial, dir, persist.Options{SnapshotEvery: 2})
	n.SubmitAll(calls)
	for b := 1; b <= 3; b++ {
		if _, err := n.MineOne(recBlockSize); err != nil {
			t.Fatalf("mine: %v", err)
		}
	}
	// Crash (no graceful Close) and recover.
	n.Kill()
	re, _ := recNode(t, engine.KindSerial, dir, persist.Options{SnapshotEvery: 2})
	defer re.Close()
	st := re.CurrentStatus()
	if !st.Persistent {
		t.Fatal("status not persistent")
	}
	if st.SnapshotHeight != 2 {
		t.Fatalf("snapshot height %d, want 2", st.SnapshotHeight)
	}
	if st.RecoveredBlocks != 1 {
		t.Fatalf("recovered %d blocks, want 1 (WAL tail after snapshot)", st.RecoveredBlocks)
	}
	if st.Height != 3 {
		t.Fatalf("height %d, want 3", st.Height)
	}
}

// TestInstallSnapshotRejectsHostileShape: a fast-sync peer's snapshot is
// untrusted bytes that reach World.RestoreState before any root check.
// State that stores a scalar under the name of one of this world's maps
// (it used to panic Map.restore under execMu) must come back as an
// error, with the chain and the world untouched.
func TestInstallSnapshotRejectsHostileShape(t *testing.T) {
	w, err := contract.NewWorld(gas.DefaultSchedule())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	if err := w.Mint(contracts.Setup(w), issuer, 500); err != nil {
		t.Fatalf("mint: %v", err)
	}
	n := newTestNode(t, w)
	preHead, _ := headAndRoot(n)
	preRoot, err := w.StateRoot()
	if err != nil {
		t.Fatalf("state root: %v", err)
	}

	// The peer's "world": the same single object name, but a cell.
	hostile := storage.NewStore()
	if _, err := storage.NewCell(hostile, "world/balances", uint64(1)); err != nil {
		t.Fatalf("NewCell: %v", err)
	}
	state, err := hostile.EncodeState()
	if err != nil {
		t.Fatalf("encode hostile state: %v", err)
	}
	s := persist.Snapshot{Header: chain.Header{Number: 5, StateRoot: types.HashString("claimed")}, State: state}

	if err := n.InstallSnapshot(s); err == nil {
		t.Fatal("hostile-shape snapshot installed")
	}
	if head, _ := headAndRoot(n); head != preHead || n.Height() != 0 {
		t.Fatal("refused snapshot moved the chain head")
	}
	if root, _ := w.StateRoot(); root != preRoot {
		t.Fatal("refused snapshot changed the world state")
	}
}

// TestInstallSnapshotDrainsWindow: a checkpoint must never be installed
// over a sealed-not-durable block. It used to swap world and chain under
// the block: its WAL append then failed on a height gap, the abort pass
// restored the pre-block world under the installed chain, and the node
// ended with a durable height below where it had been and a world that no
// longer hashed to its head. Now a block in the writer's queue is waited
// out and the checkpoint lands on top of it; a block that cannot drain
// (parked short of the persist stage) refuses the install outright.
func TestInstallSnapshotDrainsWindow(t *testing.T) {
	ref, refCalls := recNode(t, engine.KindSerial, "", persist.Options{})
	ref.SubmitAll(refCalls)
	for b := 1; b <= 3; b++ {
		if _, err := ref.MineOne(recBlockSize); err != nil {
			t.Fatalf("reference mine %d: %v", b, err)
		}
	}
	snap, err := ref.SnapshotNow()
	if err != nil || snap.Height() != 3 {
		t.Fatalf("reference snapshot at %d: %v", snap.Height(), err)
	}
	// consistent: the world hashes to the head's state root, and the
	// durable height has not moved backwards.
	floor := uint64(0)
	consistent := func(when string, n *Node) {
		t.Helper()
		root, err := n.world.StateRoot()
		if err != nil {
			t.Fatalf("%s: state root: %v", when, err)
		}
		if head := n.Head().Header; root != head.StateRoot {
			t.Fatalf("%s: world hashes to %s under head %d claiming %s", when, root.Short(), head.Number, head.StateRoot.Short())
		}
		durable := n.CurrentStatus().DurableHeight
		if durable < floor {
			t.Fatalf("%s: durable height fell from %d to %d", when, floor, durable)
		}
		floor = durable
	}
	for _, parked := range []bool{true, false} {
		floor = 0
		n, calls := pipeNode(t, engine.KindSerial, t.TempDir(), 2, persist.Options{SnapshotEvery: -1}, nil)
		n.SubmitAll(calls)
		if _, err := n.MineOne(recBlockSize); err != nil {
			t.Fatalf("mine 1: %v", err)
		}
		if err := n.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		consistent("block 1 durable", n)
		// Block 2 is sealed and in the window when the checkpoint arrives.
		if _, err := n.mineOne(recBlockSize, !parked); err != nil {
			t.Fatalf("seal 2: %v", err)
		}
		err := n.InstallSnapshot(snap)
		if parked {
			if err == nil {
				t.Fatal("checkpoint installed over a parked sealed-not-durable block")
			}
			if st := n.CurrentStatus(); st.Height != 2 || st.DurableHeight != 1 || st.InFlight != 1 {
				t.Fatalf("refused install moved the node: %+v", st)
			}
			consistent("install refused", n)
			n.mu.Lock()
			entry := n.win.inflight[0]
			n.mu.Unlock()
			n.persist(entry)
			if err := n.Flush(); err != nil {
				t.Fatalf("parked block did not settle after the refused install: %v", err)
			}
			consistent("parked block settled", n)
			err = n.InstallSnapshot(snap)
		}
		if err != nil {
			t.Fatalf("install over a drained window (parked=%v): %v", parked, err)
		}
		if st := n.CurrentStatus(); st.Height != 3 || st.DurableHeight != 3 || st.InFlight != 0 {
			t.Fatalf("installed node (parked=%v): %+v", parked, st)
		}
		consistent("installed", n)
		if err := n.Close(); err != nil {
			t.Fatalf("close (parked=%v): %v", parked, err)
		}
	}
}
