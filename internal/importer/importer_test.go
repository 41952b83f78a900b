package importer_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"contractstm/internal/api/wire"
	"contractstm/internal/chain"
	"contractstm/internal/cluster"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/importer"
	"contractstm/internal/node"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
	"contractstm/internal/validator"
	"contractstm/internal/workload"
)

// fixtureParams is the shared workload shape: enough conflict that mined
// blocks carry happens-before edges (the raced-schedule fixture strips
// them) and every follower world is identical (same seed).
func fixtureParams(txs int) workload.Params {
	return workload.Params{
		Kind:            workload.KindToken,
		Transactions:    txs,
		ConflictPercent: 50,
		Seed:            11,
	}
}

// newNode builds a node on a fresh-but-identical genesis world. Every
// node in a test shares the deterministic sim runner, so serial and
// staged validation of the same bad block produce byte-identical errors.
func newNode(t *testing.T, kind engine.Kind, txs int) (*node.Node, *workload.Workload) {
	t.Helper()
	wl, err := workload.Generate(fixtureParams(txs))
	if err != nil {
		t.Fatalf("workload.Generate: %v", err)
	}
	n, err := node.New(node.Config{
		World: wl.World, Workers: 3, Runner: runtime.NewSimRunner(),
		Engine: kind,
	})
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}
	return n, wl
}

// mineChain mines blocks×blockSize transactions into `blocks` blocks on a
// fresh miner and returns them (blocks[0] is height 1).
func mineChain(t *testing.T, kind engine.Kind, blocks, blockSize int) []chain.Block {
	t.Helper()
	miner, wl := newNode(t, kind, blocks*blockSize)
	miner.SubmitAll(wl.Calls)
	out := make([]chain.Block, 0, blocks)
	for i := 0; i < blocks; i++ {
		b, err := miner.MineOne(blockSize)
		if err != nil {
			t.Fatalf("mine block %d: %v", i+1, err)
		}
		out = append(out, b)
	}
	return out
}

// sliceSource serves a pre-built chain to the pipeline. noRange makes every
// range fetch fail; the counters prove which fetch path ran (the
// prefetcher is a single goroutine, so plain ints are safe).
type sliceSource struct {
	blocks      []chain.Block
	noRange     bool
	rangeCalls  int
	singleCalls int
	counts      []int // count asked of each range fetch
}

func (s *sliceSource) Block(_ context.Context, h uint64) (chain.Block, error) {
	s.singleCalls++
	if h == 0 || h > uint64(len(s.blocks)) {
		return chain.Block{}, fmt.Errorf("source: no block at height %d", h)
	}
	return s.blocks[h-1], nil
}

func (s *sliceSource) Blocks(_ context.Context, from uint64, count int) ([]chain.Block, error) {
	s.rangeCalls++
	s.counts = append(s.counts, count)
	if s.noRange {
		return nil, errors.New("source: range unsupported")
	}
	if from == 0 || from > uint64(len(s.blocks)) {
		return nil, fmt.Errorf("source: no block at height %d", from)
	}
	end := from - 1 + uint64(count)
	if end > uint64(len(s.blocks)) {
		end = uint64(len(s.blocks))
	}
	return s.blocks[from-1 : end], nil
}

// serialImport is the parity reference: AcceptBlock one block at a time,
// the stateless phase run inline. It returns the import count and the
// first error with its height.
func serialImport(n *node.Node, blocks []chain.Block) (imported int, failHeight uint64, err error) {
	for _, b := range blocks {
		if aerr := n.AcceptBlock(b); aerr != nil {
			if errors.Is(aerr, node.ErrAlreadyKnown) {
				continue
			}
			return imported, b.Header.Number, aerr
		}
		imported++
	}
	return imported, 0, nil
}

// TestStagedMatchesSerialClean: on a clean chain, the staged pipeline
// imports the same blocks to the same head as the serial path, for every
// engine, over both the range-fetch and the single-block fallback path.
func TestStagedMatchesSerialClean(t *testing.T) {
	const blocks, blockSize = 8, 16
	for _, kind := range engine.Kinds() {
		for _, noRange := range []bool{false, true} {
			name := kind.String()
			if noRange {
				name += "/no-range"
			}
			t.Run(name, func(t *testing.T) {
				chainBlocks := mineChain(t, kind, blocks, blockSize)

				serial, _ := newNode(t, kind, blocks*blockSize)
				sImported, _, sErr := serialImport(serial, chainBlocks)
				if sErr != nil || sImported != blocks {
					t.Fatalf("serial import = %d, %v", sImported, sErr)
				}

				staged, _ := newNode(t, kind, blocks*blockSize)
				src := &sliceSource{blocks: chainBlocks, noRange: noRange}
				pImported, pErr := importer.Run(context.Background(), staged, src, 1, uint64(blocks), importer.Config{Workers: 4})
				if pErr != nil || pImported != blocks {
					t.Fatalf("staged import = %d, %v", pImported, pErr)
				}
				if noRange && src.singleCalls < blocks {
					t.Fatalf("fallback path made %d single fetches, want %d", src.singleCalls, blocks)
				}
				if !noRange && src.singleCalls != 0 {
					t.Fatalf("range path made %d single fetches, want 0", src.singleCalls)
				}

				sh, ph := serial.Head().Header, staged.Head().Header
				if sh.Hash() != ph.Hash() || sh.StateRoot != ph.StateRoot {
					t.Fatalf("heads diverged: serial %s, staged %s", sh.Hash().Short(), ph.Hash().Short())
				}
			})
		}
	}
}

// TestPrefetchRampsUpToBatch: the first range fetch asks for one block
// and each next one for twice as many, capped by Batch and by what is
// left of the range, so Phase A starts on the first block instead of
// after a whole batch has arrived.
func TestPrefetchRampsUpToBatch(t *testing.T) {
	const blocks, blockSize = 50, 2
	chainBlocks := mineChain(t, engine.KindSerial, blocks, blockSize)
	for _, tc := range []struct {
		batch int
		want  []int
	}{
		{0, []int{1, 2, 4, 8, 16, 16, 3}}, // default: min(Window, 16)
		{5, []int{1, 2, 4, 5, 5, 5, 5, 5, 5, 5, 5, 3}},
	} {
		follower, _ := newNode(t, engine.KindSerial, blocks*blockSize)
		src := &sliceSource{blocks: chainBlocks}
		n, err := importer.Run(context.Background(), follower, src, 1, blocks, importer.Config{Batch: tc.batch})
		if err != nil || n != blocks {
			t.Fatalf("batch %d: Run = %d, %v", tc.batch, n, err)
		}
		if !slices.Equal(src.counts, tc.want) {
			t.Fatalf("batch %d: range fetches asked for %v, want %v", tc.batch, src.counts, tc.want)
		}
	}
}

// TestAdversarialParity: for each engine and each adversarial fixture,
// the staged pipeline rejects at the same height with a byte-identical
// error to the serial path, and both followers stop on the same head.
func TestAdversarialParity(t *testing.T) {
	const blocks, blockSize, badIdx = 8, 16, 3
	fixtures := []struct {
		name  string
		apply func(t *testing.T, b chain.Block) chain.Block
	}{
		{"tampered-commitment", func(t *testing.T, b chain.Block) chain.Block {
			forged := b
			forged.Calls = append([]contract.Call(nil), b.Calls...)
			forged.Calls[0].Value++
			return forged
		}},
		{"raced-schedule", func(t *testing.T, b chain.Block) chain.Block {
			if len(b.Schedule.Edges) == 0 {
				t.Fatal("fixture block has no happens-before edges; raise conflict")
			}
			forged := b
			forged.Schedule.Edges = nil
			forged.Header.ScheduleHash = chain.ScheduleHashOf(forged.Schedule, forged.Profiles)
			return forged
		}},
		{"wrong-parent", func(t *testing.T, b chain.Block) chain.Block {
			forged := b
			forged.Header.ParentHash = types.HashString("adversarial parent")
			return forged
		}},
	}
	for _, kind := range engine.Kinds() {
		for _, fx := range fixtures {
			t.Run(kind.String()+"/"+fx.name, func(t *testing.T) {
				chainBlocks := mineChain(t, kind, blocks, blockSize)
				forged := append([]chain.Block(nil), chainBlocks...)
				forged[badIdx] = fx.apply(t, chainBlocks[badIdx])

				serial, _ := newNode(t, kind, blocks*blockSize)
				sImported, sHeight, sErr := serialImport(serial, forged)
				if sErr == nil {
					t.Fatal("serial path accepted the forged block")
				}
				if sImported != badIdx || sHeight != uint64(badIdx+1) {
					t.Fatalf("serial failed at height %d after %d imports, want %d after %d",
						sHeight, sImported, badIdx+1, badIdx)
				}

				staged, _ := newNode(t, kind, blocks*blockSize)
				src := &sliceSource{blocks: forged}
				pImported, pErr := importer.Run(context.Background(), staged, src, 1, uint64(blocks), importer.Config{Workers: 4})
				var be *importer.BlockError
				if !errors.As(pErr, &be) {
					t.Fatalf("staged error = %v, want *importer.BlockError", pErr)
				}
				if pImported != badIdx || be.Height != uint64(badIdx+1) {
					t.Fatalf("staged failed at height %d after %d imports, want %d after %d",
						be.Height, pImported, badIdx+1, badIdx)
				}
				if got, want := be.Err.Error(), sErr.Error(); got != want {
					t.Fatalf("error parity broken:\nstaged: %s\nserial: %s", got, want)
				}
				sh, ph := serial.Head().Header, staged.Head().Header
				if sh.Hash() != ph.Hash() {
					t.Fatalf("heads diverged after rejection: serial %s, staged %s",
						sh.Hash().Short(), ph.Hash().Short())
				}
			})
		}
	}
}

// TestStagedVerdictObeyed: the commit stage uses the stateless verdict it
// is handed and does not recompute it — a rejection handed in with a clean
// block is surfaced in AcceptBlock's wrapping and leaves the head unmoved.
func TestStagedVerdictObeyed(t *testing.T) {
	const blocks, blockSize = 2, 16
	chainBlocks := mineChain(t, engine.KindSpeculative, blocks, blockSize)

	bogus := errors.New("staged pipeline claims rejection")
	follower, _ := newNode(t, engine.KindSpeculative, blocks*blockSize)
	err := follower.ImportPrechecked(chainBlocks[0], validator.Prechecked{}, bogus)
	if err == nil || err.Error() != "node: "+bogus.Error() {
		t.Fatalf("the staged verdict must be obeyed, got %v", err)
	}
	if h := follower.Head().Header.Number; h != 0 {
		t.Fatalf("rejected import advanced head to %d", h)
	}
}

// TestStagedSyncOverHTTP: a follower catches up a real HTTP peer through
// the staged pipeline (range endpoint included) and ends with the head,
// state and receipts of a second follower fed the same blocks one at a
// time by AcceptBlock.
func TestStagedSyncOverHTTP(t *testing.T) {
	const blocks, blockSize = 24, 16
	worlds, calls, err := cluster.GenerateWorlds(fixtureParams(blocks*blockSize), 3)
	if err != nil {
		t.Fatalf("GenerateWorlds: %v", err)
	}
	cl, err := cluster.New(cluster.Config{
		Worlds: worlds, Engine: engine.KindOCC, Workers: 3,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(cl.Close)

	miner := cl.Node(0)
	miner.SubmitAll(calls)
	mined := make([]chain.Block, 0, blocks)
	for i := 0; i < blocks; i++ {
		b, err := miner.MineOne(blockSize)
		if err != nil {
			t.Fatalf("mine block %d: %v", i+1, err)
		}
		mined = append(mined, b)
	}

	staged := cl.Node(1)
	imported, err := cluster.SyncWith(context.Background(), staged, cl.Peer(0), importer.Config{Workers: 4})
	if err != nil {
		t.Fatalf("SyncWith: %v", err)
	}
	if imported != blocks {
		t.Fatalf("imported = %d, want %d", imported, blocks)
	}
	serial := cl.Node(2)
	if n, _, err := serialImport(serial, mined); err != nil || n != blocks {
		t.Fatalf("serial import = %d, %v", n, err)
	}
	if !cl.Converged() {
		t.Fatalf("heads diverged: %+v", cl.Heads())
	}
	if sh, ph := serial.Head().Header, staged.Head().Header; sh.StateRoot != ph.StateRoot {
		t.Fatalf("state roots differ: serial %s, staged %s", sh.StateRoot.Short(), ph.StateRoot.Short())
	}
	ctx := context.Background()
	for _, c := range calls {
		id := wire.TxIDOf(c).String()
		want, err := cl.Peer(2).Receipt(ctx, id)
		if err != nil || want.Status == wire.StatusPending {
			t.Fatalf("serial follower's receipt for %s = %+v, %v", id, want, err)
		}
		if got, err := cl.Peer(1).Receipt(ctx, id); err != nil || got != want {
			t.Fatalf("receipt %s: staged %+v, %v; serial %+v", id, got, err, want)
		}
	}
}
