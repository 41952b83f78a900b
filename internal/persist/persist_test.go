package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"contractstm/internal/api/wire"
	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/miner"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

// makeBlocks mines n consecutive real blocks (serial engine, simulated
// time) so WAL tests exercise the same bytes production does. It returns
// the blocks and the genesis world's encoded state per height boundary.
func makeBlocks(t *testing.T, n, perBlock int) ([]chain.Block, []Snapshot) {
	t.Helper()
	wl, err := workload.Generate(workload.Params{
		Kind: workload.KindToken, Transactions: n * perBlock,
		ConflictPercent: 10, Seed: 7,
	})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	root, err := wl.World.StateRoot()
	if err != nil {
		t.Fatalf("state root: %v", err)
	}
	eng := engine.MustNew(engine.KindSerial)
	parent := chain.GenesisHeader(root)
	blocks := make([]chain.Block, 0, n)
	snaps := make([]Snapshot, 0, n)
	for i := 0; i < n; i++ {
		calls := wl.Calls[i*perBlock : (i+1)*perBlock]
		res, err := miner.Mine(eng, runtime.NewSimRunner(), wl.World, parent, calls, engine.Options{Workers: 1})
		if err != nil {
			t.Fatalf("mine block %d: %v", i+1, err)
		}
		blocks = append(blocks, res.Block)
		state, err := wl.World.EncodeState()
		if err != nil {
			t.Fatalf("encode state: %v", err)
		}
		snaps = append(snaps, Snapshot{Header: res.Block.Header, State: state})
		parent = res.Block.Header
	}
	return blocks, snaps
}

// replay is a whole WAL recovery with nothing overlapped: Scan through
// fn, then Resume.
func replay(l *Log, from uint64, fn func(chain.Block) error) error {
	tail, err := l.Scan(from, fn)
	if err != nil {
		return err
	}
	return l.Resume(tail)
}

// openReplay opens dir and replays everything, returning the recovered
// blocks.
func openReplay(t *testing.T, dir string, opts Options, from uint64) (*Log, []chain.Block) {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var got []chain.Block
	if err := replay(l, from, func(b chain.Block) error {
		got = append(got, b)
		return nil
	}); err != nil {
		t.Fatalf("blocks: %v", err)
	}
	return l, got
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	blocks, _ := makeBlocks(t, 4, 5)
	dir := t.TempDir()

	l, got := openReplay(t, dir, Options{}, 1)
	if len(got) != 0 {
		t.Fatalf("fresh log replayed %d blocks", len(got))
	}
	for _, b := range blocks {
		if err := l.Append(b); err != nil {
			t.Fatalf("append %d: %v", b.Header.Number, err)
		}
	}
	if l.Height() != uint64(len(blocks)) {
		t.Fatalf("height %d, want %d", l.Height(), len(blocks))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := l.Append(blocks[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}

	l2, got := openReplay(t, dir, Options{}, 1)
	defer l2.Close()
	if len(got) != len(blocks) {
		t.Fatalf("replayed %d blocks, want %d", len(got), len(blocks))
	}
	for i, b := range got {
		if b.Header.Hash() != blocks[i].Header.Hash() {
			t.Fatalf("block %d hash mismatch after replay", i+1)
		}
	}
}

func TestWALRejectsGapsAndStaleAppends(t *testing.T) {
	blocks, _ := makeBlocks(t, 3, 4)
	dir := t.TempDir()
	l, _ := openReplay(t, dir, Options{}, 1)
	if err := l.Append(blocks[1]); !errors.Is(err, ErrGap) {
		t.Fatalf("gap append: %v, want ErrGap", err)
	}
	if err := l.Append(blocks[0]); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Append(blocks[0]); !errors.Is(err, ErrGap) {
		t.Fatalf("duplicate append: %v, want ErrGap", err)
	}
	// While l is open, the directory is exclusively locked.
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second open of a live dir: %v, want ErrLocked", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Appending before replay on a dir that has a WAL must refuse.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l2.Close()
	if err := l2.Append(blocks[1]); !errors.Is(err, ErrNotReplayed) {
		t.Fatalf("append before replay: %v, want ErrNotReplayed", err)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	blocks, _ := makeBlocks(t, 3, 4)
	dir := t.TempDir()
	l, _ := openReplay(t, dir, Options{}, 1)
	for _, b := range blocks {
		if err := l.Append(b); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Tear the final record: chop bytes off the segment file, as a crash
	// mid-write would.
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v (%d)", err, len(segs))
	}
	info, _ := os.Stat(segs[0].path)
	if err := os.Truncate(segs[0].path, info.Size()-7); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	// Scan alone reads past the torn record and leaves it on disk: only
	// Resume cuts it, so a consumer that refuses an earlier block after
	// the scan has reached the tail leaves the file as it was.
	ls, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	scanned := 0
	if _, err := ls.Scan(1, func(chain.Block) error { scanned++; return nil }); err != nil || scanned != len(blocks)-1 {
		t.Fatalf("scan = %d blocks, %v; want %d", scanned, err, len(blocks)-1)
	}
	if after, _ := os.Stat(segs[0].path); after.Size() != info.Size()-7 {
		t.Fatalf("scan changed the segment: %d bytes, want %d", after.Size(), info.Size()-7)
	}
	if err := ls.Append(blocks[len(blocks)-1]); !errors.Is(err, ErrNotReplayed) {
		t.Fatalf("append after scan, before resume: %v, want ErrNotReplayed", err)
	}
	if err := ls.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, got := openReplay(t, dir, Options{}, 1)
	if len(got) != len(blocks)-1 {
		t.Fatalf("recovered %d blocks, want %d (torn tail dropped)", len(got), len(blocks)-1)
	}
	// The torn record was physically truncated; re-appending the lost
	// block must extend the log cleanly and survive another reopen.
	if err := l2.Append(blocks[len(blocks)-1]); err != nil {
		t.Fatalf("re-append after truncation: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	l3, got := openReplay(t, dir, Options{}, 1)
	defer l3.Close()
	if len(got) != len(blocks) {
		t.Fatalf("after repair: %d blocks, want %d", len(got), len(blocks))
	}
}

// corruptWAL flips one byte at off in the (single) segment file.
func corruptWAL(t *testing.T, dir string, off int) {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v (%d)", err, len(segs))
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	data[off] ^= 0xff
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func writeWAL(t *testing.T, dir string, blocks []chain.Block) {
	t.Helper()
	l, _ := openReplay(t, dir, Options{}, 1)
	for _, b := range blocks {
		if err := l.Append(b); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestWALCorruptMidSegmentRefuses: a bad record with intact records
// behind it may be hiding fsync-acknowledged blocks; truncating there
// would silently rewind durable history, so recovery must refuse.
func TestWALCorruptMidSegmentRefuses(t *testing.T) {
	blocks, _ := makeBlocks(t, 3, 4)
	dir := t.TempDir()
	writeWAL(t, dir, blocks)

	first, _ := chain.AppendBlockWire(nil, blocks[0])
	corruptWAL(t, dir, frameHeaderLen+len(first)+frameHeaderLen+10) // inside record 2's payload

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l2.Close()
	if err := replay(l2, 1, func(chain.Block) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-segment corruption: %v, want ErrCorrupt (records behind the damage)", err)
	}
}

// TestWALCorruptFinalRecordTruncates: damage in the very last record is
// indistinguishable from an interrupted append — nothing is behind it,
// so it is dropped and the log continues from the surviving prefix.
func TestWALCorruptFinalRecordTruncates(t *testing.T) {
	blocks, _ := makeBlocks(t, 3, 4)
	dir := t.TempDir()
	writeWAL(t, dir, blocks)

	segs, _ := listSegments(dir)
	info, err := os.Stat(segs[0].path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	corruptWAL(t, dir, int(info.Size())-5) // inside the final record's payload

	l2, got := openReplay(t, dir, Options{}, 1)
	defer l2.Close()
	if len(got) != len(blocks)-1 {
		t.Fatalf("recovered %d blocks, want %d (bad final record dropped)", len(got), len(blocks)-1)
	}
	if got[len(got)-1].Header.Hash() != blocks[len(blocks)-2].Header.Hash() {
		t.Fatal("surviving prefix mismatch")
	}
}

func TestSnapshotRoundTripAndRecoveryCut(t *testing.T) {
	blocks, snaps := makeBlocks(t, 5, 4)
	dir := t.TempDir()
	l, _ := openReplay(t, dir, Options{}, 1)
	for i, b := range blocks {
		if err := l.Append(b); err != nil {
			t.Fatalf("append: %v", err)
		}
		if i == 2 { // snapshot at height 3
			if err := l.WriteSnapshot(snaps[2]); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
		}
	}
	l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	s := l2.LatestSnapshot()
	if s == nil || s.Height() != 3 {
		t.Fatalf("latest snapshot %v, want height 3", s)
	}
	if !bytes.Equal(s.State, snaps[2].State) {
		t.Fatal("snapshot state bytes changed across reopen")
	}
	// Recovery replays only the tail after the snapshot.
	var got []chain.Block
	if err := replay(l2, s.Height()+1, func(b chain.Block) error {
		got = append(got, b)
		return nil
	}); err != nil {
		t.Fatalf("blocks: %v", err)
	}
	if len(got) != 2 || got[0].Header.Number != 4 {
		t.Fatalf("tail replay %d blocks from %d, want 2 from 4", len(got), got[0].Header.Number)
	}
	l2.Close()

	// No stray temp files (atomic write discipline).
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("stray temp file %s", e.Name())
		}
	}
}

func TestSnapshotRotationAndPruning(t *testing.T) {
	blocks, snaps := makeBlocks(t, 6, 3)
	dir := t.TempDir()
	l, _ := openReplay(t, dir, Options{}, 1)
	for i, b := range blocks {
		if err := l.Append(b); err != nil {
			t.Fatalf("append: %v", err)
		}
		if (i+1)%2 == 0 { // snapshots at heights 2, 4, 6
			if err := l.WriteSnapshot(snaps[i]); err != nil {
				t.Fatalf("snapshot at %d: %v", i+1, err)
			}
		}
	}
	l.Close()

	heights, err := listSnapshots(dir)
	if err != nil {
		t.Fatalf("list snapshots: %v", err)
	}
	if len(heights) != retainedSnapshots || heights[0] != 4 || heights[1] != 6 {
		t.Fatalf("retained snapshots %v, want [4 6]", heights)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatalf("list segments: %v", err)
	}
	// Segments holding only heights <= 4 are pruned; the segment feeding
	// the newest retained snapshot's tail stays.
	for _, seg := range segs {
		if seg.start < 5 {
			t.Fatalf("segment %s should have been pruned", seg.path)
		}
	}
	// The pruned log still recovers: snapshot 6 + empty tail.
	l2, got := openReplay(t, dir, Options{}, 7)
	defer l2.Close()
	if s := l2.LatestSnapshot(); s == nil || s.Height() != 6 {
		t.Fatalf("latest snapshot after pruning: %v", s)
	}
	if len(got) != 0 {
		t.Fatalf("tail after snapshot 6: %d blocks", len(got))
	}
}

func TestSnapshotFileCorruptionFallsBack(t *testing.T) {
	blocks, snaps := makeBlocks(t, 4, 3)
	dir := t.TempDir()
	l, _ := openReplay(t, dir, Options{}, 1)
	for i, b := range blocks {
		if err := l.Append(b); err != nil {
			t.Fatalf("append: %v", err)
		}
		if i == 1 || i == 3 {
			if err := l.WriteSnapshot(snaps[i]); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
		}
	}
	l.Close()

	// Rot the newest snapshot file; Open must fall back to the older one.
	path := filepath.Join(dir, snapshotName(4))
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l2.Close()
	if s := l2.LatestSnapshot(); s == nil || s.Height() != 2 {
		t.Fatalf("fallback snapshot %v, want height 2", s)
	}
}

// TestAllSnapshotsCorruptRefusesWithoutDestroying: when every snapshot
// is unreadable and the WAL's early segments were already pruned,
// recovery must refuse (the history genuinely cannot be rebuilt) — and
// crucially must not delete anything while failing, so an operator can
// still salvage the directory.
func TestAllSnapshotsCorruptRefusesWithoutDestroying(t *testing.T) {
	blocks, snaps := makeBlocks(t, 6, 3)
	dir := t.TempDir()
	l, _ := openReplay(t, dir, Options{}, 1)
	for i, b := range blocks {
		if err := l.Append(b); err != nil {
			t.Fatalf("append: %v", err)
		}
		if (i+1)%2 == 0 {
			if err := l.WriteSnapshot(snaps[i]); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
		}
	}
	l.Close()

	// Rot every retained snapshot.
	for _, h := range []uint64{4, 6} {
		path := filepath.Join(dir, snapshotName(h))
		data, _ := os.ReadFile(path)
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatalf("write: %v", err)
		}
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if s := l2.LatestSnapshot(); s != nil {
		t.Fatalf("corrupt snapshots reported as valid: height %d", s.Height())
	}
	// A genesis re-checkpoint (what node.New would write on a dir it
	// believes fresh) must not let prune anchor on the corrupt names and
	// delete the surviving segments.
	if err := l2.WriteSnapshot(Snapshot{Header: chain.GenesisHeader(types.HashString("g")), State: []byte("x")}); err != nil {
		t.Fatalf("genesis snapshot: %v", err)
	}
	segsBefore, _ := listSegments(dir)
	if err := replay(l2, 1, func(chain.Block) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("recovery over the pruned gap: %v, want ErrCorrupt", err)
	}
	segsAfter, _ := listSegments(dir)
	if len(segsBefore) == 0 || len(segsAfter) != len(segsBefore) {
		t.Fatalf("failed recovery changed the segment set: %d -> %d", len(segsBefore), len(segsAfter))
	}
	l2.Close()
}

func TestInstallSnapshotDropsHistory(t *testing.T) {
	blocks, snaps := makeBlocks(t, 4, 3)
	dir := t.TempDir()
	l, _ := openReplay(t, dir, Options{}, 1)
	for _, b := range blocks[:2] {
		if err := l.Append(b); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	// Fast-sync: adopt a checkpoint way past the local WAL.
	if err := l.InstallSnapshot(snaps[3]); err != nil {
		t.Fatalf("install: %v", err)
	}
	if l.Height() != 4 {
		t.Fatalf("height after install %d, want 4", l.Height())
	}
	segs, _ := listSegments(dir)
	if len(segs) != 0 {
		t.Fatalf("%d stale segments survived install", len(segs))
	}
	if err := l.Append(blocks[2]); !errors.Is(err, ErrGap) {
		t.Fatalf("append below installed height: %v, want ErrGap", err)
	}
	l.Close()

	l2, got := openReplay(t, dir, Options{}, 5)
	defer l2.Close()
	if s := l2.LatestSnapshot(); s == nil || s.Height() != 4 {
		t.Fatalf("reopened snapshot %v, want height 4", s)
	}
	if len(got) != 0 {
		t.Fatalf("replayed %d blocks from dropped history", len(got))
	}
}

func TestSyncPolicies(t *testing.T) {
	blocks, _ := makeBlocks(t, 4, 3)
	for _, opts := range []Options{{SyncEvery: 1}, {SyncEvery: 3}, {SyncEvery: -1}} {
		dir := t.TempDir()
		l, _ := openReplay(t, dir, opts, 1)
		for _, b := range blocks {
			if err := l.Append(b); err != nil {
				t.Fatalf("append (SyncEvery=%d): %v", opts.SyncEvery, err)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("sync: %v", err)
		}
		l.Close()
		l2, got := openReplay(t, dir, opts, 1)
		l2.Close()
		if len(got) != len(blocks) {
			t.Fatalf("SyncEvery=%d: recovered %d blocks, want %d", opts.SyncEvery, len(got), len(blocks))
		}
	}
}

func TestPoolSaveTakeConsumes(t *testing.T) {
	dir := t.TempDir()
	l, _ := openReplay(t, dir, Options{}, 1)
	defer l.Close()
	// Every argument type wire.EncodeArg lets a client submit.
	calls := []contract.Call{
		{Sender: types.AddressFromUint64(1), Contract: types.AddressFromUint64(2),
			Function: "transfer", Args: []any{types.AddressFromUint64(3), uint64(5)}, Value: 9, GasLimit: 1000},
		{Sender: types.AddressFromUint64(4), Contract: types.AddressFromUint64(2),
			Function: "vote", Args: []any{"prop", true, types.Amount(1), int(7), types.HashString("doc")}, GasLimit: 2000},
		{Sender: types.AddressFromUint64(5), Contract: types.AddressFromUint64(6), Function: "noargs"},
	}
	for _, c := range calls {
		if _, err := wire.EncodeArgs(c.Args); err != nil {
			t.Fatalf("fixture argument outside the wire set: %v", err)
		}
	}
	if err := l.SavePool(calls); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := l.TakePool()
	if err != nil {
		t.Fatalf("take: %v", err)
	}
	if !reflect.DeepEqual(got, calls) {
		t.Fatalf("pool round trip:\n got %+v\nwant %+v", got, calls)
	}
	// Consumed: a second take finds nothing.
	again, err := l.TakePool()
	if err != nil || again != nil {
		t.Fatalf("second take: %v %v", again, err)
	}
	// Saving empty clears any file.
	if err := l.SavePool(calls); err != nil {
		t.Fatalf("save: %v", err)
	}
	if err := l.SavePool(nil); err != nil {
		t.Fatalf("clear: %v", err)
	}
	if got, _ := l.TakePool(); got != nil {
		t.Fatalf("cleared pool returned %v", got)
	}
	// An argument with no encoding fails the save instead of writing a
	// file that drops it.
	bad := []contract.Call{{Function: "f", Args: []any{3.5}}}
	if err := l.SavePool(bad); err == nil {
		t.Fatal("saved a call whose argument has no encoding")
	}
	if got, err := l.TakePool(); got != nil || err != nil {
		t.Fatalf("failed save left a pool file: %v %v", got, err)
	}
}

// TestPipelineAppendGroupAllOrNothing: a group whose tail is invalid
// leaves no trace of its valid head — the WAL acknowledges groups
// atomically.
func TestPipelineAppendGroupAllOrNothing(t *testing.T) {
	blocks, _ := makeBlocks(t, 3, 4)
	dir := t.TempDir()
	l, _ := openReplay(t, dir, Options{SyncEvery: 1}, 1)

	bad := []chain.Block{blocks[0], blocks[2]} // gap inside the group
	if err := l.AppendGroup(bad); !errors.Is(err, ErrGap) {
		t.Fatalf("bad group: %v, want ErrGap", err)
	}
	if got := l.Height(); got != 0 {
		t.Fatalf("height %d after refused group, want 0", got)
	}
	if err := l.AppendGroup(blocks); err != nil {
		t.Fatalf("good group: %v", err)
	}
	if got := l.Height(); got != 3 {
		t.Fatalf("height %d, want 3", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re, got := openReplay(t, dir, Options{}, 1)
	defer re.Close()
	if len(got) != 3 {
		t.Fatalf("recovered %d blocks, want 3", len(got))
	}
}
