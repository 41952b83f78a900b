package persist

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/codec"
	"contractstm/internal/contract"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

// gobFrame frames v's gob encoding the way the pre-flat release framed
// its WAL records, snapshots, genesis marker and pool file.
func gobFrame(t *testing.T, v any) []byte {
	t.Helper()
	var payload, framed bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	if err := writeFrame(&framed, payload.Bytes()); err != nil {
		t.Fatalf("frame: %v", err)
	}
	return framed.Bytes()
}

func writeFile(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
	return path
}

// TestGobEraDataRefused: there is one encoding. Every file a gob-era
// release left behind that is still read is refused loudly —
// codec.ErrFormat at the first byte, or the snapshot kind's version check
// — and nothing is guessed at, adopted or deleted.
func TestGobEraDataRefused(t *testing.T) {
	type gobBlock struct {
		Version uint32
		Block   chain.Block
	}
	type gobSnapshot struct {
		Version uint32
		Header  chain.Header
		State   []byte
	}
	genesis := chain.GenesisHeader([32]byte{1})

	t.Run("wal", func(t *testing.T) {
		dir := t.TempDir()
		frame := gobFrame(t, gobBlock{Version: 1, Block: chain.Block{Header: chain.Header{Number: 1}}})
		writeFile(t, dir, segmentName(1), append(append([]byte(nil), frame...), frame...))
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer l.Close()
		err = replay(l, 1, func(chain.Block) error {
			t.Fatal("a gob-era record replayed")
			return nil
		})
		if !errors.Is(err, ErrCorrupt) || !errors.Is(err, codec.ErrFormat) {
			t.Fatalf("gob-era WAL: got %v, want ErrCorrupt wrapping codec.ErrFormat", err)
		}
	})

	t.Run("snapshot", func(t *testing.T) {
		gobEra := gobFrame(t, gobSnapshot{Version: 1, Header: genesis, State: []byte("state")})
		if _, err := DecodeSnapshot(bytes.NewReader(gobEra)); !errors.Is(err, codec.ErrFormat) {
			t.Fatalf("gob envelope: got %v, want codec.ErrFormat", err)
		}
		// The flat envelope that carried gob-encoded state is layout 1.
		var flatV1, framed bytes.Buffer
		if err := EncodeSnapshot(&flatV1, Snapshot{Header: genesis, State: []byte("gob state")}); err != nil {
			t.Fatalf("encode: %v", err)
		}
		payload := flatV1.Bytes()[frameHeaderLen:]
		payload[2] = 1
		if err := writeFrame(&framed, payload); err != nil {
			t.Fatalf("frame: %v", err)
		}
		_, err := DecodeSnapshot(bytes.NewReader(framed.Bytes()))
		if !errors.Is(err, codec.ErrFormat) || !strings.Contains(err.Error(), "version 1, want 3") {
			t.Fatalf("layout-1 snapshot: got %v, want a version error", err)
		}
		// On disk neither is adopted, and neither is deleted.
		dir := t.TempDir()
		old := writeFile(t, dir, snapshotName(3), gobEra)
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer l.Close()
		if s := l.LatestSnapshot(); s != nil {
			t.Fatalf("gob-era snapshot adopted at height %d", s.Height())
		}
		if _, err := os.Stat(old); err != nil {
			t.Fatalf("refused snapshot file is gone: %v", err)
		}
	})

	// Gob-era releases saved the pool as pool.gob, which nothing reads any
	// more; what TakePool must refuse is a pool.calls that is not flat.
	t.Run("pool file that is not flat", func(t *testing.T) {
		dir := t.TempDir()
		l, _ := openReplay(t, dir, Options{}, 1)
		defer l.Close()
		path := writeFile(t, dir, poolFile, gobFrame(t, []contract.Call{{Function: "transfer"}}))
		if calls, err := l.TakePool(); !errors.Is(err, codec.ErrFormat) || calls != nil {
			t.Fatalf("non-flat pool: got %v, %v, want codec.ErrFormat", calls, err)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("refused pool file is gone: %v", err)
		}
	})

	// A gob-era data dir as a whole: its gob genesis.id fails the identity
	// check node.New makes before it asks for the pool, so the node does
	// not start and the old pool.gob (clients' pending calls) stays where
	// the operator can find it.
	t.Run("gob-era data dir", func(t *testing.T) {
		dir := t.TempDir()
		l, _ := openReplay(t, dir, Options{}, 1)
		defer l.Close()
		writeFile(t, dir, genesisFile, gobFrame(t, genesis))
		oldPool := writeFile(t, dir, "pool.gob", gobFrame(t, []contract.Call{{Function: "transfer"}}))
		err := l.EnsureGenesis(genesis)
		if !errors.Is(err, ErrForeignGenesis) || !errors.Is(err, codec.ErrFormat) {
			t.Fatalf("gob-era marker: got %v, want ErrForeignGenesis wrapping codec.ErrFormat", err)
		}
		if _, err := os.Stat(oldPool); err != nil {
			t.Fatalf("gob-era pool file is gone: %v", err)
		}
	})
}

// TestPreTrieDataRefused: the release before the keyed-trie state root
// wrote blocks at layout 1 and checkpoints at layout 2, byte for byte what
// 2 and 3 hold now, under headers whose StateRoot meant something else.
// Each is refused by its layout version — not replayed into a root
// mismatch — its data dir fails the genesis identity check (the check
// node.New makes before it asks for the pool), and the refusal modifies
// and deletes nothing.
func TestPreTrieDataRefused(t *testing.T) {
	// makeBlocks(t, 2, 3)'s world, and what that release computed as its
	// genesis root.
	wl, err := workload.Generate(workload.Params{
		Kind: workload.KindToken, Transactions: 6, ConflictPercent: 10, Seed: 7,
	})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	newRoot, err := wl.World.StateRoot()
	if err != nil {
		t.Fatalf("state root: %v", err)
	}
	oldRoot, err := types.ParseHash("0x2f9c46d9bd1e93613ef1c84539cec7bce900ee23e6e02dadef99998b135417d0")
	if err != nil {
		t.Fatal(err)
	}
	blocks, snaps := makeBlocks(t, 2, 3)

	// frameAt frames a current payload relabelled with an older layout
	// version: the bytes that release wrote.
	frameAt := func(version byte, payload []byte) []byte {
		old := append([]byte(nil), payload...)
		old[2] = version
		var framed bytes.Buffer
		if err := writeFrame(&framed, old); err != nil {
			t.Fatalf("frame: %v", err)
		}
		return framed.Bytes()
	}
	var wal []byte
	for _, b := range blocks {
		payload, err := chain.AppendBlockWire(nil, b)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		wal = append(wal, frameAt(1, payload)...)
	}
	var snap bytes.Buffer
	if err := EncodeSnapshot(&snap, snaps[1]); err != nil {
		t.Fatalf("encode: %v", err)
	}
	oldSnap := frameAt(2, snap.Bytes()[frameHeaderLen:])
	var marker bytes.Buffer
	if err := writeFrame(&marker, chain.AppendHeader(nil, chain.GenesisHeader(oldRoot))); err != nil {
		t.Fatalf("frame: %v", err)
	}

	// The data dir that release left behind, pending calls included.
	dir := t.TempDir()
	writeFile(t, dir, genesisFile, marker.Bytes())
	writeFile(t, dir, segmentName(1), wal)
	writeFile(t, dir, snapshotName(2), oldSnap)
	poolLog, _ := openReplay(t, t.TempDir(), Options{}, 1)
	if err := poolLog.SavePool(wl.Calls[:2]); err != nil {
		t.Fatalf("save pool: %v", err)
	}
	pool, err := os.ReadFile(filepath.Join(poolLog.dir, poolFile))
	poolLog.Close()
	if err != nil {
		t.Fatalf("read pool: %v", err)
	}
	writeFile(t, dir, poolFile, pool)
	before := readDir(t, dir)

	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	if s := l.LatestSnapshot(); s != nil {
		t.Fatalf("layout-2 checkpoint adopted at height %d", s.Height())
	}
	_, err = DecodeSnapshot(bytes.NewReader(oldSnap))
	if !errors.Is(err, codec.ErrFormat) || !strings.Contains(err.Error(), "layout version 2, want 3") {
		t.Fatalf("layout-2 checkpoint: got %v, want a version error", err)
	}
	err = replay(l, 1, func(chain.Block) error {
		t.Fatal("a layout-1 block replayed")
		return nil
	})
	if !errors.Is(err, ErrCorrupt) || !errors.Is(err, codec.ErrFormat) ||
		!strings.Contains(err.Error(), "layout version 1, want 2") {
		t.Fatalf("layout-1 WAL: got %v, want ErrCorrupt wrapping a version error", err)
	}
	if err := l.EnsureGenesis(chain.GenesisHeader(newRoot)); !errors.Is(err, ErrForeignGenesis) {
		t.Fatalf("old genesis marker: got %v, want ErrForeignGenesis", err)
	}
	if after := readDir(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("the refusals changed the data dir:\nbefore %v\nafter  %v", names(before), names(after))
	}
}

// readDir returns every file in dir by name, except the lock file an open
// Log holds there.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read dir: %v", err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		if e.Name() == lockFileName {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		files[e.Name()] = data
	}
	return files
}

func names(files map[string][]byte) []string {
	out := make([]string, 0, len(files))
	for n := range files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestEnsureGenesisUnreadableMarker: a marker that exists but cannot be
// read is never replaced by a fresh identity.
func TestEnsureGenesisUnreadableMarker(t *testing.T) {
	dir := t.TempDir()
	l, _ := openReplay(t, dir, Options{}, 1)
	defer l.Close()
	// A directory in the marker's place: os.ReadFile fails, and not with
	// IsNotExist.
	if err := os.Mkdir(filepath.Join(dir, genesisFile), 0o755); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	err := l.EnsureGenesis(chain.GenesisHeader([32]byte{1}))
	if !errors.Is(err, ErrForeignGenesis) {
		t.Fatalf("unreadable marker: got %v, want ErrForeignGenesis", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "genesis-*.tmp")); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}

	// The marker round-trips: written once, verified after, and a
	// different genesis is refused.
	dir2 := t.TempDir()
	l2, _ := openReplay(t, dir2, Options{}, 1)
	defer l2.Close()
	h := chain.GenesisHeader([32]byte{1})
	for i := 0; i < 2; i++ {
		if err := l2.EnsureGenesis(h); err != nil {
			t.Fatalf("ensure %d: %v", i, err)
		}
	}
	if err := l2.EnsureGenesis(chain.GenesisHeader([32]byte{2})); !errors.Is(err, ErrForeignGenesis) {
		t.Fatalf("other genesis: got %v, want ErrForeignGenesis", err)
	}
}

// TestSnapshotFlatDefault pins that newly written snapshots are flat and
// still round-trip.
func TestSnapshotFlatDefault(t *testing.T) {
	_, snaps := makeBlocks(t, 1, 2)
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, snaps[0]); err != nil {
		t.Fatalf("encode: %v", err)
	}
	payload := buf.Bytes()[frameHeaderLen:]
	if payload[0] != codec.Magic {
		t.Fatalf("snapshot payload first byte 0x%02x, want flat magic", payload[0])
	}
	got, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Header != snaps[0].Header || !bytes.Equal(got.State, snaps[0].State) {
		t.Fatal("flat snapshot round trip changed contents")
	}
}

// FuzzCodecSnapshot pins the flat snapshot payload's round-trip identity:
// any payload that decodes must re-encode to the identical bytes, and
// decoding must never panic on arbitrary input.
func FuzzCodecSnapshot(f *testing.F) {
	mk := func(s Snapshot) []byte {
		dst, start := codec.AppendHeader(nil, codec.KindSnapshot)
		dst = appendSnapshotBody(dst, s)
		codec.FinishHeader(dst, start)
		return dst
	}
	f.Add(mk(Snapshot{}))
	f.Add(mk(Snapshot{
		Header: chain.Header{Number: 9, StateRoot: [32]byte{1, 2, 3}},
		State:  []byte("opaque storage bytes"),
	}))
	empty, _ := codec.AppendHeader(nil, codec.KindSnapshot)
	f.Add(empty)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeFlatSnapshot(data)
		if err != nil {
			return
		}
		if !bytes.Equal(mk(s), data) {
			t.Fatalf("re-encode differs for %x", data)
		}
	})
}
