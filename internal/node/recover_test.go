package node_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/node"
	"contractstm/internal/persist"
	"contractstm/internal/runtime"
	"contractstm/internal/workload"
)

// These tests pin what a failed recovery reports and what it leaves on
// disk. Recovery reads and prechecks the WAL ahead of the block it
// replays, so the reader can reach damage, or the torn tail, before an
// earlier block is refused. The verdict must still be the lowest failing
// height's, with the bytes a block-at-a-time replay gives, and the data
// dir must be left exactly as it was.

const recoveryBad = 5 // height of the bad block or record in each WAL

func recoveryParams() workload.Params {
	return cmtParams(workload.KindToken, 8*cmtBlockSize)
}

// plantWAL makes a data dir on recoveryParams' genesis whose WAL holds
// blocks (blocks[0] is height 1), each framed under a valid CRC. It
// returns the segment's path and the offset where each record ends.
func plantWAL(t *testing.T, blocks []chain.Block) (dir, seg string, ends []int64) {
	t.Helper()
	dir = t.TempDir()
	n, _ := cmtNode(t, recoveryParams(), dir, 1)
	if err := n.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	log, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatalf("open log: %v", err)
	}
	defer log.Close()
	tail, err := log.Scan(1, func(chain.Block) error { return nil })
	if err == nil {
		err = log.Resume(tail)
	}
	if err != nil {
		t.Fatalf("replay empty log: %v", err)
	}
	seg = filepath.Join(dir, "wal-0000000000000001.log")
	for _, b := range blocks {
		if err := log.Append(b); err != nil {
			t.Fatalf("append block %d: %v", b.Header.Number, err)
		}
		info, err := os.Stat(seg)
		if err != nil {
			t.Fatalf("stat segment: %v", err)
		}
		ends = append(ends, info.Size())
	}
	return dir, seg, ends
}

// damage flips a byte inside the payload of record h, so its CRC fails.
func damage(t *testing.T, seg string, ends []int64, h int) {
	t.Helper()
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	start := int64(0)
	if h > 1 {
		start = ends[h-2]
	}
	raw[start+8+(ends[h-1]-start-8)/2] ^= 0xff
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatalf("write segment: %v", err)
	}
}

// dirFiles reads every file in dir.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read dir: %v", err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		files[e.Name()] = string(raw)
	}
	return files
}

// recoverFails opens dir twice — a recovery that repaired anything would
// behave differently the second time — and requires both opens to fail
// with the same error and to leave every file byte-identical.
func recoverFails(t *testing.T, dir string) error {
	t.Helper()
	before := dirFiles(t, dir)
	var first error
	for i := 0; i < 2; i++ {
		wl, _ := workload.Generate(recoveryParams())
		n, err := node.New(node.Config{World: wl.World, Workers: 3, Runner: runtime.NewOSRunner(nil), DataDir: dir})
		if err == nil {
			_ = n.Close()
			t.Fatalf("open %d recovered a bad WAL", i)
		}
		if first == nil {
			first = err
		} else if err.Error() != first.Error() {
			t.Fatalf("second open: %v, first: %v", err, first)
		}
	}
	after := dirFiles(t, dir)
	for name, raw := range before {
		if got, ok := after[name]; !ok || got != raw {
			t.Fatalf("failed recovery changed %s (%d → %d bytes, present %v)", name, len(raw), len(got), ok)
		}
	}
	if len(after) != len(before) {
		t.Fatalf("failed recovery left %d files, found %d", len(after), len(before))
	}
	return first
}

// refusal is the error a block-at-a-time recovery gives for bad at its
// height: AcceptBlock's verdict on a node holding the blocks below it,
// wrapped the way recovery wraps it.
func refusal(t *testing.T, below []chain.Block, bad chain.Block) string {
	t.Helper()
	ref, _ := cmtNode(t, recoveryParams(), "", 1)
	for _, b := range below {
		if err := ref.AcceptBlock(b); err != nil {
			t.Fatalf("reference import of block %d: %v", b.Header.Number, err)
		}
	}
	err := ref.AcceptBlock(bad)
	if err == nil {
		t.Fatal("reference node accepted the bad block")
	}
	return fmt.Sprintf("node: recover: persist: replay height %d: %s", bad.Header.Number, strings.TrimPrefix(err.Error(), "node: "))
}

// tamperings fail a block in each phase: Phase A (a commitment) and
// Phase B (the state root, which only the replay can check).
var tamperings = []struct {
	name  string
	apply func(b *chain.Block)
}{
	{"commitment", func(b *chain.Block) { b.Header.TxRoot[0] ^= 1 }},
	{"state-root", func(b *chain.Block) { b.Header.StateRoot[0] ^= 1 }},
}

// withTampered returns honest with the block at height h tampered.
func withTampered(honest []chain.Block, h int, apply func(*chain.Block)) []chain.Block {
	wal := append([]chain.Block(nil), honest...)
	apply(&wal[h-1])
	return wal
}

// TestRecoveryPipelineFailureTouchesNoFile: a WAL whose block at h is
// refused and whose last record is torn fails New with a block-at-a-time
// replay's error for h, and the torn tail the reader reached ahead of h
// is not truncated: every file is as it was.
func TestRecoveryPipelineFailureTouchesNoFile(t *testing.T) {
	_, honest := cmtMine(t, recoveryParams(), nil, "", 1)
	for _, tc := range tamperings {
		t.Run(tc.name, func(t *testing.T) {
			wal := withTampered(honest, recoveryBad, tc.apply)
			dir, seg, ends := plantWAL(t, wal)
			if err := os.Truncate(seg, ends[len(ends)-1]-7); err != nil {
				t.Fatalf("tear the tail: %v", err)
			}
			want := refusal(t, honest[:recoveryBad-1], wal[recoveryBad-1])
			if err := recoverFails(t, dir); err.Error() != want {
				t.Fatalf("recovery error:\n got %v\nwant %s", err, want)
			}
		})
	}
}

// TestRecoveryPipelineElectsByHeight: the first failure by height wins,
// whichever the pipeline met first. A refused block at h beats damage the
// reader found at h+2; damage at h beats a refused block at h+1, which
// the reader never hands over.
func TestRecoveryPipelineElectsByHeight(t *testing.T) {
	_, honest := cmtMine(t, recoveryParams(), nil, "", 1)
	for _, tc := range tamperings {
		t.Run(tc.name+"/refused-then-damaged", func(t *testing.T) {
			wal := withTampered(honest, recoveryBad, tc.apply)
			dir, seg, ends := plantWAL(t, wal)
			damage(t, seg, ends, recoveryBad+2)
			want := refusal(t, honest[:recoveryBad-1], wal[recoveryBad-1])
			if err := recoverFails(t, dir); err.Error() != want {
				t.Fatalf("recovery error:\n got %v\nwant %s", err, want)
			}
		})
		t.Run(tc.name+"/damaged-then-refused", func(t *testing.T) {
			dir, seg, ends := plantWAL(t, withTampered(honest, recoveryBad+1, tc.apply))
			damage(t, seg, ends, recoveryBad)
			err := recoverFails(t, dir)
			if !errors.Is(err, persist.ErrCorrupt) || strings.Contains(err.Error(), "replay height") {
				t.Fatalf("recovery error %v, want the damaged record's ErrCorrupt", err)
			}
		})
	}
}
