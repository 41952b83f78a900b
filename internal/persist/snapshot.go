package persist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"contractstm/internal/chain"
	"contractstm/internal/codec"
)

// Snapshot is one durable state checkpoint: the block header at the
// checkpoint height plus the world state encoded by
// contract.World.EncodeState. The header carries the state root the
// restored state must hash to, so a snapshot is self-verifying against
// its own claim; trust in the claim itself comes from replaying the WAL
// tail through the validator (recovery) or from the fast-sync trust
// model (a late joiner accepts a peer's checkpoint like a genesis).
type Snapshot struct {
	Header chain.Header
	State  []byte
}

// Height returns the checkpoint height.
func (s Snapshot) Height() uint64 { return s.Header.Number }

// MaxSnapshotBytes bounds one snapshot's framed payload.
const MaxSnapshotBytes = 1 << 30

// MaxSnapshotWire is the full wire size of a maximal snapshot — payload
// plus its length+CRC frame header. The cluster fast-sync client caps
// its body read at this, so a budget-sized snapshot is not misread as
// torn.
const MaxSnapshotWire = MaxSnapshotBytes + frameHeaderLen

// EncodeSnapshot writes s to w as a single framed record (the same
// length+CRC frame as WAL records). The payload is the flat codec's
// snapshot stream: codec header, then the block header's flat fields,
// then the length-prefixed opaque state bytes (the storage layer's own
// encoding, which the envelope never interprets).
func EncodeSnapshot(w io.Writer, s Snapshot) error {
	buf := codec.GetBuffer()
	defer buf.Release()
	dst, start := codec.AppendHeader(buf.B, codec.KindSnapshot)
	dst = appendSnapshotBody(dst, s)
	codec.FinishHeader(dst, start)
	buf.B = dst
	if len(dst) > MaxSnapshotBytes {
		return fmt.Errorf("persist: snapshot %d encodes to %d bytes (max %d)", s.Height(), len(dst), MaxSnapshotBytes)
	}
	if err := writeFrame(w, dst); err != nil {
		return fmt.Errorf("persist: write snapshot %d: %w", s.Height(), err)
	}
	return nil
}

func appendSnapshotBody(dst []byte, s Snapshot) []byte {
	return codec.AppendBytes(chain.AppendHeader(dst, s.Header), s.State)
}

// DecodeSnapshot reads one framed snapshot from r, verifying the frame
// CRC and parsing the flat payload. Input is untrusted (disk bytes, or a
// fast-sync peer).
func DecodeSnapshot(r io.Reader) (Snapshot, error) {
	payload, err := readFrame(r, MaxSnapshotBytes)
	if err != nil {
		return Snapshot{}, fmt.Errorf("persist: read snapshot: %w", err)
	}
	s, err := decodeFlatSnapshot(payload)
	if err != nil {
		return Snapshot{}, fmt.Errorf("persist: decode snapshot: %w", err)
	}
	return s, nil
}

func decodeFlatSnapshot(payload []byte) (Snapshot, error) {
	body, err := codec.ParseHeader(payload, codec.KindSnapshot)
	if err != nil {
		return Snapshot{}, err
	}
	r := codec.NewReader(body)
	var s Snapshot
	if s.Header, err = chain.ReadHeader(r); err != nil {
		return Snapshot{}, err
	}
	if s.State, err = r.Bytes(); err != nil {
		return Snapshot{}, err
	}
	if err := r.Done(); err != nil {
		return Snapshot{}, err
	}
	return s, nil
}

func snapshotName(height uint64) string { return fmt.Sprintf("snap-%016d.snap", height) }

// genesisFile is the data directory's identity marker: the genesis
// header, written once at creation and never pruned (unlike the genesis
// snapshot, which retention eventually deletes). Reopening the directory
// under a different genesis world must fail loudly instead of silently
// adopting someone else's chain.
const genesisFile = "genesis.id"

// ErrForeignGenesis reports a data directory created under a different
// genesis than the one now opening it.
var ErrForeignGenesis = errors.New("persist: data dir belongs to a different genesis")

// EnsureGenesis records h as the directory's genesis on first open and
// verifies it on every later one. The marker is one frame holding the
// header's flat fields. Only a marker that does not exist is created: one
// that exists but cannot be read or parsed is an error, because an
// unreadable identity must not silently become a fresh one.
func (l *Log) EnsureGenesis(h chain.Header) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	path := filepath.Join(l.dir, genesisFile)
	data, err := os.ReadFile(path)
	if err == nil {
		have, err := decodeGenesisMarker(data)
		if err != nil {
			return fmt.Errorf("%w: unreadable %s: %w", ErrForeignGenesis, path, err)
		}
		if have != h {
			return fmt.Errorf("%w: %s holds genesis %s, world has %s",
				ErrForeignGenesis, l.dir, have.Hash().Short(), h.Hash().Short())
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return fmt.Errorf("%w: unreadable %s: %w", ErrForeignGenesis, path, err)
	}
	tmp, err := os.CreateTemp(l.dir, "genesis-*.tmp")
	if err != nil {
		return fmt.Errorf("persist: genesis marker temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := writeFrame(tmp, chain.AppendHeader(nil, h)); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("persist: write genesis marker: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("persist: sync genesis marker: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: close genesis marker: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("persist: rename genesis marker: %w", err)
	}
	l.syncDir()
	return nil
}

func decodeGenesisMarker(data []byte) (chain.Header, error) {
	payload, err := readFrame(bytes.NewReader(data), 1<<16)
	if err != nil {
		return chain.Header{}, err
	}
	r := codec.NewReader(payload)
	h, err := chain.ReadHeader(r)
	if err != nil {
		return chain.Header{}, err
	}
	return h, r.Done()
}

// listSnapshots returns snapshot file heights, ascending.
func listSnapshots(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: list %s: %w", dir, err)
	}
	var heights []uint64
	for _, e := range entries {
		var h uint64
		if n, err := fmt.Sscanf(e.Name(), "snap-%016d.snap", &h); n == 1 && err == nil {
			heights = append(heights, h)
		}
	}
	sort.Slice(heights, func(i, j int) bool { return heights[i] < heights[j] })
	return heights, nil
}

// scanSnapshots validates every snapshot file (frame CRC, version,
// height-vs-name agreement) and returns the newest valid one plus the
// ascending heights of all valid files. An interrupted snapshot write
// leaves no file at all thanks to temp+rename, but bit rot is still
// possible; damaged files are reported, not trusted — retention and
// pruning decisions must never anchor on a snapshot that cannot
// actually be restored.
func scanSnapshots(dir string) (latest *Snapshot, valid []uint64, err error) {
	heights, err := listSnapshots(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, h := range heights {
		f, err := os.Open(filepath.Join(dir, snapshotName(h)))
		if err != nil {
			continue
		}
		s, err := DecodeSnapshot(f)
		_ = f.Close()
		if err != nil || s.Height() != h {
			continue
		}
		valid = append(valid, h)
		cp := s
		latest = &cp
	}
	return latest, valid, nil
}

// retainedSnapshots is how many snapshots survive pruning: the newest
// two, so a snapshot that turns out unreadable still leaves a fallback.
const retainedSnapshots = 2

// WriteSnapshot durably records a state checkpoint: the file lands via
// temp-file + rename (atomic on POSIX — a crash leaves either the old
// set of snapshots or the new one, never a half-written file), the WAL
// rotates so the next append starts a fresh segment, and snapshots plus
// segments no longer needed for recovery are pruned.
//
// The snapshot must be at the log's current height (the caller snapshots
// its world exactly at a block boundary).
func (l *Log) WriteSnapshot(s Snapshot) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.latest != nil && s.Height() < l.latest.Height() {
		return fmt.Errorf("persist: snapshot height %d below latest %d", s.Height(), l.latest.Height())
	}
	if s.Height() < l.height {
		return fmt.Errorf("persist: snapshot height %d below log height %d", s.Height(), l.height)
	}
	if err := l.writeSnapshotFile(s); err != nil {
		return err
	}
	// Rotate: the next append opens a segment named for its first height,
	// so segments never straddle a snapshot boundary going forward.
	if l.seg != nil {
		if err := l.seg.Sync(); err != nil {
			return fmt.Errorf("persist: sync before rotate: %w", err)
		}
		if err := l.seg.Close(); err != nil {
			return fmt.Errorf("persist: rotate: %w", err)
		}
		l.seg = nil
		l.sinceSync = 0
	}
	cp := s
	l.latest = &cp
	l.recordValidSnap(s.Height())
	if s.Height() > l.height {
		l.height = s.Height()
	}
	l.prune()
	return nil
}

// recordValidSnap marks a height as backed by a just-written (hence
// valid) snapshot file. Caller holds l.mu.
func (l *Log) recordValidSnap(h uint64) {
	for _, v := range l.validSnaps {
		if v == h {
			return
		}
	}
	l.validSnaps = append(l.validSnaps, h)
	sort.Slice(l.validSnaps, func(i, j int) bool { return l.validSnaps[i] < l.validSnaps[j] })
}

// InstallSnapshot adopts a foreign checkpoint (snapshot fast-sync): all
// existing segments and snapshots are dropped — the local history below
// the checkpoint no longer connects to it — and the log restarts at the
// checkpoint height.
func (l *Log) InstallSnapshot(s Snapshot) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.seg != nil {
		_ = l.seg.Close()
		l.seg = nil
		l.sinceSync = 0
	}
	if err := l.writeSnapshotFile(s); err != nil {
		return err
	}
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if err := os.Remove(seg.path); err != nil {
			return fmt.Errorf("persist: drop segment: %w", err)
		}
	}
	heights, err := listSnapshots(l.dir)
	if err != nil {
		return err
	}
	for _, h := range heights {
		if h != s.Height() {
			if err := os.Remove(filepath.Join(l.dir, snapshotName(h))); err != nil {
				return fmt.Errorf("persist: drop snapshot: %w", err)
			}
		}
	}
	cp := s
	l.latest = &cp
	l.validSnaps = []uint64{s.Height()}
	l.height = s.Height()
	l.replayed = true
	l.syncDir()
	return nil
}

// writeSnapshotFile writes s atomically: temp file in the same
// directory, fsync, rename, directory fsync. The framed encoding is
// cached for the serving path.
func (l *Log) writeSnapshotFile(s Snapshot) error {
	var wire bytes.Buffer
	if err := EncodeSnapshot(&wire, s); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(l.dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("persist: snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(wire.Bytes()); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("persist: write snapshot %d: %w", s.Height(), err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("persist: snapshot sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: snapshot close: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(l.dir, snapshotName(s.Height()))); err != nil {
		return fmt.Errorf("persist: snapshot rename: %w", err)
	}
	l.latestWire = wire.Bytes()
	l.syncDir()
	return nil
}

// syncDir fsyncs the data directory so renames and removals are durable.
// Best effort: some filesystems refuse directory fsync.
func (l *Log) syncDir() {
	if d, err := os.Open(l.dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// prune removes known-valid snapshots beyond the retention count and WAL
// segments entirely below the oldest retained snapshot. Only snapshots
// that actually decoded (l.validSnaps) count: a bit-rotted file must
// neither survive as a phantom retention slot nor anchor segment
// deletion, or pruning could destroy the only data recovery can still
// use. Unreadable snapshot files are left in place for the operator.
// Caller holds l.mu.
func (l *Log) prune() {
	if len(l.validSnaps) == 0 {
		return
	}
	keepFrom := 0
	if len(l.validSnaps) > retainedSnapshots {
		keepFrom = len(l.validSnaps) - retainedSnapshots
	}
	for _, h := range l.validSnaps[:keepFrom] {
		_ = os.Remove(filepath.Join(l.dir, snapshotName(h)))
	}
	l.validSnaps = append([]uint64(nil), l.validSnaps[keepFrom:]...)
	oldest := l.validSnaps[0]
	segs, err := listSegments(l.dir)
	if err != nil {
		return
	}
	// Segment i holds heights [start_i, start_{i+1}-1]; it is prunable
	// when that whole range is at or below the oldest retained snapshot.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].start <= oldest+1 {
			_ = os.Remove(segs[i].path)
		}
	}
	l.syncDir()
}
