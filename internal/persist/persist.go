// Package persist is the durable persistence layer: an append-only block
// WAL plus periodic state snapshots, and the recovery path that brings a
// restarted node back to its pre-crash chain head.
//
// Layout of a data directory:
//
//	wal-%016d.log    append-only block segments; the number is the height
//	                 of the segment's first record
//	snap-%016d.snap  state snapshots (block header + encoded world state),
//	                 written atomically via temp-file + rename
//	pool.calls       pending mempool calls saved on graceful shutdown
//	genesis.id       permanent genesis identity marker (never pruned)
//	LOCK             advisory flock held for the Log's lifetime; a second
//	                 opener fails fast with ErrLocked instead of corrupting
//	                 the WAL
//
// Every WAL record is one flat wire block behind a length+CRC32 frame;
// every snapshot file is one frame. Integrity is layered: the frame CRC
// catches torn or bit-rotted writes, and recovery takes each block through
// the engine-hosted validator, header commitments first — so a recovered
// node has re-verified the published (S, H) schedules exactly as a
// validating peer would, and disk corruption can at worst lose the torn
// tail, never silently alter state.
//
// Durability policy: appends go straight to the segment file; fsync is
// batched per Options.SyncEvery. Snapshots bound recovery time (replay
// starts at the newest valid snapshot) and bound disk growth (segments
// entirely below the retained snapshots are pruned).
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"contractstm/internal/chain"
	"contractstm/internal/codec"
)

// Errors reported by the persistence layer.
var (
	// ErrCorrupt reports WAL damage that truncation cannot repair: a bad
	// record with later segments still present, or a height gap. Recovery
	// refuses to guess; the operator decides what to salvage.
	ErrCorrupt = errors.New("persist: wal corrupt")
	// ErrNotReplayed reports an Append before recovery replay finished;
	// appending into an unscanned log could silently fork the WAL.
	ErrNotReplayed = errors.New("persist: log not replayed yet")
	// ErrGap reports an appended block whose height does not extend the
	// log tail.
	ErrGap = errors.New("persist: appended block leaves a height gap")
)

// Options tunes a log's durability/cost trade-off.
type Options struct {
	// SyncEvery fsyncs the WAL after every Nth appended block: 1 (the
	// default) syncs every block, larger values batch, negative never
	// syncs (the OS decides; a crash can lose the unsynced tail, which
	// recovery tolerates by truncation).
	SyncEvery int
	// SnapshotEvery writes a state snapshot every N appended blocks;
	// 0 means the default (256), negative disables periodic snapshots.
	// The node layer owns the cadence; the log just stores what it is
	// handed.
	SnapshotEvery int
}

// DefaultSnapshotEvery is the default snapshot cadence in blocks.
const DefaultSnapshotEvery = 256

// WithDefaults returns o with unset fields at their defaults.
func (o Options) WithDefaults() Options {
	if o.SyncEvery == 0 {
		o.SyncEvery = 1
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = DefaultSnapshotEvery
	}
	return o
}

// frame layout: 4-byte big-endian payload length, 4-byte CRC32 (IEEE) of
// the payload, payload bytes.
const frameHeaderLen = 8

// writeFrame appends one framed payload to w.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one framed payload from r, enforcing maxLen. It
// distinguishes a clean end (io.EOF at a frame boundary), a record cut
// short by the end of input (errTorn — the classic interrupted append),
// and a structurally complete frame whose bytes are wrong (errBadFrame
// — bit rot or a garbage length; whether that is tolerable depends on
// what follows it, which is the caller's to judge).
var (
	errTorn     = errors.New("persist: record cut short by end of input")
	errBadFrame = errors.New("persist: invalid record")
)

func readFrame(r io.Reader, maxLen int) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, errTorn // partial header
	}
	length := binary.BigEndian.Uint32(hdr[0:4])
	if length == 0 || int(length) > maxLen {
		return nil, errBadFrame
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, errTorn // partial payload
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[4:8]) {
		return nil, errBadFrame
	}
	return payload, nil
}

// Log is one data directory's persistence state: the open WAL segment,
// the newest snapshot, and the append cursor. Safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu sync.Mutex
	// seg is the open append segment (nil until the first append after
	// open/rotation creates one).
	seg      *os.File
	segStart uint64
	// height is the last durable block height (snapshot height when the
	// WAL holds nothing newer).
	height uint64
	// replayed flips when Resume has finished the WAL's replay; appends
	// before that would fork the log.
	replayed bool
	// latest is the newest valid snapshot, kept in memory so /snapshot
	// serving and recovery never re-read the file; latestWire is its
	// framed encoding, cached because the serving path would otherwise
	// re-encode identical bytes for every fast-syncing peer.
	latest     *Snapshot
	latestWire []byte
	// validSnaps are the heights of snapshot files known to decode
	// (validated at Open, or written by this process). Retention and
	// segment pruning anchor on these — never on raw file names, which
	// may belong to bit-rotted files that cannot actually be restored.
	validSnaps []uint64
	// sinceSync counts appends since the last fsync.
	sinceSync int
	// closed refuses further writes after Close.
	closed bool
	// failed latches when a failed append could not be rewound: the
	// segment may end in garbage, and appending after it would strand
	// every later block behind an unreadable record on recovery.
	failed bool
	// lockFile holds the directory's exclusive advisory lock for the
	// log's lifetime.
	lockFile *os.File
	// metrics counts the log's I/O work since open. The counters are
	// atomic so a status probe never queues behind l.mu — which appends
	// hold across fsyncs.
	mAppends, mBytes, mFsyncs, mFsyncNanos, mGroups, mMaxGroup atomic.Int64
}

// Metrics counts a log's I/O work since it was opened: how many blocks
// were appended and with how many bytes, how many fsyncs those appends
// cost and how long the kernel held us for them, and how group commits
// batched. The persistence cost of a run is invisible without these — a
// throughput sweep cannot attribute time to the disk if the disk never
// reports.
type Metrics struct {
	// Appends counts WAL block appends; BytesWritten their framed bytes.
	Appends      int64
	BytesWritten int64
	// Fsyncs counts segment fsyncs; FsyncTime is their summed latency.
	Fsyncs    int64
	FsyncTime time.Duration
	// GroupCommits counts AppendGroup calls that appended more than one
	// block under a single fsync; MaxGroup is the largest such group.
	GroupCommits int64
	MaxGroup     int
}

// MetricsSnapshot returns the log's I/O counters. Lock-free: safe to
// call from a status path while an append fsyncs.
func (l *Log) MetricsSnapshot() Metrics {
	return Metrics{
		Appends:      l.mAppends.Load(),
		BytesWritten: l.mBytes.Load(),
		Fsyncs:       l.mFsyncs.Load(),
		FsyncTime:    time.Duration(l.mFsyncNanos.Load()),
		GroupCommits: l.mGroups.Load(),
		MaxGroup:     int(l.mMaxGroup.Load()),
	}
}

// syncSegLocked fsyncs the open segment, timing it into the metrics.
// Caller holds l.mu and has checked l.seg != nil.
func (l *Log) syncSegLocked() error {
	start := time.Now()
	err := l.seg.Sync()
	l.mFsyncs.Add(1)
	l.mFsyncNanos.Add(int64(time.Since(start)))
	return err
}

// ErrClosed reports a write to a closed log.
var ErrClosed = errors.New("persist: log closed")

// ErrFailed reports a log latched by an unrewindable append failure.
var ErrFailed = errors.New("persist: log failed (unrewound partial append)")

// ErrLocked reports a data directory already owned by a live Log —
// another process, or an unclosed Log in this one. Two writers
// interleaving appends and prunes would corrupt the WAL beyond repair,
// so the second opener fails fast instead.
var ErrLocked = errors.New("persist: data dir locked by another log")

// lockFileName is the advisory-lock file inside a data directory.
const lockFileName = "LOCK"

// acquireDirLock takes an exclusive flock on the directory's lock file.
// Advisory flocks die with their file descriptions, so a crashed
// process never leaves a stale lock behind.
func acquireDirLock(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockFileName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("%w: %s", ErrLocked, dir)
	}
	return f, nil
}

// Open opens (creating if needed) the data directory and loads snapshot
// metadata. It does not replay the WAL: call Scan to stream the tail
// through recovery, then Resume — appends are refused until that
// happened, except on a directory with no WAL at all.
func Open(dir string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: open %s: %w", dir, err)
	}
	lock, err := acquireDirLock(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts.WithDefaults(), lockFile: lock}
	snap, valid, err := scanSnapshots(dir)
	if err != nil {
		_ = lock.Close()
		return nil, err
	}
	l.latest, l.validSnaps = snap, valid
	if snap != nil {
		l.height = snap.Header.Number
		// Cache the winner's framed bytes for the serving path; a read
		// failure just means /snapshot re-encodes on demand.
		if raw, err := os.ReadFile(filepath.Join(dir, snapshotName(snap.Height()))); err == nil {
			l.latestWire = raw
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		_ = lock.Close()
		return nil, err
	}
	if len(segs) == 0 {
		// Nothing to replay; Scan and Resume are still fine to call
		// (no-ops).
		l.replayed = true
	}
	return l, nil
}

// Height returns the last appended (or installed) block height.
func (l *Log) Height() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.height
}

// LatestSnapshot returns the newest valid snapshot, or nil when the log
// holds none.
func (l *Log) LatestSnapshot() *Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.latest
}

// LatestSnapshotWire returns the newest snapshot's framed encoding (what
// DecodeSnapshot reads), or nil when none is cached. The serving path
// writes these bytes straight to the wire instead of re-encoding the
// same immutable snapshot per request. Callers must not mutate the
// returned slice.
func (l *Log) LatestSnapshotWire() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.latestWire
}

// segment is one WAL file and the height of its first record.
type segment struct {
	start uint64
	path  string
}

func segmentName(start uint64) string { return fmt.Sprintf("wal-%016d.log", start) }

func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: list %s: %w", dir, err)
	}
	var segs []segment
	for _, e := range entries {
		var start uint64
		if n, err := fmt.Sscanf(e.Name(), "wal-%016d.log", &start); n == 1 && err == nil {
			segs = append(segs, segment{start: start, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	return segs, nil
}

// ReplayError reports a block that the consumer of a WAL scan refused.
type ReplayError struct {
	Height uint64
	Err    error
}

// Error implements error.
func (e *ReplayError) Error() string {
	return fmt.Sprintf("persist: replay height %d: %v", e.Height, e.Err)
}

// Unwrap exposes the consumer's error for errors.Is/As.
func (e *ReplayError) Unwrap() error { return e.Err }

// Tail is where Scan found the end of the WAL; Resume acts on it.
type Tail struct {
	// last is the final segment; its path is empty if there is none.
	last segment
	// torn is set when the final segment ends in a torn record, which
	// starts at offset cut.
	torn bool
	cut  int64
	// height is the last height scanned; zero if none was.
	height uint64
}

// Scan streams every WAL block with height >= from, in height order,
// through fn, and changes nothing: not the files, not the log. fn
// returning an error aborts the scan with a *ReplayError. A torn or
// invalid record in the final segment ends the scan there (the standard
// WAL contract: an interrupted append loses only itself) and is left for
// Resume to truncate; the same damage in a non-final segment is
// ErrCorrupt, because blocks behind the hole would be unreachable.
//
// Because it has no side effect, Scan may run ahead of whatever consumes
// its blocks: a consumer that refuses a block after the scan has reached
// a torn tail leaves the directory as it found it, as long as Resume is
// not called. Scan takes no lock. Call it once, before Resume and before
// the first Append.
func (l *Log) Scan(from uint64, fn func(chain.Block) error) (Tail, error) {
	segs, err := listSegments(l.dir)
	if err != nil {
		return Tail{}, err
	}
	var tail Tail
	next := from
	for i, seg := range segs {
		last := i == len(segs)-1
		// A segment can only hold heights seg.start .. nextSeg.start-1;
		// skip those entirely below the replay window.
		if !last && segs[i+1].start <= from {
			continue
		}
		end, torn, err := l.replaySegment(seg, from, &next, fn)
		if err != nil {
			return Tail{}, err
		}
		if torn && !last {
			return Tail{}, fmt.Errorf("%w: bad record in %s with later segments present", ErrCorrupt, seg.path)
		}
		tail.torn, tail.cut = torn, end
	}
	if len(segs) > 0 {
		tail.last = segs[len(segs)-1]
	}
	if next > from {
		tail.height = next - 1
	}
	return tail, nil
}

// Resume finishes a replay once every block Scan streamed has been
// accepted: it truncates the torn record Scan found, if any, and
// positions the append cursor at the log tail. Appends are refused until
// it has run.
func (l *Log) Resume(t Tail) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if t.torn {
		if err := os.Truncate(t.last.path, t.cut); err != nil {
			return fmt.Errorf("persist: truncate torn tail of %s: %w", t.last.path, err)
		}
	}
	if t.height > 0 {
		l.height = t.height
	}
	// Position the append cursor: reopen the last segment if it still has
	// records; an emptied (fully truncated) segment is removed so the next
	// append names a fresh one.
	if t.last.path != "" {
		info, err := os.Stat(t.last.path)
		switch {
		case err != nil:
			return fmt.Errorf("persist: stat %s: %w", t.last.path, err)
		case info.Size() == 0:
			if err := os.Remove(t.last.path); err != nil {
				return fmt.Errorf("persist: remove empty segment: %w", err)
			}
		default:
			f, err := os.OpenFile(t.last.path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("persist: reopen segment: %w", err)
			}
			l.seg, l.segStart = f, t.last.start
		}
	}
	l.replayed = true
	return nil
}

// replaySegment scans one segment, calling fn for records in the replay
// window and checking height contiguity. It returns the offset of the
// first bad byte and whether the scan ended on a tolerable torn tail.
//
// Damage taxonomy: a record cut short by end of file is the classic
// interrupted append — only itself can be lost, so it is truncated. A
// record whose bytes are wrong (CRC or decode failure) with MORE data
// after it is a different animal: the records behind it may include
// fsync-acknowledged blocks, and silently truncating them would rewind
// durable history (and fork against peers that imported it). That case
// is refused as ErrCorrupt — the operator decides, recovery never
// guesses. A bad final record is indistinguishable from a torn write
// and is truncated like one — but not one that parses under a valid CRC
// and then fails validation: no torn write looks like that, and fn's
// refusal stops recovery.
func (l *Log) replaySegment(seg segment, from uint64, next *uint64, fn func(chain.Block) error) (int64, bool, error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return 0, false, fmt.Errorf("persist: open segment: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, false, fmt.Errorf("persist: stat segment: %w", err)
	}
	size := info.Size()
	var offset int64
	r := newByteCounter(f)
	for {
		payload, err := readFrame(r, chain.MaxWireBlock)
		if err == io.EOF {
			return offset, false, nil
		}
		if errors.Is(err, errTorn) {
			// Cut short by EOF: nothing can follow, truncation loses
			// only the interrupted record itself.
			return offset, true, nil
		}
		var decodeErr error
		var b chain.Block
		if err != nil {
			decodeErr = err // errBadFrame
		} else {
			b, decodeErr = chain.ParseBlock(payload)
		}
		if decodeErr != nil {
			if r.n < size {
				return 0, false, fmt.Errorf("%w: %s damaged at offset %d with %d bytes of records behind it: %w",
					ErrCorrupt, seg.path, offset, size-r.n, decodeErr)
			}
			return offset, true, nil
		}
		if b.Header.Number >= from {
			if b.Header.Number != *next {
				return 0, false, fmt.Errorf("%w: %s holds height %d, want %d",
					ErrCorrupt, seg.path, b.Header.Number, *next)
			}
			if err := fn(b); err != nil {
				return 0, false, &ReplayError{Height: b.Header.Number, Err: err}
			}
			*next = b.Header.Number + 1
		}
		offset = r.n
	}
}

// byteCounter tracks how many bytes have been consumed, so truncation
// offsets are exact even through buffering.
type byteCounter struct {
	r io.Reader
	n int64
}

func newByteCounter(r io.Reader) *byteCounter { return &byteCounter{r: r} }

func (c *byteCounter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Append writes one block to the WAL and applies the sync policy. The
// block must extend the log tail: height exactly Height()+1.
func (l *Log) Append(b chain.Block) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendGroupLocked([]chain.Block{b})
}

// AppendGroup appends blocks — contiguous heights extending the log tail
// — as one group commit: every frame is written, then a single fsync (per
// the sync policy) covers the whole group. The group is acknowledged
// all-or-nothing: on any failure the segment is rewound to the group's
// start, so either every block in the group is recoverable or none left a
// trace. This is the batching primitive of a pipelining node's
// group-commit goroutine — its throughput win is precisely that N blocks
// share one fsync.
func (l *Log) AppendGroup(blocks []chain.Block) error {
	if len(blocks) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendGroupLocked(blocks)
}

func (l *Log) appendGroupLocked(blocks []chain.Block) error {
	if l.closed {
		return ErrClosed
	}
	if l.failed {
		return ErrFailed
	}
	if !l.replayed {
		return ErrNotReplayed
	}
	// Validate and encode the whole group before the first byte is
	// written: encoding problems must not cost a rewind. All frames land
	// back-to-back in one pooled buffer — the group costs one buffer, one
	// segment write and (per the sync policy) one fsync, however many
	// blocks it batches.
	buf := codec.GetBuffer()
	defer buf.Release()
	dst := buf.B
	for i, b := range blocks {
		if b.Header.Number != l.height+1+uint64(i) {
			return fmt.Errorf("%w: got %d, want %d", ErrGap, b.Header.Number, l.height+1+uint64(i))
		}
		// Reserve the frame header, append the block's wire encoding
		// directly after it, then patch length and CRC over the payload.
		frameStart := len(dst)
		dst = append(dst, make([]byte, frameHeaderLen)...)
		var err error
		dst, err = chain.AppendBlockWire(dst, b)
		if err != nil {
			return fmt.Errorf("persist: append: %w", err)
		}
		payload := dst[frameStart+frameHeaderLen:]
		if len(payload) > chain.MaxWireBlock {
			return fmt.Errorf("persist: append: block %d encodes to %d bytes: %w",
				b.Header.Number, len(payload), chain.ErrTooLarge)
		}
		binary.BigEndian.PutUint32(dst[frameStart:frameStart+4], uint32(len(payload)))
		binary.BigEndian.PutUint32(dst[frameStart+4:frameStart+8], crc32.ChecksumIEEE(payload))
	}
	buf.B = dst
	if l.seg == nil {
		path := filepath.Join(l.dir, segmentName(blocks[0].Header.Number))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return fmt.Errorf("persist: create segment: %w", err)
		}
		l.seg, l.segStart = f, blocks[0].Header.Number
	}
	// An errored append must leave no trace: a partial frame (ENOSPC
	// mid-write) would make every later acknowledged block unreachable
	// on recovery, and a complete-but-unacknowledged frame (fsync
	// failure) would replay a block whose calls the caller requeued —
	// executed twice. Rewind to the pre-group size on any failure; if
	// even the rewind fails, latch the log so nothing appends after the
	// garbage.
	info, err := l.seg.Stat()
	if err != nil {
		return fmt.Errorf("persist: append: stat segment: %w", err)
	}
	start := info.Size()
	fail := func(cause error) error {
		if terr := l.seg.Truncate(start); terr != nil {
			l.failed = true
			return fmt.Errorf("persist: append heights %d..%d: %v; rewind failed, log latched: %w",
				blocks[0].Header.Number, blocks[len(blocks)-1].Header.Number, cause, terr)
		}
		return fmt.Errorf("persist: append heights %d..%d: %w",
			blocks[0].Header.Number, blocks[len(blocks)-1].Header.Number, cause)
	}
	if _, err := l.seg.Write(dst); err != nil {
		return fail(err)
	}
	wrote := int64(len(dst))
	l.sinceSync += len(blocks)
	if l.opts.SyncEvery > 0 && l.sinceSync >= l.opts.SyncEvery {
		if err := l.syncSegLocked(); err != nil {
			l.sinceSync -= len(blocks)
			return fail(err)
		}
		l.sinceSync = 0
	}
	l.height = blocks[len(blocks)-1].Header.Number
	l.mAppends.Add(int64(len(blocks)))
	l.mBytes.Add(wrote)
	if len(blocks) > 1 {
		l.mGroups.Add(1)
		if n := int64(len(blocks)); n > l.mMaxGroup.Load() {
			l.mMaxGroup.Store(n)
		}
	}
	return nil
}

// Sync forces an fsync of the open segment regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seg == nil {
		return nil
	}
	if err := l.syncSegLocked(); err != nil {
		return fmt.Errorf("persist: sync: %w", err)
	}
	l.sinceSync = 0
	return nil
}

// Close fsyncs and closes the open segment and releases the directory
// lock; further writes fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	var err error
	if l.seg != nil {
		err = l.syncSegLocked()
		if cerr := l.seg.Close(); err == nil {
			err = cerr
		}
		l.seg = nil
	}
	if l.lockFile != nil {
		// Closing the fd drops the flock with it.
		_ = l.lockFile.Close()
		l.lockFile = nil
	}
	if err != nil {
		return fmt.Errorf("persist: close: %w", err)
	}
	return nil
}
