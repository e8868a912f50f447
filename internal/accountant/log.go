// Log: the one crash-safe append-only file under every durable ledger.
//
// A log file is a magic string followed by frames (wal.go). Log owns
// the file's whole life — single-writer lock, replay to the first torn
// frame, tail truncation, the writer, the fsync policy, truncate-and-
// reopen, close — so the fail-closed rules have one place to hold:
//
//   - a failed write, fsync, truncate or reopen latches the log, and a
//     latched log refuses every later mutation (a failed write may have
//     left a torn frame; appending past it would put durable records
//     beyond a tear that replay truncates at);
//   - nothing is ever appended past a tear: open cuts the file back to
//     its last whole frame before the writer is positioned;
//   - the writer is reopened after every truncation, so appends land at
//     the new end of file;
//   - exactly one write+fsync is in flight at a time. Linux reports a
//     writeback error to only one fsync per open file, so a second,
//     concurrent fsync could return success for a frame that never
//     reached the disk.
//
// The log does not batch: Append writes and syncs under the log's lock.
// Concurrent spenders share an fsync one level up, where a Batcher
// (batcher.go) hands the log one Append per batch.
//
// The default writer keeps a tail of zeros ahead of the write position
// (zeroTailFile), so an fsync of frames that land inside it changes no
// file size. Replay reads a zero length field as a torn frame and cuts
// the tail with it, so an open or crashed file needs no special case.
//
// DurableLedger's per-key WAL and ledgerd's replicated group log both
// sit on it; what a frame means is theirs, through the apply callback.
package accountant

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// errTornFrame is what an OpenLog apply callback returns to end replay
// at a checksum-valid frame as if it were torn: the frame and everything
// after it are truncated away.
var errTornFrame = errors.New("accountant: frame treated as torn")

// Log is an open log file, safe for concurrent use.
type Log struct {
	path  string
	head  []byte // what a fresh file starts with: magic + header frame
	opts  DurableOptions
	lockF *os.File // flock holder; also the replay read handle

	// mu guards every field below and is held across each write and
	// fsync, so exactly one is in flight.
	mu       sync.Mutex
	w        WriteSyncer
	size     int64
	unsynced int
	failed   error
}

// OpenLog opens (creating if absent) the log file at path: it takes the
// single-writer lock (ErrLedgerLocked when another live process holds
// it), checks the magic (ErrLedgerCorrupt on a foreign one), passes
// every whole frame's payload to apply up to the first torn frame,
// truncates that tail away and opens the writer at the boundary.
// The payload aliases the read buffer; apply copies what it retains. An
// apply error refuses the open and leaves the file untouched.
//
// header is the payload of the record every file of this kind opens
// with (nil for none). A file that ends before its magic, or before a
// whole header frame, was torn during creation and holds nothing: it
// restarts as magic + header frame, written in one call, after header
// has been through apply like any frame read back. Of opts, Fsync and
// OpenWriter apply.
func OpenLog(path, magic string, header []byte, opts DurableOptions, apply func(payload []byte) error) (*Log, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if opts.OpenWriter == nil {
		opts.OpenWriter = openZeroTail
	}
	lockF, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("accountant: opening log %s: %w", path, err)
	}
	fail := func(err error) (*Log, error) {
		lockF.Close()
		return nil, err
	}
	if err := lockLedgerFile(lockF); err != nil {
		return fail(fmt.Errorf("%w: %s", err, path))
	}
	l := &Log{path: path, head: []byte(magic), opts: opts, lockF: lockF}
	if header != nil {
		l.head = frame(l.head, header)
	}

	data, err := io.ReadAll(lockF)
	if err != nil {
		return fail(fmt.Errorf("accountant: reading log %s: %w", path, err))
	}
	valid := 0
	if len(data) >= len(magic) {
		if string(data[:len(magic)]) != magic {
			return fail(fmt.Errorf("%w: %s: bad magic", ErrLedgerCorrupt, path))
		}
		valid = len(magic)
		for valid < len(data) {
			payload, n, ok := nextFrame(data[valid:])
			if !ok {
				break // torn tail: the prefix is the log
			}
			if err := apply(payload); errors.Is(err, errTornFrame) {
				break
			} else if err != nil {
				return fail(err)
			}
			valid += n
		}
	}
	// Not even the magic, or no whole frame where the header is due: the
	// file was torn during creation.
	fresh := valid == 0 || (header != nil && valid == len(magic))
	if fresh {
		valid = 0
		if header != nil {
			if err := apply(header); err != nil {
				return fail(err)
			}
		}
	}
	if valid < len(data) {
		if err := lockF.Truncate(int64(valid)); err != nil {
			return fail(fmt.Errorf("accountant: truncating torn log tail %s: %w", path, err))
		}
	}
	l.size = int64(valid)
	if l.w, err = opts.OpenWriter(path); err != nil {
		return fail(fmt.Errorf("accountant: opening log writer %s: %w", path, err))
	}
	if fresh {
		if err := l.writeHead(); err != nil {
			l.w.Close()
			return fail(fmt.Errorf("accountant: writing log head %s: %w", path, err))
		}
	}
	return l, nil
}

// Size is the file's length in bytes: the head plus every frame
// written or replayed; the zero tail is never counted.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Unsynced counts the records written since the last fsync (always 0
// under FsyncAlways) — the worst-case loss of a crash now.
func (l *Log) Unsynced() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.unsynced
}

// latch records the first failure; every later mutation returns
// ErrLedgerFailed.
func (l *Log) latch(err error) error {
	l.failed = fmt.Errorf("%w: %v", ErrLedgerFailed, err)
	return err
}

// writeHead starts an empty file: the head in one write, fsynced unless
// the policy is FsyncOff. Callers own l outright.
func (l *Log) writeHead() error {
	if _, err := l.w.Write(l.head); err != nil {
		return l.latch(err)
	}
	l.size = int64(len(l.head))
	l.unsynced = 0
	if l.opts.Fsync == FsyncOff {
		return nil
	}
	return l.syncLocked()
}

// Append writes whole frames in one write and, per the fsync policy,
// syncs them: under FsyncAlways a nil return means the frames are on
// stable storage. A failed write or fsync latches the log, and it and
// every later Append return ErrLedgerFailed.
func (l *Log) Append(frames []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	_, err := l.w.Write(frames)
	if err == nil && l.opts.Fsync == FsyncAlways {
		err = l.w.Sync()
	}
	if err != nil {
		l.latch(err)
		return l.failed
	}
	l.size += int64(len(frames))
	if l.opts.Fsync == FsyncOff {
		l.unsynced += countFrames(frames)
	}
	return nil
}

func (l *Log) syncLocked() error {
	if err := l.w.Sync(); err != nil {
		return l.latch(err)
	}
	l.unsynced = 0
	return nil
}

// TruncateAt cuts the file to off bytes — a frame boundary the caller
// tracked — and reopens the writer there.
func (l *Log) TruncateAt(off int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	err := l.w.Close()
	l.w = nil
	if err != nil {
		return l.latch(fmt.Errorf("closing writer: %w", err))
	}
	if err := l.lockF.Truncate(off); err != nil {
		return l.latch(fmt.Errorf("truncating: %w", err))
	}
	w, err := l.opts.OpenWriter(l.path)
	if err != nil {
		return l.latch(fmt.Errorf("reopening writer: %w", err))
	}
	l.w, l.size = w, off
	return nil
}

// Close flushes (under every policy: Close is the graceful-shutdown
// path), closes the writer — which cuts the zero tail — and releases
// the lock. A latched log skips the flush: its tail is torn and replay
// will discard it. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var errs []error
	if l.w != nil {
		if l.failed == nil {
			if err := l.syncLocked(); err != nil {
				errs = append(errs, fmt.Errorf("accountant: syncing log %s: %w", l.path, err))
			}
		}
		if err := l.w.Close(); err != nil {
			errs = append(errs, fmt.Errorf("accountant: closing log %s: %w", l.path, err))
		}
		l.w = nil
	}
	if l.lockF != nil {
		if err := l.lockF.Close(); err != nil { // also releases the flock
			errs = append(errs, err)
		}
		l.lockF = nil
	}
	if l.failed == nil {
		l.failed = ErrLedgerClosed
	}
	return errors.Join(errs...)
}

// countFrames counts the frames in a buffer of whole frames.
func countFrames(b []byte) int {
	n := 0
	for len(b) >= 4 {
		b = b[min(len(b), 8+int(binary.LittleEndian.Uint32(b))):]
		n++
	}
	return n
}

// zeroTailSize is how far the default writer keeps zeros written ahead
// of its write position. A Sync after a write extends the tail back to
// this length when less than half of it is left.
const zeroTailSize = 64 << 10

var zeroTail [zeroTailSize]byte

// zeroTailFile is the Log's default writer: the file, written at a
// tracked offset, with a tail of zeros already written ahead of it. A
// frame that lands inside the tail changes no file size, so the fsync
// that covers it has no size update to commit to the filesystem journal.
// Close cuts the tail, so a closed file is exactly its frames.
type zeroTailFile struct {
	f       *os.File
	off     int64 // where the next write lands
	end     int64 // the file's length: off plus the zero tail
	written bool  // a write since the last Sync
}

func openZeroTail(path string) (WriteSyncer, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &zeroTailFile{f: f, off: fi.Size(), end: fi.Size()}, nil
}

func (z *zeroTailFile) Write(p []byte) (int, error) {
	n, err := z.f.WriteAt(p, z.off)
	z.off += int64(n)
	z.end = max(z.end, z.off)
	z.written = true
	return n, err
}

// Sync extends the zero tail first when a write has left it short, so
// the one fsync covers both the frames and the extension. (A Sync with
// nothing written, such as Close's, extends nothing.)
func (z *zeroTailFile) Sync() error {
	if z.written && z.end-z.off < zeroTailSize/2 {
		n, err := z.f.WriteAt(zeroTail[:z.off+zeroTailSize-z.end], z.end)
		z.end += int64(n)
		if err != nil {
			return err
		}
	}
	z.written = false
	return z.f.Sync()
}

func (z *zeroTailFile) Close() error {
	return errors.Join(z.f.Truncate(z.off), z.f.Close())
}

// WriteFileAtomic publishes data at path so a crash leaves either the
// old file or the new one, never a mix: temp file, fsync, rename,
// directory fsync.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	w, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("opening %s: %w", tmp, err)
	}
	if _, err = w.Write(data); err == nil {
		err = w.Sync()
	}
	if errClose := w.Close(); err == nil {
		err = errClose
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // best effort; the next publish truncates it anyway
		return fmt.Errorf("publishing %s: %w", path, err)
	}
	// Make the rename's dirent durable. Best effort: some filesystems
	// refuse directory fsync.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}
