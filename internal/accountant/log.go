// Log: the one crash-safe append-only file under every durable ledger.
//
// A log file is a magic string followed by frames (wal.go). Log owns
// the file's whole life — single-writer lock, replay to the first torn
// frame, tail truncation, the writer, the fsync policy, group commit,
// truncate-and-reopen, close — so the fail-closed rules have one place
// to hold:
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
// Frames are group-committed: Queue adds them to the next batch under
// the caller's own lock, in the caller's order, and Wait, called outside
// that lock, returns once the batch holding them is written and synced.
// The first waiter that finds no batch in flight writes and syncs the
// whole queue for everyone behind it (leader/follower), so concurrent
// spenders share one fsync and no caller's lock is held across it.
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
	"time"
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

	// mu guards every field below. The batch leader releases it for the
	// write and fsync; flushing keeps w to the leader meanwhile.
	mu   sync.Mutex
	cond sync.Cond // broadcast when a batch completes
	w    WriteSyncer

	queue    []byte // frames of the open batch
	spare    []byte // the last written batch's buffer, reused by the next
	queued   int    // records in queue
	next     uint64 // the open batch's ticket
	done     uint64 // the last batch written (and synced, per policy)
	flushing bool   // a batch is being written and synced

	size     int64
	unsynced int
	lastSync time.Time
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
// has been through apply like any frame read back. Of opts, Fsync,
// FsyncInterval and OpenWriter apply.
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
	l := &Log{path: path, head: []byte(magic), opts: opts, lockF: lockF, next: 1}
	l.cond.L = &l.mu
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
	l.lastSync = time.Now()
	if fresh {
		if err := l.writeHead(); err != nil {
			l.w.Close()
			return fail(fmt.Errorf("accountant: writing log head %s: %w", path, err))
		}
	}
	return l, nil
}

// Size is the file's length in bytes: the head plus every frame
// written or replayed. Frames still queued or in flight are not counted;
// the zero tail never is.
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

// Queue adds whole frames to the open batch and returns its ticket; it
// writes nothing. Frames are written in the order they are queued, so a
// caller that queues under its own lock fixes their order on disk.
// Wait(ticket) makes them durable.
func (l *Log) Queue(frames []byte) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed == nil {
		l.queue = append(l.queue, frames...)
		l.queued += countFrames(frames)
	}
	return l.next
}

// Wait returns once the batch holding ticket has been written and, per
// the fsync policy, synced — under FsyncAlways a nil return means its
// frames are on stable storage. If no batch is in flight, the caller
// becomes the leader and writes and syncs the open batch for every
// frame queued in it. A failed batch latches the log: its members, and
// every batch queued behind it, get ErrLedgerFailed.
func (l *Log) Wait(ticket uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for ticket > l.done {
		if l.failed != nil {
			return l.failed
		}
		if l.flushing {
			l.cond.Wait()
		} else {
			l.flush()
		}
	}
	return nil
}

// Append writes whole frames as one batch and waits for it: under
// FsyncAlways a nil return means the frames are on stable storage.
func (l *Log) Append(frames []byte) error { return l.Wait(l.Queue(frames)) }

// flush writes the open batch and syncs it per the policy. Callers hold
// l.mu, with no batch in flight and the log healthy; flush releases the
// lock for the I/O and holds it again on return.
func (l *Log) flush() {
	batch, records := l.queue, l.queued
	l.queue, l.spare, l.queued = l.spare[:0], nil, 0
	ticket := l.next
	l.next++
	l.flushing = true
	syncNow := l.opts.Fsync == FsyncAlways ||
		(l.opts.Fsync == FsyncInterval && time.Since(l.lastSync) >= l.opts.FsyncInterval)
	l.mu.Unlock()
	_, err := l.w.Write(batch)
	if err == nil && syncNow {
		err = l.w.Sync()
	}
	l.mu.Lock()
	l.flushing = false
	l.cond.Broadcast()
	if err != nil {
		l.latch(err)
		return
	}
	l.done = ticket
	l.size += int64(len(batch))
	l.unsynced += records
	if syncNow {
		l.unsynced = 0
		l.lastSync = time.Now()
	}
	l.spare = batch
}

// settle waits out the batch in flight and writes whatever is queued, so
// the caller, holding l.mu, has the writer to itself. It returns the
// latched failure, if any.
func (l *Log) settle() error {
	for l.failed == nil && (l.flushing || len(l.queue) > 0) {
		if l.flushing {
			l.cond.Wait()
		} else {
			l.flush()
		}
	}
	return l.failed
}

// Sync writes every queued frame and flushes the file to stable storage
// regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.settle(); err != nil {
		return err
	}
	if err := l.w.Sync(); err != nil {
		return l.latch(err)
	}
	l.unsynced = 0
	l.lastSync = time.Now()
	return nil
}

// TruncateAt cuts the file to off bytes — a frame boundary the caller
// tracked — and reopens the writer there. Queued frames are written
// first.
func (l *Log) TruncateAt(off int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.settle(); err != nil {
		return err
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

// Close writes what is queued and flushes (under every policy: Close is
// the graceful-shutdown path), closes the writer — which cuts the zero
// tail — and releases the lock. A latched log skips the flush: its tail
// is torn and replay will discard it. Idempotent.
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
