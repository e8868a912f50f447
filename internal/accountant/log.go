// Log: the one crash-safe append-only file under every durable ledger.
//
// A log file is a magic string followed by frames (wal.go). Log owns
// the file's whole life — single-writer lock, replay to the first torn
// frame, tail truncation, the append writer, the fsync policy, truncate-
// and-reopen, close — so the fail-closed rules have one place to hold:
//
//   - a failed write, fsync, truncate or reopen latches the log, and a
//     latched log refuses every later mutation (a failed write may have
//     left a torn frame; appending past it would put durable records
//     beyond a tear that replay truncates at);
//   - nothing is ever appended past a tear: open cuts the file back to
//     its last whole frame before the writer is positioned;
//   - the writer is reopened after every truncation, so appends land at
//     the new end of file.
//
// DurableLedger's per-key WAL and ledgerd's replicated group log both
// sit on it; what a frame means is theirs, through the apply callback.
package accountant

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// errTornFrame is what an OpenLog apply callback returns to end replay
// at a checksum-valid frame as if it were torn: the frame and everything
// after it are truncated away.
var errTornFrame = errors.New("accountant: frame treated as torn")

// Log is an open log file. Callers serialize access.
type Log struct {
	path  string
	head  []byte // what a fresh or Reset file starts with: magic + header frame
	opts  DurableOptions
	lockF *os.File // flock holder; also the replay read handle
	w     WriteSyncer

	size     int64
	unsynced int
	lastSync time.Time
	failed   error
}

// OpenLog opens (creating if absent) the log file at path: it takes the
// single-writer lock (ErrLedgerLocked when another live process holds
// it), checks the magic (ErrLedgerCorrupt on a foreign one), passes
// every whole frame's payload to apply up to the first torn frame,
// truncates that tail away and opens the append writer at the boundary.
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
// appended or replayed.
func (l *Log) Size() int64 { return l.size }

// Unsynced counts Append calls since the last fsync (always 0 under
// FsyncAlways) — the worst-case loss of a crash now.
func (l *Log) Unsynced() int { return l.unsynced }

// latch records the first failure; every later mutation returns
// ErrLedgerFailed.
func (l *Log) latch(err error) error {
	l.failed = fmt.Errorf("%w: %v", ErrLedgerFailed, err)
	return err
}

// writeHead starts an empty file: the head in one write, fsynced unless
// the policy is FsyncOff.
func (l *Log) writeHead() error {
	if _, err := l.w.Write(l.head); err != nil {
		return l.latch(err)
	}
	l.size = int64(len(l.head))
	l.unsynced = 0
	if l.opts.Fsync == FsyncOff {
		return nil
	}
	return l.Sync()
}

// Append writes whole frames in one call and applies the fsync policy.
// Under FsyncAlways a nil return means the frames are on stable storage.
func (l *Log) Append(frames []byte) error {
	if l.failed != nil {
		return l.failed
	}
	if _, err := l.w.Write(frames); err != nil {
		return l.latch(err)
	}
	l.unsynced++
	if l.opts.Fsync == FsyncAlways ||
		(l.opts.Fsync == FsyncInterval && time.Since(l.lastSync) >= l.opts.FsyncInterval) {
		if err := l.Sync(); err != nil {
			return err
		}
	}
	l.size += int64(len(frames))
	return nil
}

// Sync flushes the file to stable storage regardless of policy.
func (l *Log) Sync() error {
	if l.failed != nil {
		return l.failed
	}
	if err := l.w.Sync(); err != nil {
		return l.latch(err)
	}
	l.unsynced = 0
	l.lastSync = time.Now()
	return nil
}

// TruncateAt cuts the file to off bytes — a frame boundary the caller
// tracked — and reopens the writer there.
func (l *Log) TruncateAt(off int64) error {
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

// Reset empties the file and restarts it from its head (WAL compaction,
// once a snapshot owns the history).
func (l *Log) Reset() error {
	if err := l.TruncateAt(0); err != nil {
		return err
	}
	return l.writeHead()
}

// Close flushes (under every policy: Close is the graceful-shutdown
// path), closes the writer and releases the lock. A latched log skips
// the flush: its tail is torn and replay will discard it. Idempotent.
func (l *Log) Close() error {
	var errs []error
	if l.w != nil {
		if l.failed == nil {
			if err := l.Sync(); err != nil {
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

// openAppend is the default WriteSyncer: the real file, appending.
func openAppend(path string) (WriteSyncer, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
}

// WriteFileAtomic publishes data at path so a crash leaves either the
// old file or the new one, never a mix: temp file, fsync, rename,
// directory fsync. openWriter is the fault-injection seam (nil: real
// files).
func WriteFileAtomic(path string, data []byte, openWriter func(path string) (WriteSyncer, error)) error {
	if openWriter == nil {
		openWriter = openAppend
	}
	tmp := path + ".tmp"
	_ = os.Remove(tmp) // the writer appends: a stale temp must not survive into the new file
	w, err := openWriter(tmp)
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
		_ = os.Remove(tmp) // best effort; the next publish removes it first anyway
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
