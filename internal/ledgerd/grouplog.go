// The group's durable replicated log.
//
// Group mode does not replicate N per-key WAL files; it replicates ONE
// totally ordered log of term-tagged entries (attach, spend, barrier
// no-op) and derives every key's ledger state by applying the committed
// prefix. The log reuses the accountant WAL frame envelope — u32 len |
// payload | u32 crc32c — so the bytes a primary fsyncs locally are the
// exact checksummed frames it streams to followers, and a follower
// verifies the same checksum the disk replay does before fsyncing them
// verbatim. Spend entries embed the accountant op-record payload
// unchanged, so the replicated history stores precisely the op shape a
// single-node DurableLedger would.
//
// The file is an accountant.Log — the same lock, replay, torn-tail
// truncation, fsync-before-ack and truncate-and-reopen code the per-key
// WAL runs on — under FsyncAlways: every append batch is fsynced before
// the caller acks anything. What is the group log's own lives here:
// entries are densely indexed, and an index gap or an undecodable
// checksum-valid frame is structural corruption that refuses to open.
// Truncation is only ever invoked on UNCOMMITTED suffixes (the group
// core guarantees committed entries are never contradicted), mirroring
// raft's conflict-resolution rule.
package ledgerd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/accountant"
	"repro/internal/dp"
)

const (
	// groupLogMagic heads the replicated log file; distinct from the
	// per-key WAL magic so the two formats can never be confused.
	groupLogMagic = "GDPGRP1\n"
	// termFile persists the node's durable term (the generalized epoch).
	// Dot-led, so ledger keys cannot collide with it.
	termFile = ".group-term"
	// groupLogFile holds the replicated log. Dot-led for the same reason.
	groupLogFile = ".group.wal"

	// recEntry is the replicated-log record type inside a frame payload.
	recEntry = 'E'

	// Entry kinds.
	entryNoop   = 'N' // leadership barrier: carries only index+term
	entryAttach = 'A' // opens a key under a budget
	entrySpend  = 'S' // embeds an accountant op-record payload
)

// ErrGroupLogCorrupt marks structural corruption of the replicated log
// that torn-tail truncation cannot repair.
var ErrGroupLogCorrupt = errors.New("ledgerd: group log corrupt")

// groupEntry is one decoded replicated-log entry. Index is 1-based and
// dense; Term is the leadership term that appended the entry.
type groupEntry struct {
	Index uint64
	Term  uint64
	Kind  byte
	Key   string // attach + spend
	// Attach payload.
	Budget dp.Params
	// Spend payload: the embedded accountant op record. Seq is the
	// per-key 1-based op sequence; Label carries the op-ID envelope.
	Seq   uint64
	Cost  dp.Params
	Label string
}

// encodeEntryPayload encodes e as a frame payload.
func encodeEntryPayload(dst []byte, e groupEntry) []byte {
	dst = append(dst, recEntry)
	dst = binary.LittleEndian.AppendUint64(dst, e.Index)
	dst = binary.LittleEndian.AppendUint64(dst, e.Term)
	dst = append(dst, e.Kind)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(e.Key)))
	dst = append(dst, e.Key...)
	switch e.Kind {
	case entryAttach:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Budget.Epsilon))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Budget.Delta))
	case entrySpend:
		dst = accountant.AppendOpPayload(dst, e.Seq, e.Cost, []byte(e.Label))
	}
	return dst
}

// decodeEntryPayload decodes one frame payload back into an entry.
func decodeEntryPayload(p []byte) (groupEntry, bool) {
	const fixed = 1 + 8 + 8 + 1 + 2
	if len(p) < fixed || p[0] != recEntry {
		return groupEntry{}, false
	}
	e := groupEntry{
		Index: binary.LittleEndian.Uint64(p[1:]),
		Term:  binary.LittleEndian.Uint64(p[9:]),
		Kind:  p[17],
	}
	keyLen := int(binary.LittleEndian.Uint16(p[18:]))
	if len(p) < fixed+keyLen {
		return groupEntry{}, false
	}
	e.Key = string(p[fixed : fixed+keyLen])
	rest := p[fixed+keyLen:]
	switch e.Kind {
	case entryNoop:
		if len(rest) != 0 || keyLen != 0 {
			return groupEntry{}, false
		}
	case entryAttach:
		if len(rest) != 16 {
			return groupEntry{}, false
		}
		e.Budget = dp.Params{
			Epsilon: math.Float64frombits(binary.LittleEndian.Uint64(rest)),
			Delta:   math.Float64frombits(binary.LittleEndian.Uint64(rest[8:])),
		}
	case entrySpend:
		seq, cost, label, ok := accountant.ParseOpPayload(rest)
		if !ok {
			return groupEntry{}, false
		}
		e.Seq, e.Cost, e.Label = seq, cost, string(label)
	default:
		return groupEntry{}, false
	}
	return e, true
}

// groupLog is the durable replicated log of one group member: the file
// plus the decoded in-memory copy and the raw frame bytes replication
// re-ships verbatim. Callers (the group core) serialize access.
type groupLog struct {
	path string
	file *accountant.Log

	entries []groupEntry
	frames  [][]byte // raw frame bytes per entry, for replication
	scratch []byte
}

// openGroupLog opens (creating if absent) and replays the replicated
// log at dir/groupLogFile, truncating a torn tail.
func openGroupLog(dir string, openWriter func(string) (accountant.WriteSyncer, error)) (*groupLog, error) {
	l := &groupLog{path: filepath.Join(dir, groupLogFile)}
	var err error
	l.file, err = accountant.OpenLog(l.path, groupLogMagic, nil, accountant.DurableOptions{OpenWriter: openWriter}, func(payload []byte) error {
		e, ok := decodeEntryPayload(payload)
		if !ok {
			// A checksum-valid frame that does not decode is structural
			// corruption, not a tear.
			return fmt.Errorf("%w: %s: undecodable frame after entry %d", ErrGroupLogCorrupt, l.path, len(l.entries))
		}
		if e.Index != l.len()+1 {
			return fmt.Errorf("%w: %s: entry index gap (have %d, next frame is %d)",
				ErrGroupLogCorrupt, l.path, len(l.entries), e.Index)
		}
		l.entries = append(l.entries, e)
		l.frames = append(l.frames, accountant.Frame(nil, payload))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}

// len returns the log length (the last entry's index).
func (l *groupLog) len() uint64 { return uint64(len(l.entries)) }

// lastTerm returns the last entry's term (0 for an empty log).
func (l *groupLog) lastTerm() uint64 {
	if len(l.entries) == 0 {
		return 0
	}
	return l.entries[len(l.entries)-1].Term
}

// termAt returns entry i's term (1-based; 0 for index 0).
func (l *groupLog) termAt(i uint64) uint64 {
	if i == 0 {
		return 0
	}
	return l.entries[i-1].Term
}

// entry returns entry i (1-based).
func (l *groupLog) entry(i uint64) groupEntry { return l.entries[i-1] }

// frame returns entry i's raw frame bytes (1-based).
func (l *groupLog) frame(i uint64) []byte { return l.frames[i-1] }

// appendEntry encodes, writes and fsyncs one locally originated entry,
// returning the frame bytes replication ships to followers.
func (l *groupLog) appendEntry(e groupEntry) ([]byte, error) {
	l.scratch = encodeEntryPayload(l.scratch[:0], e)
	frame := accountant.Frame(nil, l.scratch)
	if err := l.appendFrames([][]byte{frame}, []groupEntry{e}); err != nil {
		return nil, err
	}
	return frame, nil
}

// appendFrames writes pre-framed entries (a follower's replicated
// batch, already checksum-verified and decoded by the caller) and
// fsyncs once. The entries' indexes must continue the log densely.
func (l *groupLog) appendFrames(frames [][]byte, entries []groupEntry) error {
	if len(frames) == 0 {
		return nil
	}
	var buf []byte
	for _, f := range frames {
		buf = append(buf, f...)
	}
	if err := l.file.Append(buf); err != nil {
		return err
	}
	for i, f := range frames {
		l.entries = append(l.entries, entries[i])
		l.frames = append(l.frames, append([]byte(nil), f...))
	}
	return nil
}

// truncateFrom discards entries from index i (1-based, inclusive) —
// raft conflict resolution on an uncommitted suffix. The file is cut at
// the entry boundary.
func (l *groupLog) truncateFrom(i uint64) error {
	if i > l.len() {
		return nil
	}
	off := l.file.Size()
	for _, f := range l.frames[i-1:] {
		off -= int64(len(f))
	}
	if err := l.file.TruncateAt(off); err != nil {
		return err
	}
	l.entries = l.entries[:i-1]
	l.frames = l.frames[:i-1]
	return nil
}

// close flushes the file and releases its lock.
func (l *groupLog) close() error { return l.file.Close() }

// loadTerm reads the durable term (0 when the file does not exist).
func loadTerm(dir string) (uint64, error) {
	data, err := os.ReadFile(filepath.Join(dir, termFile))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("ledgerd: reading term file: %w", err)
	}
	term, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("ledgerd: malformed term file: %v", err)
	}
	return term, nil
}

// storeTerm durably persists a term BEFORE any reply that depends on it
// (a vote grant, an append ack at that term), with the same atomic
// publish as the single-node epoch file. A term write is this node's
// one vote for that term — losing it to a crash could elect two
// primaries for the same term.
func storeTerm(dir string, term uint64) error {
	data := strconv.AppendUint(nil, term, 10)
	if err := accountant.WriteFileAtomic(filepath.Join(dir, termFile), append(data, '\n')); err != nil {
		return fmt.Errorf("ledgerd: writing term file: %w", err)
	}
	return nil
}
