// The group's durable log.
//
// The sequencer keeps no per-key WAL files; it keeps (and, in a group
// with peers, replicates) ONE totally ordered log of term-tagged entries (attach, spend, barrier
// no-op) and derives every key's ledger state by applying the committed
// prefix. The log reuses the accountant WAL frame envelope — u32 len |
// payload | u32 crc32c — so the bytes a primary fsyncs locally are the
// exact checksummed frames it streams to followers, and a follower
// verifies the same checksum the disk replay does before fsyncing them
// verbatim. Spend entries embed the accountant op-record payload
// unchanged, so the replicated history stores precisely the op shape a
// DurableLedger would.
//
// The file is an accountant.Log — the same lock, replay, torn-tail
// truncation, fsync-before-ack and truncate-and-reopen code the per-key
// WAL runs on — under the member's fsync policy (FsyncAlways in any
// group with peers): every append batch is written, and under
// FsyncAlways fsynced, before the caller acks anything. The in-memory
// copy is the decoded entries alone; a frame is re-encoded when it is
// shipped, to the same bytes (encoding is canonical, which
// FuzzDecodeEntryPayload holds it to). What is the group log's own
// lives here:
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
	// termFile persists the node's durable term and the directory's
	// identity: one line, the epoch token itself. Dot-led, so ledger
	// keys cannot collide with it.
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

// groupLog is the durable log of one group member: the file plus the
// decoded entries. Callers (the group core) serialize access.
type groupLog struct {
	path string
	file *accountant.Log

	entries []groupEntry
	scratch []byte // payload assembly buffer
	buf     []byte // frame assembly buffer
}

// openGroupLog opens (creating if absent) and replays the log at
// dir/groupLogFile, truncating a torn tail. Of opts, Fsync,
// FsyncInterval and OpenWriter apply.
func openGroupLog(dir string, opts accountant.DurableOptions) (*groupLog, error) {
	l := &groupLog{path: filepath.Join(dir, groupLogFile)}
	var err error
	l.file, err = accountant.OpenLog(l.path, groupLogMagic, nil, opts, func(payload []byte) error {
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
func (l *groupLog) lastTerm() uint64 { return l.termAt(l.len()) }

// termAt returns entry i's term (1-based; 0 for index 0).
func (l *groupLog) termAt(i uint64) uint64 {
	if i == 0 {
		return 0
	}
	return l.entries[i-1].Term
}

// entry returns entry i (1-based).
func (l *groupLog) entry(i uint64) groupEntry { return l.entries[i-1] }

// frame returns entry i's frame bytes (1-based), as the file holds them.
func (l *groupLog) frame(i uint64) []byte {
	return accountant.Frame(nil, encodeEntryPayload(nil, l.entries[i-1]))
}

// appendEntries encodes and writes entries as one batch — fsynced once,
// under FsyncAlways. Their indexes must continue the log densely.
func (l *groupLog) appendEntries(es ...groupEntry) error {
	l.buf = l.buf[:0]
	for _, e := range es {
		l.scratch = encodeEntryPayload(l.scratch[:0], e)
		l.buf = accountant.Frame(l.buf, l.scratch)
	}
	if err := l.file.Append(l.buf); err != nil {
		return err
	}
	l.entries = append(l.entries, es...)
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
	for j := i; j <= l.len(); j++ {
		off -= int64(len(l.frame(j)))
	}
	if err := l.file.TruncateAt(off); err != nil {
		return err
	}
	l.entries = l.entries[:i-1]
	return nil
}

// close flushes the file and releases its lock.
func (l *groupLog) close() error { return l.file.Close() }

// epochToken is the fencing token a member issues at term: the
// directory's identity, so that two directories at the same term never
// share a token, and the term.
func epochToken(id, term uint64) string {
	return fmt.Sprintf("%016x:%d", id, term)
}

// loadTerm reads the directory's identity and durable term (0, 0 when
// the file does not exist). A term file from a build that wrote the
// term alone reads as identity 0, which New replaces with a fresh one.
func loadTerm(dir string) (id, term uint64, err error) {
	data, err := os.ReadFile(filepath.Join(dir, termFile))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("ledgerd: reading term file: %w", err)
	}
	idStr, termStr, hasID := strings.Cut(strings.TrimSpace(string(data)), ":")
	if !hasID {
		idStr, termStr = "0", idStr
	}
	if id, err = strconv.ParseUint(idStr, 16, 64); err == nil {
		term, err = strconv.ParseUint(termStr, 10, 64)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("ledgerd: malformed term file: %v", err)
	}
	return id, term, nil
}

// storeTerm durably persists a term BEFORE any reply that depends on it
// (a vote grant, an append ack at that term, a token issued at it),
// published atomically. A term write is this node's one vote for that
// term — losing it to a crash could elect two primaries for the same
// term, or hand out a token the previous run already handed out.
func storeTerm(dir string, id, term uint64) error {
	if err := accountant.WriteFileAtomic(filepath.Join(dir, termFile), []byte(epochToken(id, term)+"\n")); err != nil {
		return fmt.Errorf("ledgerd: writing term file: %w", err)
	}
	return nil
}
