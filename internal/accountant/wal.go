// WAL frame codec for the durable ledger.
//
// Every record is one frame:
//
//	u32 payloadLen | payload | u32 crc32c(payload)
//
// A WAL file is the 8-byte magic "GDPWAL1\n", a header frame, then one
// op frame per admitted op. Payloads open with a one-byte record type
// so a future version can mix record kinds without changing the
// framing.
//
// Torn-tail tolerance lives entirely in the parser: a frame whose
// length field, payload, or checksum does not fully verify is treated
// as the end of the valid prefix, never as data.
package accountant

import (
	"encoding/binary"
	"hash/crc32"
	"math"

	"repro/internal/dp"
)

const (
	walMagic = "GDPWAL1\n"
	// ledgerVersion is the on-disk format version, checked on replay.
	ledgerVersion = 1
	// maxWALFrame bounds a frame's payload: op labels are short audit
	// strings, so anything larger is corruption, not data.
	maxWALFrame = 1 << 20

	recHeader = 'H'
	recOp     = 'O'
)

// crcTable is the Castagnoli polynomial (hardware-accelerated CRC32).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Frame appends payload wrapped in the ledger frame envelope
// (u32 len | payload | u32 crc32c). Exported so the sequencer's
// replication stream ships the exact checksummed frame shape the WAL
// stores — a follower verifies the same checksum the disk replay does.
func Frame(dst, payload []byte) []byte { return frame(dst, payload) }

// NextFrame parses one frame at the head of b. ok is false when b does
// not hold a complete, checksum-valid frame (the torn-tail signal); n
// is the total frame length consumed when ok.
func NextFrame(b []byte) (payload []byte, n int, ok bool) { return nextFrame(b) }

// AppendOpPayload encodes one ledger op record payload (the bytes a
// WAL op frame wraps) — exported so replicated-log entries can embed
// the identical op shape the durable ledger persists.
func AppendOpPayload(dst []byte, seq uint64, cost dp.Params, label []byte) []byte {
	return appendOpPayload(dst, seq, cost, label)
}

// ParseOpPayload decodes one ledger op record payload. The label
// aliases p; copy to retain.
func ParseOpPayload(p []byte) (seq uint64, cost dp.Params, label []byte, ok bool) {
	op, ok := parseOpPayload(p)
	if !ok {
		return 0, dp.Params{}, nil, false
	}
	return op.seq, op.cost, op.label, true
}

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// frame wraps a fully assembled payload in the length/checksum envelope.
func frame(dst, payload []byte) []byte {
	dst = appendU32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return appendU32(dst, crc32.Checksum(payload, crcTable))
}

// nextFrame parses one frame at the head of b. ok is false when b does
// not hold a complete, checksum-valid frame — the torn-tail signal; n
// is the total frame length consumed when ok.
func nextFrame(b []byte) (payload []byte, n int, ok bool) {
	if len(b) < 4 {
		return nil, 0, false
	}
	plen := int(binary.LittleEndian.Uint32(b))
	if plen < 1 || plen > maxWALFrame || len(b) < 4+plen+4 {
		return nil, 0, false
	}
	payload = b[4 : 4+plen]
	sum := binary.LittleEndian.Uint32(b[4+plen:])
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, 0, false
	}
	return payload, 4 + plen + 4, true
}

// walHeader is the decoded header record of a WAL.
type walHeader struct {
	version uint32
	budget  dp.Params
}

// appendHeaderPayload encodes a header record.
func appendHeaderPayload(dst []byte, budget dp.Params) []byte {
	dst = append(dst, recHeader)
	dst = appendU32(dst, ledgerVersion)
	dst = appendF64(dst, budget.Epsilon)
	return appendF64(dst, budget.Delta)
}

// parseHeaderPayload decodes a header record payload.
func parseHeaderPayload(p []byte) (walHeader, bool) {
	if len(p) != 1+4+8+8 || p[0] != recHeader {
		return walHeader{}, false
	}
	return walHeader{
		version: binary.LittleEndian.Uint32(p[1:]),
		budget: dp.Params{
			Epsilon: math.Float64frombits(binary.LittleEndian.Uint64(p[5:])),
			Delta:   math.Float64frombits(binary.LittleEndian.Uint64(p[13:])),
		},
	}, true
}

// walOp is one decoded op record.
type walOp struct {
	seq   uint64
	cost  dp.Params
	label []byte // aliases the parsed buffer; copy to retain
}

// appendOpPayload encodes one op record.
func appendOpPayload(dst []byte, seq uint64, cost dp.Params, label []byte) []byte {
	dst = append(dst, recOp)
	dst = appendU64(dst, seq)
	dst = appendF64(dst, cost.Epsilon)
	dst = appendF64(dst, cost.Delta)
	dst = appendU32(dst, uint32(len(label)))
	return append(dst, label...)
}

// parseOpPayload decodes one op record payload.
func parseOpPayload(p []byte) (walOp, bool) {
	const fixed = 1 + 8 + 8 + 8 + 4
	if len(p) < fixed || p[0] != recOp {
		return walOp{}, false
	}
	labelLen := int(binary.LittleEndian.Uint32(p[25:]))
	if len(p) != fixed+labelLen {
		return walOp{}, false
	}
	return walOp{
		seq: binary.LittleEndian.Uint64(p[1:]),
		cost: dp.Params{
			Epsilon: math.Float64frombits(binary.LittleEndian.Uint64(p[9:])),
			Delta:   math.Float64frombits(binary.LittleEndian.Uint64(p[17:])),
		},
		label: p[fixed:],
	}, true
}

// appendOpFrame encodes one op as a complete frame, reusing scratch.
func appendOpFrame(dst, scratch []byte, seq uint64, cost dp.Params, label []byte) ([]byte, []byte) {
	scratch = appendOpPayload(scratch[:0], seq, cost, label)
	return frame(dst, scratch), scratch
}
