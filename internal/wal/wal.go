// Package wal is the durable half of the commit pipeline (DESIGN.md §12): a
// segmented, per-shard redo log whose records are the paper's *semantic*
// operations rather than value images. A deferred increment logs as `inc +δ`
// without ever reading the variable — the same low-level-semantics property
// that lets S-NOrec commit counter traffic without validation makes its redo
// record tiny and replay-commutative.
//
// On-disk layout under the log directory:
//
//	manifest                     shard count, written once at creation
//	shard-NNN/seg-NNNNNNNN.wal   one shard's segments, in creation order
//
// Each segment opens with a fixed header carrying the SHA-256 chain value
// accumulated over every frame of every earlier segment, so the whole
// per-shard log is one hash chain (the Merkle-chained ledger idea of the
// audit-log exemplar in SNIPPETS.md, flattened to a linear chain): a frame
// cannot be altered, dropped, or reordered anywhere in the prefix without
// breaking verification of everything after it. Each frame — one committed
// transaction's records on one shard — additionally carries a CRC32C
// (Castagnoli) over its payload, which is what distinguishes a torn tail
// (truncate and continue) from interior corruption (refuse to recover).
//
// Frame wire format, little-endian:
//
//	u32 payload length
//	u32 CRC32C(payload)
//	payload:
//	  u64 seq         per-shard frame sequence number, dense from 0
//	  u64 crossID     0 for single-shard commits; cross-shard commits tag
//	                  every participant's frame with one engine-wide id
//	  u16 nparts      participant shard ids (empty for single-shard)
//	  u16 nrecs
//	  nparts × u32    participant shards, ascending
//	  nrecs × record  { u8 op, u8 aux, u64 key, i64 val }
//
// Records name variables by their stable durable key (core.Var.DurableKey),
// never by the process-local allocation id.
package wal

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"semstm/internal/core"
)

// Op is a redo-record opcode.
type Op uint8

const (
	// OpWrite stores an absolute value: replay sets key = val. A write
	// anchors the key — from this record on, the log alone determines the
	// variable's value.
	OpWrite Op = iota
	// OpInc applies a deferred delta: replay adds val to key. Until a write
	// anchors the key, replayed deltas accumulate relative to the initial
	// value the application re-supplies at recovery (RecoveredVal.Anchored).
	OpInc
)

// Record is one semantic redo record.
type Record struct {
	Op  Op
	Aux uint8
	Key uint64
	Val int64
}

const (
	frameHdrBytes = 8  // u32 length + u32 crc
	recBytes      = 18 // u8 op + u8 aux + u64 key + i64 val
	maxFrameBytes = 1 << 24

	segHeaderBytes = 56
	segMagic       = 0x53574C31 // "SWL1"
	segVersion     = 1
)

// castagnoli is the CRC32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors of the durable pipeline. ErrCorrupt covers everything recovery must
// refuse (interior CRC/chain/sequence damage, unknown opcodes); a torn tail
// is not corruption and never surfaces as an error.
var (
	ErrCorrupt       = errors.New("wal: log corrupt")
	ErrShardMismatch = errors.New("wal: shard count differs from manifest")
)

// CrashedError is the latched terminal state of a log whose FaultPlan crash
// fired: the on-disk bytes are frozen exactly as the simulated process death
// left them and every further append is refused. The shard commit layer
// translates it into core.CrashPanic so the "dead" worker unwinds without
// retrying.
type CrashedError struct{ Site core.CrashSite }

func (e *CrashedError) Error() string {
	return fmt.Sprintf("wal: crashed at %s", e.Site)
}

// chain is the running SHA-256 hash-chain value. The genesis value is all
// zeros; each frame folds in as chain' = SHA256(chain ‖ frame bytes),
// over the full frame including its length/CRC header.
type chainVal [32]byte

func chainNext(prev chainVal, frame []byte) chainVal {
	h := sha256.New()
	h.Write(prev[:])
	h.Write(frame)
	var out chainVal
	h.Sum(out[:0])
	return out
}

// appendFrame encodes one frame onto buf and returns the extended buffer.
func appendFrame(buf []byte, seq, crossID uint64, parts []int, recs []Record) []byte {
	payload := 8 + 8 + 2 + 2 + 4*len(parts) + recBytes*len(recs)
	start := len(buf)
	buf = append(buf, make([]byte, frameHdrBytes+payload)...)
	b := buf[start:]
	binary.LittleEndian.PutUint32(b[0:], uint32(payload))
	p := b[frameHdrBytes:]
	binary.LittleEndian.PutUint64(p[0:], seq)
	binary.LittleEndian.PutUint64(p[8:], crossID)
	binary.LittleEndian.PutUint16(p[16:], uint16(len(parts)))
	binary.LittleEndian.PutUint16(p[18:], uint16(len(recs)))
	off := 20
	for _, s := range parts {
		binary.LittleEndian.PutUint32(p[off:], uint32(s))
		off += 4
	}
	for _, r := range recs {
		p[off] = byte(r.Op)
		p[off+1] = r.Aux
		binary.LittleEndian.PutUint64(p[off+2:], r.Key)
		binary.LittleEndian.PutUint64(p[off+10:], uint64(r.Val))
		off += recBytes
	}
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(p, castagnoli))
	return buf
}

// frame is one decoded frame.
type frame struct {
	seq     uint64
	crossID uint64
	parts   []int
	recs    []Record
}

// parseFrame decodes the frame at the head of b. ok is false when b holds no
// complete, checksum-valid frame — the torn-tail condition when b is the
// tail of the last segment, corruption anywhere else (the caller decides).
func parseFrame(b []byte) (f frame, n int, ok bool) {
	if len(b) < frameHdrBytes {
		return f, 0, false
	}
	payload := int(binary.LittleEndian.Uint32(b[0:]))
	if payload < 20 || payload > maxFrameBytes || len(b) < frameHdrBytes+payload {
		return f, 0, false
	}
	p := b[frameHdrBytes : frameHdrBytes+payload]
	if crc32.Checksum(p, castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
		return f, 0, false
	}
	f.seq = binary.LittleEndian.Uint64(p[0:])
	f.crossID = binary.LittleEndian.Uint64(p[8:])
	nparts := int(binary.LittleEndian.Uint16(p[16:]))
	nrecs := int(binary.LittleEndian.Uint16(p[18:]))
	if payload != 20+4*nparts+recBytes*nrecs {
		return frame{}, 0, false
	}
	off := 20
	if nparts > 0 {
		f.parts = make([]int, nparts)
		for i := range f.parts {
			f.parts[i] = int(binary.LittleEndian.Uint32(p[off:]))
			off += 4
		}
	}
	if nrecs > 0 {
		f.recs = make([]Record, nrecs)
		for i := range f.recs {
			f.recs[i] = Record{
				Op:  Op(p[off]),
				Aux: p[off+1],
				Key: binary.LittleEndian.Uint64(p[off+2:]),
				Val: int64(binary.LittleEndian.Uint64(p[off+10:])),
			}
			off += recBytes
		}
	}
	return f, frameHdrBytes + payload, true
}

// encodeSegHeader builds the fixed segment header: magic, format version,
// segment index, the sequence number of the segment's first frame, and the
// chain value accumulated over every frame of every earlier segment.
func encodeSegHeader(segIndex, startSeq uint64, prev chainVal) []byte {
	b := make([]byte, segHeaderBytes)
	binary.LittleEndian.PutUint32(b[0:], segMagic)
	binary.LittleEndian.PutUint32(b[4:], segVersion)
	binary.LittleEndian.PutUint64(b[8:], segIndex)
	binary.LittleEndian.PutUint64(b[16:], startSeq)
	copy(b[24:], prev[:])
	return b
}

// parseSegHeader decodes a segment header; ok is false on a short or
// malformed header.
func parseSegHeader(b []byte) (segIndex, startSeq uint64, prev chainVal, ok bool) {
	if len(b) < segHeaderBytes ||
		binary.LittleEndian.Uint32(b[0:]) != segMagic ||
		binary.LittleEndian.Uint32(b[4:]) != segVersion {
		return 0, 0, chainVal{}, false
	}
	segIndex = binary.LittleEndian.Uint64(b[8:])
	startSeq = binary.LittleEndian.Uint64(b[16:])
	copy(prev[:], b[24:])
	return segIndex, startSeq, prev, true
}
