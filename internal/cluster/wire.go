package cluster

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"github.com/rex-data/rex/internal/types"
)

// The wire codec gives the simulated cluster a real wire format: every
// inter-node frame is serialized to a compact binary layout before its size
// is accounted, then decoded on the receiving side, so Metrics reports
// measured — not estimated — network volume (the bandwidth figures of §6.5).
//
// Two layers:
//
//   - Frame layer: EncodeFrame/DecodeFrame serialize a whole Message
//     (header fields varint-packed, payload length-prefixed).
//   - Batch layer: two delta payload formats, discriminated by their
//     leading tag byte. EncodeDeltas/DecodeDeltas is the row format with
//     a per-batch dictionary for repeated column values (the compactor's
//     output ships through it, where the dictionary wins on the highly
//     repetitive coalesced streams). EncodeDeltaBatch is the columnar
//     format: the encoded frame IS the in-memory DeltaBatch layout, so
//     DecodeDeltaBatch validates the column payloads in one pass and
//     aliases the op vector and payloads out of the frame buffer — values
//     materialize lazily, on first operator access.

// wireVersion leads every frame; decoders reject unknown versions.
// History: 1 = PR 1 layout; 2 adds the optional credit-grant field
// (flow-control windows piggybacked on punctuation frames); 3 adds the
// columnar delta-batch payload format, the MsgCreditAck kind, and the
// optional priority field on client-facing frames (same flag+varint
// trick as credits, so it costs nothing when absent — no version bump
// needed: v3 decoders that predate it never saw the flag set).
const wireVersion = 3

// Frame flag bits.
const (
	flagTerminate = 1 << iota
	flagClosed
	// flagCreditGrant marks a frame carrying a flow-control window grant:
	// the Credits varint follows the payload. The flag (rather than an
	// always-present field) keeps the common data frame free of the cost
	// and lets an explicit zero-window grant stay distinguishable from
	// "no grant".
	flagCreditGrant
	// flagPriority marks a frame carrying a scheduling priority: the
	// Priority varint follows the payload (after the credits varint when
	// both flags are set). Only nonzero priorities are encoded — normal
	// priority is the zero value, so the common frame stays untouched.
	flagPriority
)

// EncodeFrame serializes msg to its wire representation. The payload is
// treated as opaque bytes; batch payloads are produced by EncodeDeltas.
func EncodeFrame(msg Message) []byte {
	buf := make([]byte, 0, 24+len(msg.Table)+len(msg.Payload))
	buf = append(buf, wireVersion, byte(msg.Kind))
	var flags byte
	if msg.Terminate {
		flags |= flagTerminate
	}
	if msg.Closed {
		flags |= flagClosed
	}
	if msg.CreditGrant {
		flags |= flagCreditGrant
	}
	if msg.Priority != 0 {
		flags |= flagPriority
	}
	buf = append(buf, flags)
	buf = binary.AppendVarint(buf, int64(msg.From))
	buf = binary.AppendVarint(buf, int64(msg.To))
	buf = binary.AppendVarint(buf, int64(msg.Edge))
	buf = binary.AppendVarint(buf, int64(msg.Stratum))
	buf = binary.AppendVarint(buf, int64(msg.Count))
	buf = binary.AppendVarint(buf, int64(msg.Epoch))
	buf = binary.AppendVarint(buf, int64(msg.Job))
	buf = binary.AppendUvarint(buf, uint64(len(msg.Table)))
	buf = append(buf, msg.Table...)
	buf = binary.AppendUvarint(buf, uint64(len(msg.Payload)))
	buf = append(buf, msg.Payload...)
	if msg.CreditGrant {
		buf = binary.AppendUvarint(buf, uint64(msg.Credits))
	}
	if msg.Priority != 0 {
		buf = binary.AppendVarint(buf, int64(msg.Priority))
	}
	return buf
}

// DecodeFrame decodes a frame produced by EncodeFrame.
func DecodeFrame(buf []byte) (Message, error) {
	var msg Message
	if len(buf) < 3 {
		return msg, fmt.Errorf("cluster: decode frame: short buffer (%d bytes)", len(buf))
	}
	if buf[0] != wireVersion {
		return msg, fmt.Errorf("cluster: decode frame: unknown version %d", buf[0])
	}
	msg.Kind = MsgKind(buf[1])
	msg.Terminate = buf[2]&flagTerminate != 0
	msg.Closed = buf[2]&flagClosed != 0
	msg.CreditGrant = buf[2]&flagCreditGrant != 0
	off := 3
	readInt := func(field string) (int64, error) {
		v, n := binary.Varint(buf[off:])
		if n <= 0 {
			return 0, fmt.Errorf("cluster: decode frame: bad %s varint", field)
		}
		off += n
		return v, nil
	}
	var err error
	var v int64
	if v, err = readInt("from"); err != nil {
		return msg, err
	}
	msg.From = NodeID(v)
	if v, err = readInt("to"); err != nil {
		return msg, err
	}
	msg.To = NodeID(v)
	if v, err = readInt("edge"); err != nil {
		return msg, err
	}
	msg.Edge = int(v)
	if v, err = readInt("stratum"); err != nil {
		return msg, err
	}
	msg.Stratum = int(v)
	if v, err = readInt("count"); err != nil {
		return msg, err
	}
	msg.Count = int(v)
	if v, err = readInt("epoch"); err != nil {
		return msg, err
	}
	msg.Epoch = int(v)
	if v, err = readInt("job"); err != nil {
		return msg, err
	}
	msg.Job = int(v)
	// Length fields compare as uint64 against the remaining bytes so a
	// forged huge length cannot overflow int and slip past the check.
	tl, n := binary.Uvarint(buf[off:])
	if n <= 0 || tl > uint64(len(buf)-off-n) {
		return msg, fmt.Errorf("cluster: decode frame: bad table length")
	}
	off += n
	if tl > 0 {
		msg.Table = string(buf[off : off+int(tl)])
		off += int(tl)
	}
	pl, n := binary.Uvarint(buf[off:])
	if n <= 0 || pl > uint64(len(buf)-off-n) {
		return msg, fmt.Errorf("cluster: decode frame: bad payload length")
	}
	off += n
	if pl > 0 {
		msg.Payload = buf[off : off+int(pl) : off+int(pl)]
		off += int(pl)
	}
	if msg.CreditGrant {
		cr, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return msg, fmt.Errorf("cluster: decode frame: bad credits varint")
		}
		off += n
		msg.Credits = int(cr)
	}
	if buf[2]&flagPriority != 0 {
		pr, n := binary.Varint(buf[off:])
		if n <= 0 {
			return msg, fmt.Errorf("cluster: decode frame: bad priority varint")
		}
		off += n
		msg.Priority = int(pr)
	}
	if off != len(buf) {
		return msg, fmt.Errorf("cluster: decode frame: %d trailing bytes", len(buf)-off)
	}
	return msg, nil
}

// deltaFormatDict tags a dictionary-compressed delta batch; it is outside
// the value-kind range so corrupted or legacy payloads fail loudly.
const deltaFormatDict = 0xD1

// deltaFormatCol tags a columnar delta batch (types.AppendDeltaBatch
// layout after the tag byte).
const deltaFormatCol = 0xC3

// payloadBufPool recycles encode buffers for delta payloads. The frame
// layer copies the payload into the frame buffer on every Send (both
// transports), so the payload buffer is dead the moment Send returns and
// can go straight back to the pool — the encode side of the steady-state
// O(1) allocation story.
var payloadBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// GetPayloadBuf returns an empty pooled byte buffer for payload encoding.
func GetPayloadBuf() []byte {
	return (*(payloadBufPool.Get().(*[]byte)))[:0]
}

// PutPayloadBuf returns a payload buffer to the pool. Callers must be
// done with every alias into it (Send has returned; the frame layer owns
// its own copy).
func PutPayloadBuf(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:0]
	payloadBufPool.Put(&buf)
}

// EncodeDeltaBatch appends the columnar wire encoding of b to buf.
func EncodeDeltaBatch(buf []byte, b *types.DeltaBatch) []byte {
	buf = append(buf, deltaFormatCol)
	return types.AppendDeltaBatch(buf, b)
}

// DecodeDeltasAny decodes a delta payload of either format. Columnar
// payloads return a lazily-materializing batch (aliasing buf) and a nil
// row slice; dictionary payloads return rows and a nil batch. The worker
// hot path uses this so columnar frames reach vector-capable operators
// without ever materializing row tuples.
func DecodeDeltasAny(buf []byte) ([]types.Delta, *types.DeltaBatch, error) {
	if len(buf) > 0 && buf[0] == deltaFormatCol {
		b, used, err := types.DecodeDeltaBatch(buf[1:])
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: decode delta batch: %w", err)
		}
		if used != len(buf)-1 {
			return nil, nil, fmt.Errorf("cluster: decode delta batch: %d trailing bytes", len(buf)-1-used)
		}
		return nil, b, nil
	}
	rows, err := decodeDict(buf)
	return rows, nil, err
}

// dictRefBase splits the per-value token space: tokens below it are inline
// type-kind bytes (the types codec's own first byte), tokens at or above it
// reference dictionary entry token-dictRefBase. Kinds today occupy 0..4;
// the gap leaves room for new kinds without a format bump.
const dictRefBase = 8

// dictMinSize is the smallest encoded value worth dictionary-encoding: a
// reference costs 1-2 bytes, so 2-byte values (small ints, bools) never
// profit from the indirection.
const dictMinSize = 3

// EncodeDeltas serializes a delta batch to the wire format: a per-batch
// dictionary of repeated column values followed by the deltas, each value
// either inline (types codec) or a dictionary reference. Entries are
// ordered by descending occurrence so the hottest values get 1-byte
// references.
func EncodeDeltas(batch []types.Delta) []byte {
	counts := map[types.Value]int{}
	countTuple := func(t types.Tuple) {
		for _, v := range t {
			if v == nil {
				continue
			}
			if types.ValueSize(v) >= dictMinSize {
				counts[v]++
			}
		}
	}
	for _, d := range batch {
		countTuple(d.Tup)
		if d.Op == types.OpReplace {
			countTuple(d.Old)
		}
	}
	var dict []types.Value
	for v, n := range counts {
		if n >= 2 {
			dict = append(dict, v)
		}
	}
	// Deterministic order: hottest first (1-byte refs), ties broken by
	// kind then value so identical batches encode identically. The kind
	// tiebreak matters: ValueCompare treats int64(3) and float64(3.0) as
	// equal, which would leave their order to map iteration.
	sort.Slice(dict, func(i, j int) bool {
		if counts[dict[i]] != counts[dict[j]] {
			return counts[dict[i]] > counts[dict[j]]
		}
		ki, kj := types.KindOf(dict[i]), types.KindOf(dict[j])
		if ki != kj {
			return ki < kj
		}
		return types.ValueCompare(dict[i], dict[j]) < 0
	})
	index := make(map[types.Value]int, len(dict))
	for i, v := range dict {
		index[v] = i
	}

	buf := make([]byte, 0, 16+8*len(batch))
	buf = append(buf, deltaFormatDict)
	buf = binary.AppendUvarint(buf, uint64(len(dict)))
	for _, v := range dict {
		buf = types.AppendValue(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(len(batch)))
	appendTuple := func(t types.Tuple) {
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		for _, v := range t {
			if v != nil {
				if i, ok := index[v]; ok {
					buf = binary.AppendUvarint(buf, uint64(dictRefBase+i))
					continue
				}
			}
			buf = types.AppendValue(buf, v)
		}
	}
	for _, d := range batch {
		buf = append(buf, byte(d.Op))
		appendTuple(d.Tup)
		if d.Op == types.OpReplace {
			appendTuple(d.Old)
		}
	}
	return buf
}

// DecodeDeltas decodes a delta payload of either format to row form.
// Columnar payloads are fully materialized (fresh tuples, safe to
// retain); callers that can consume vectors use DecodeDeltasAny instead.
func DecodeDeltas(buf []byte) ([]types.Delta, error) {
	rows, b, err := DecodeDeltasAny(buf)
	if b != nil {
		return b.Deltas(), nil
	}
	return rows, err
}

// decodeDict decodes a dictionary-format delta payload.
func decodeDict(buf []byte) ([]types.Delta, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("cluster: decode deltas: empty buffer")
	}
	if buf[0] != deltaFormatDict {
		return nil, fmt.Errorf("cluster: decode deltas: unknown format 0x%02X", buf[0])
	}
	off := 1
	// Counts are bounded by the remaining bytes (every entry costs at
	// least one byte) before any allocation, so forged counts error out
	// instead of panicking in makeslice.
	nd, n := binary.Uvarint(buf[off:])
	if n <= 0 || nd > uint64(len(buf)-off-n) {
		return nil, fmt.Errorf("cluster: decode deltas: bad dictionary count")
	}
	off += n
	dict := make([]types.Value, nd)
	for i := range dict {
		v, used, err := types.DecodeValue(buf[off:])
		if err != nil {
			return nil, fmt.Errorf("cluster: decode deltas: dictionary entry %d: %w", i, err)
		}
		dict[i] = v
		off += used
	}
	nb, n := binary.Uvarint(buf[off:])
	if n <= 0 || nb > uint64(len(buf)-off-n) {
		return nil, fmt.Errorf("cluster: decode deltas: bad batch count")
	}
	off += n
	readTuple := func() (types.Tuple, error) {
		arity, n := binary.Uvarint(buf[off:])
		if n <= 0 || arity > uint64(len(buf)-off-n) {
			return nil, fmt.Errorf("cluster: decode deltas: bad arity")
		}
		off += n
		t := make(types.Tuple, arity)
		for i := range t {
			tok, n := binary.Uvarint(buf[off:])
			if n <= 0 {
				return nil, fmt.Errorf("cluster: decode deltas: bad value token")
			}
			if tok >= dictRefBase {
				// uint64 comparison so a forged huge token cannot wrap
				// to a negative index.
				ref := tok - dictRefBase
				if ref >= uint64(len(dict)) {
					return nil, fmt.Errorf("cluster: decode deltas: dictionary ref %d out of range", ref)
				}
				t[i] = dict[ref]
				off += n
				continue
			}
			// Inline value: the token byte is the types codec's kind byte.
			v, used, err := types.DecodeValue(buf[off:])
			if err != nil {
				return nil, err
			}
			t[i] = v
			off += used
		}
		return t, nil
	}
	out := make([]types.Delta, 0, nb)
	for i := uint64(0); i < nb; i++ {
		if off >= len(buf) {
			return nil, fmt.Errorf("cluster: decode deltas: truncated at delta %d", i)
		}
		d := types.Delta{Op: types.Op(buf[off])}
		off++
		var err error
		if d.Tup, err = readTuple(); err != nil {
			return nil, fmt.Errorf("cluster: decode deltas: delta %d: %w", i, err)
		}
		if d.Op == types.OpReplace {
			if d.Old, err = readTuple(); err != nil {
				return nil, fmt.Errorf("cluster: decode deltas: delta %d old: %w", i, err)
			}
		}
		out = append(out, d)
	}
	if off != len(buf) {
		return nil, fmt.Errorf("cluster: decode deltas: %d trailing bytes", len(buf)-off)
	}
	return out, nil
}
