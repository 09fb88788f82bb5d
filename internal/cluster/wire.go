package cluster

import (
	"encoding/binary"
	"fmt"
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
//   - Batch layer: one delta payload format, the columnar DeltaBatch
//     layout behind a tag byte. The encoded frame IS the in-memory
//     layout, so DecodeDeltaBatch validates the column payloads in one
//     pass and aliases the op vector and payloads out of the frame
//     buffer; values materialize lazily, on first operator access.
//     EncodeDeltas/DecodeDeltas are its row-form entry points, for the
//     control plane and the compactor's output.

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
// treated as opaque bytes; delta payloads are produced by EncodeDeltaBatch
// or EncodeDeltas.
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

// deltaFormatCol tags a delta payload (types.AppendDeltaBatch layout after
// the tag byte). It is outside the value-kind range, so corrupt payloads
// and those of the retired dictionary format (0xD1) fail loudly.
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

// DecodeDeltaBatch decodes a delta payload to a lazily-materializing
// batch that aliases buf. The worker hot path uses it so frames reach
// vector-capable operators without ever materializing row tuples.
func DecodeDeltaBatch(buf []byte) (*types.DeltaBatch, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("cluster: decode delta batch: empty buffer")
	}
	if buf[0] != deltaFormatCol {
		return nil, fmt.Errorf("cluster: decode delta batch: unknown format 0x%02X", buf[0])
	}
	b, used, err := types.DecodeDeltaBatch(buf[1:])
	if err != nil {
		return nil, fmt.Errorf("cluster: decode delta batch: %w", err)
	}
	if used != len(buf)-1 {
		return nil, fmt.Errorf("cluster: decode delta batch: %d trailing bytes", len(buf)-1-used)
	}
	return b, nil
}

// EncodeDeltas is the row-form entry point to the columnar encoder: it
// appends batch to a pooled DeltaBatch and encodes that. A ragged batch
// (rows of differing arity, or replaces whose old images differ in
// arity) has no columnar layout and is an error.
func EncodeDeltas(batch []types.Delta) ([]byte, error) {
	b := types.GetBatch()
	defer types.PutBatch(b)
	for i, d := range batch {
		if !b.CanAppend(d) {
			return nil, fmt.Errorf("cluster: encode deltas: delta %d: arity differs from the batch", i)
		}
		b.Append(d)
	}
	return EncodeDeltaBatch(nil, b), nil
}

// DecodeDeltas decodes a delta payload to row form. Every tuple is
// freshly allocated and safe to retain; callers that can consume vectors
// use DecodeDeltaBatch instead.
func DecodeDeltas(buf []byte) ([]types.Delta, error) {
	b, err := DecodeDeltaBatch(buf)
	if err != nil {
		return nil, err
	}
	return b.Deltas(), nil
}
