package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The binary codec gives the simulated transport realistic message sizes:
// the bandwidth experiment (Fig. 11) measures exactly these encoded bytes.
// Layout per value: 1 kind byte + varint / fixed64 / length-prefixed bytes.

// AppendValue encodes v onto buf.
func AppendValue(buf []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, byte(KindNull))
	case int64:
		buf = append(buf, byte(KindInt))
		return binary.AppendVarint(buf, x)
	case float64:
		buf = append(buf, byte(KindFloat))
		return binary.BigEndian.AppendUint64(buf, math.Float64bits(x))
	case string:
		buf = append(buf, byte(KindString))
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		return append(buf, x...)
	case bool:
		buf = append(buf, byte(KindBool))
		if x {
			return append(buf, 1)
		}
		return append(buf, 0)
	default:
		// Fall back to the string rendering; keeps the codec total.
		s := AsString(x)
		buf = append(buf, byte(KindString))
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		return append(buf, s...)
	}
}

// DecodeValue decodes one value from buf, returning it and the bytes read.
func DecodeValue(buf []byte) (Value, int, error) {
	if len(buf) == 0 {
		return nil, 0, fmt.Errorf("types: decode value: empty buffer")
	}
	k := Kind(buf[0])
	rest := buf[1:]
	switch k {
	case KindNull:
		return nil, 1, nil
	case KindInt:
		v, n := binary.Varint(rest)
		if n <= 0 {
			return nil, 0, fmt.Errorf("types: decode int: bad varint")
		}
		return v, 1 + n, nil
	case KindFloat:
		if len(rest) < 8 {
			return nil, 0, fmt.Errorf("types: decode float: short buffer")
		}
		return math.Float64frombits(binary.BigEndian.Uint64(rest)), 9, nil
	case KindString:
		l, n := binary.Uvarint(rest)
		// uint64 comparison so a forged huge length cannot overflow int
		// and slip past the bounds check.
		if n <= 0 || l > uint64(len(rest)-n) {
			return nil, 0, fmt.Errorf("types: decode string: short buffer")
		}
		return string(rest[n : n+int(l)]), 1 + n + int(l), nil
	case KindBool:
		if len(rest) < 1 {
			return nil, 0, fmt.Errorf("types: decode bool: short buffer")
		}
		return rest[0] != 0, 2, nil
	default:
		return nil, 0, fmt.Errorf("types: decode: unknown kind %d", k)
	}
}

// valueSize is DecodeValue without the value: it reports the size of the
// encoded value at the head of buf, or 0 where DecodeValue would fail, and
// allocates nothing. Columnar decode uses it to check mixed-value payloads
// up front.
func valueSize(buf []byte) int {
	if len(buf) == 0 {
		return 0
	}
	rest := buf[1:]
	switch Kind(buf[0]) {
	case KindNull:
		return 1
	case KindInt:
		if _, n := binary.Varint(rest); n > 0 {
			return 1 + n
		}
	case KindFloat:
		if len(rest) >= 8 {
			return 9
		}
	case KindString:
		if l, n := binary.Uvarint(rest); n > 0 && l <= uint64(len(rest)-n) {
			return 1 + n + int(l)
		}
	case KindBool:
		if len(rest) >= 1 {
			return 2
		}
	}
	return 0
}

// AppendTuple encodes t (field count + values).
func AppendTuple(buf []byte, t Tuple) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(t)))
	for _, v := range t {
		buf = AppendValue(buf, v)
	}
	return buf
}

// DecodeTuple decodes one tuple, returning it and the bytes consumed.
func DecodeTuple(buf []byte) (Tuple, int, error) {
	n64, n := binary.Uvarint(buf)
	// Every field costs at least one byte; bounding the count before the
	// allocation keeps forged buffers from panicking in makeslice.
	if n <= 0 || n64 > uint64(len(buf)-n) {
		return nil, 0, fmt.Errorf("types: decode tuple: bad count")
	}
	off := n
	t := make(Tuple, n64)
	for i := range t {
		v, used, err := DecodeValue(buf[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("types: decode tuple field %d: %w", i, err)
		}
		t[i] = v
		off += used
	}
	return t, off, nil
}

// AppendDelta encodes a delta (op byte, tuple, optional old tuple).
func AppendDelta(buf []byte, d Delta) []byte {
	buf = append(buf, byte(d.Op))
	buf = AppendTuple(buf, d.Tup)
	if d.Op == OpReplace {
		buf = AppendTuple(buf, d.Old)
	}
	return buf
}

// DecodeDelta decodes one delta, returning it and the bytes consumed.
func DecodeDelta(buf []byte) (Delta, int, error) {
	if len(buf) == 0 {
		return Delta{}, 0, fmt.Errorf("types: decode delta: empty buffer")
	}
	d := Delta{Op: Op(buf[0])}
	off := 1
	tup, used, err := DecodeTuple(buf[off:])
	if err != nil {
		return Delta{}, 0, err
	}
	d.Tup = tup
	off += used
	if d.Op == OpReplace {
		old, used, err := DecodeTuple(buf[off:])
		if err != nil {
			return Delta{}, 0, err
		}
		d.Old = old
		off += used
	}
	return d, off, nil
}

// EncodeBatch encodes a batch of deltas with a leading count. This is the
// wire format of one transport message.
func EncodeBatch(ds []Delta) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(ds)))
	for _, d := range ds {
		buf = AppendDelta(buf, d)
	}
	return buf
}

// DecodeBatch decodes a batch encoded by EncodeBatch.
func DecodeBatch(buf []byte) ([]Delta, error) {
	n64, n := binary.Uvarint(buf)
	if n <= 0 || n64 > uint64(len(buf)-n) {
		return nil, fmt.Errorf("types: decode batch: bad count")
	}
	off := n
	out := make([]Delta, 0, n64)
	for i := uint64(0); i < n64; i++ {
		d, used, err := DecodeDelta(buf[off:])
		if err != nil {
			return nil, fmt.Errorf("types: decode batch item %d: %w", i, err)
		}
		out = append(out, d)
		off += used
	}
	return out, nil
}

// EncodedSize reports the wire size of a batch without materializing it.
func EncodedSize(ds []Delta) int {
	n := uvarintLen(uint64(len(ds)))
	for _, d := range ds {
		n += 1 + tupleSize(d.Tup)
		if d.Op == OpReplace {
			n += tupleSize(d.Old)
		}
	}
	return n
}

func tupleSize(t Tuple) int {
	n := uvarintLen(uint64(len(t)))
	for _, v := range t {
		n += ValueSize(v)
	}
	return n
}

// ValueSize reports the encoded size of one value without materializing
// it. Wire-level codecs use it to decide when dictionary-encoding a
// repeated value pays for itself.
func ValueSize(v Value) int {
	switch x := v.(type) {
	case nil:
		return 1
	case int64:
		return 1 + varintLen(x)
	case float64:
		return 9
	case string:
		return 1 + uvarintLen(uint64(len(x))) + len(x)
	case bool:
		return 2
	default:
		s := AsString(x)
		return 1 + uvarintLen(uint64(len(s))) + len(s)
	}
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func varintLen(v int64) int {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	return uvarintLen(uv)
}
