package types

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// TestValueSizeMatchesDecodeValue: the allocation-free size check accepts
// exactly what DecodeValue decodes, and agrees on the size.
func TestValueSizeMatchesDecodeValue(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5000; trial++ {
		buf := AppendValue(nil, randValue(r))
		switch r.Intn(3) {
		case 0:
			buf = buf[:r.Intn(len(buf)+1)]
		case 1:
			buf[r.Intn(len(buf))] = byte(r.Intn(256))
		}
		_, used, err := DecodeValue(buf)
		if got := valueSize(buf); (err == nil) != (got > 0) || err == nil && got != used {
			t.Fatalf("trial %d: valueSize(%x) = %d, DecodeValue used %d err %v", trial, buf, got, used, err)
		}
	}
}

// TestDecodeRejectsMalformedPayload: every column repr checks its payload
// against the row count at decode time, so a batch that decodes can be
// materialized without panicking.
func TestDecodeRejectsMalformedPayload(t *testing.T) {
	// frame builds a one-column, rows-row batch (all inserts) whose column
	// has the given repr and payload.
	frame := func(rows int, repr byte, payload []byte) []byte {
		buf := binary.AppendUvarint(nil, uint64(rows))
		buf = append(buf, 1, 0)
		buf = append(buf, make([]byte, rows)...)
		buf = append(buf, repr)
		buf = binary.AppendUvarint(buf, uint64(len(payload)))
		return append(buf, payload...)
	}
	if _, _, err := DecodeDeltaBatch(frame(2, colInts, []byte{2, 4})); err != nil {
		t.Fatalf("well-formed frame rejected: %v", err)
	}
	str := func(s string) []byte { return append(binary.AppendUvarint(nil, uint64(len(s))), s...) }
	cases := []struct {
		name    string
		rows    int
		repr    byte
		payload []byte
	}{
		{"nulls with payload", 2, colNulls, []byte{0}},
		{"short floats", 2, colFloats, make([]byte, 15)},
		{"long floats", 2, colFloats, make([]byte, 17)},
		{"short bools", 9, colBools, []byte{0xFF}},
		{"long bools", 8, colBools, []byte{0xFF, 0}},
		{"too few ints", 3, colInts, []byte{2, 4}},
		{"trailing int bytes", 1, colInts, []byte{2, 4}},
		{"unterminated int", 1, colInts, []byte{0x82}},
		{"overflowing int", 1, colInts, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02}},
		{"too few strings", 2, colStrs, str("ab")},
		{"string past payload", 1, colStrs, str("ab")[:2]},
		{"trailing string bytes", 1, colStrs, append(str("ab"), 0)},
		{"bad any kind", 1, colAnys, []byte{0x7F}},
		{"short any", 1, colAnys, []byte{byte(KindFloat), 0}},
		{"trailing any bytes", 1, colAnys, []byte{byte(KindNull), byte(KindNull)}},
	}
	for _, c := range cases {
		if _, _, err := DecodeDeltaBatch(frame(c.rows, c.repr, c.payload)); err == nil {
			t.Errorf("%s: decode accepted a malformed payload", c.name)
		}
	}
}
