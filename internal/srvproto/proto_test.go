package srvproto

import (
	"reflect"
	"testing"

	"github.com/rex-data/rex/internal/types"
)

// A client-supplied argument payload whose float column is shorter than
// its row count must be refused, not crash the server when the value is
// read.
func TestDecodeArgsMalformedColumnar(t *testing.T) {
	if _, err := DecodeArgs([]byte("\xc3\x02\x01\x0200\x02\x82\x0000\x00\x00\x00\x00")); err == nil {
		t.Fatal("DecodeArgs accepted a short float column")
	}
}

// Argument payloads round-trip in the columnar format; a payload of the
// retired dictionary format (tag 0xD1) is refused.
func TestArgsCodec(t *testing.T) {
	args := []types.Value{int64(7), "x", 2.5, nil, true}
	enc, err := EncodeArgs(args)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeArgs(enc)
	if err != nil || !reflect.DeepEqual(got, args) {
		t.Fatalf("round trip: %v, %v", got, err)
	}
	for _, bad := range [][]byte{
		{0xD1, 0, 1, 0, 1, 1, 2}, // one insert of (int 1), no dictionary
		{0xD1},
		{0x42},
	} {
		if v, err := DecodeArgs(bad); err == nil {
			t.Errorf("DecodeArgs(%x) = %v, want an error", bad, v)
		}
	}
}
