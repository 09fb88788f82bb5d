package srvproto

import "testing"

// A client-supplied argument payload whose float column is shorter than
// its row count must be refused, not crash the server when the value is
// read.
func TestDecodeArgsMalformedColumnar(t *testing.T) {
	if _, err := DecodeArgs([]byte("\xc3\x02\x01\x0200\x02\x82\x0000\x00\x00\x00\x00")); err == nil {
		t.Fatal("DecodeArgs accepted a short float column")
	}
}
