package cluster

import "testing"

// crashColumnar is a columnar payload whose float column is shorter than
// its row count. Decoding used to accept it and panic later, when the
// column materialized ("short float vector").
const crashColumnar = "\xc3\x02\x01\x0200\x02\x82\x0000\x00\x00\x00\x00"

func TestDecodeMalformedColumnar(t *testing.T) {
	if _, err := DecodeDeltas([]byte(crashColumnar)); err == nil {
		t.Fatal("DecodeDeltas accepted a short float column")
	}
	if _, err := DecodeDeltaBatch([]byte(crashColumnar)); err == nil {
		t.Fatal("DecodeDeltaBatch accepted a short float column")
	}
}

// FuzzDecodeDeltas: decoding arbitrary bytes returns an error or a batch,
// never panics, and a batch that decodes materializes, hashes, and
// re-encodes without panicking. The seed corpus in testdata/fuzz holds the
// short-float crash above, one valid columnar frame, and two payloads of
// the retired dictionary format (a valid frame and a dictionary-ref
// overflow the fuzzer found), which must now decode to an error.
func FuzzDecodeDeltas(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		ds, err := DecodeDeltas(buf)
		b, errBatch := DecodeDeltaBatch(buf)
		if (err == nil) != (errBatch == nil) {
			t.Fatalf("DecodeDeltas err %v, DecodeDeltaBatch err %v", err, errBatch)
		}
		if len(buf) > 0 && buf[0] == 0xD1 && err == nil {
			t.Fatal("a dictionary-format payload decoded")
		}
		if err != nil {
			return
		}
		if n := len(b.Deltas()); n != b.Len() || n != len(ds) {
			t.Fatalf("Deltas %d rows, Len %d, DecodeDeltas %d", n, b.Len(), len(ds))
		}
		for j := 0; j < b.NumCols(); j++ {
			for i := 0; i < b.Len(); i++ {
				b.HashKeyAt(i, []int{j}, nil)
			}
		}
		if _, err := DecodeDeltaBatch(EncodeDeltaBatch(nil, b)); err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
	})
}
