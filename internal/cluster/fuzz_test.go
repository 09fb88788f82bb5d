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
	if _, _, err := DecodeDeltasAny([]byte(crashColumnar)); err == nil {
		t.Fatal("DecodeDeltasAny accepted a short float column")
	}
}

// FuzzDecodeDeltas: decoding arbitrary bytes returns an error or a batch,
// never panics, and a batch that decodes materializes, hashes, and
// re-encodes without panicking. The seed corpus in testdata/fuzz holds the
// short-float crash above, a dictionary-ref overflow the fuzzer found, and
// one valid frame of each format.
func FuzzDecodeDeltas(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		ds, err := DecodeDeltas(buf)
		rs, b, errAny := DecodeDeltasAny(buf)
		if (err == nil) != (errAny == nil) {
			t.Fatalf("DecodeDeltas err %v, DecodeDeltasAny err %v", err, errAny)
		}
		if errAny != nil {
			return
		}
		if b == nil {
			if len(rs) != len(ds) {
				t.Fatalf("dictionary decode: %d vs %d rows", len(rs), len(ds))
			}
			return
		}
		if n := len(b.Deltas()); n != b.Len() || n != len(ds) {
			t.Fatalf("columnar decode: Deltas %d rows, Len %d, DecodeDeltas %d", n, b.Len(), len(ds))
		}
		for j := 0; j < b.NumCols(); j++ {
			for i := 0; i < b.Len(); i++ {
				b.HashKeyAt(i, []int{j}, nil)
			}
		}
		if _, _, err := DecodeDeltasAny(EncodeDeltaBatch(nil, b)); err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
	})
}
