package cluster

import (
	"bytes"
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/rex-data/rex/internal/types"
)

// goldenBatch has a column of every vector kind, a mixed-kind column,
// NULLs, and a Replace, so the frame carries an old-image group.
func goldenBatch() []types.Delta {
	return []types.Delta{
		types.Insert(types.NewTuple(int64(1000), "vertex", 0.25, nil)),
		types.Insert(types.NewTuple(int64(1001), "vertex", 0.25, int64(7))),
		types.Update(types.NewTuple(int64(1000), "edge", 1.5, true)),
		types.Replace(
			types.NewTuple(int64(1001), "vertex", 0.25, int64(7)),
			types.NewTuple(int64(1001), "edge", 1.5, int64(7))),
		types.Delete(types.NewTuple(int64(1002), "vertex", 1.5, nil)),
		types.Insert(types.NewTuple(int64(1000), "a", float64(1000), false)),
	}
}

// TestEncodeDeltasGolden pins the wire format to committed bytes. The
// golden file is the columnar encoding of goldenBatch as
// EncodeDeltaBatch(FromDeltas(goldenBatch())) wrote it, so EncodeDeltas
// must match that encoder byte for byte. The batch is encoded twice in a
// row so the second encode runs on a pooled, reset batch. A deliberate
// format change replaces the file with the hex the failure prints.
func TestEncodeDeltasGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/encode_deltas.golden")
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		if got := mustEncode(t, goldenBatch()); !bytes.Equal(got, want) {
			t.Fatalf("pass %d: encoding drifted from golden\n got %x\nwant %x", pass, got, want)
		}
	}
	cb, ok := types.FromDeltas(goldenBatch())
	if !ok {
		t.Fatal("golden batch is ragged")
	}
	if got := EncodeDeltaBatch(nil, cb); !bytes.Equal(got, want) {
		t.Fatalf("EncodeDeltaBatch drifted from golden\n got %x\nwant %x", got, want)
	}
	back, err := DecodeDeltas(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, goldenBatch()) {
		t.Fatalf("golden bytes decode to %v", back)
	}
}
