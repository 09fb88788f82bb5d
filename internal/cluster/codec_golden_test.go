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

// goldenBatch has repeated values of every dictionary-eligible kind, a tie
// in occurrence counts (broken by kind, then value), values too small for
// the dictionary, NULLs, and a Replace whose Old image shares values with
// its neighbours.
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

// TestEncodeDeltasGolden pins the dictionary wire format to committed
// bytes. The batch is encoded twice in a row so the second encode runs on
// a pooled, cleared count map; both must match the golden file. A
// deliberate format change replaces the file with the hex the failure
// prints.
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
		if got := EncodeDeltas(goldenBatch()); !bytes.Equal(got, want) {
			t.Fatalf("pass %d: encoding drifted from golden\n got %x\nwant %x", pass, got, want)
		}
	}
	back, err := DecodeDeltas(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, goldenBatch()) {
		t.Fatalf("golden bytes decode to %v", back)
	}
}
