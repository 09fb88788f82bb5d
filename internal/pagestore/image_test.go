package pagestore

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/rex-data/rex/internal/types"
)

// testdata/image-v1.db was written by writeImage while a row image format
// still existed, from three tables: two columnar ones (one with a
// mixed-kind column and NULLs) and an empty one. It must still parse, and
// re-encode to the same bytes.
func TestImageV1Loads(t *testing.T) {
	raw, err := os.ReadFile("testdata/image-v1.db")
	if err != nil {
		t.Fatal(err)
	}
	round, tables, err := parseImage(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := []imageTable{
		{name: "edges", keyCol: 0, tuples: []types.Tuple{
			types.NewTuple(int64(1), int64(2), 0.5),
			types.NewTuple(int64(2), int64(3), 1.5),
			types.NewTuple(int64(3), int64(1), -2.25),
		}},
		{name: "names", keyCol: 1, tuples: []types.Tuple{
			types.NewTuple("alice", int64(10), true, nil),
			types.NewTuple("bob", int64(11), false, "x"),
		}},
		{name: "empty", keyCol: 0, tuples: []types.Tuple{}},
	}
	if round != 42 || !reflect.DeepEqual(tables, want) {
		t.Fatalf("parsed round %d, tables %+v", round, tables)
	}
	again, err := encodeImage(round, tables)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, raw) {
		t.Fatalf("re-encoded image differs\n got %x\nwant %x", again, raw)
	}
	// A store opened over the image restores its tables.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "image.db"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.CommittedRound() != 42 || s.CountLocal("edges") != 3 || s.CountLocal("names") != 2 {
		t.Fatalf("restored round %d, edges %d, names %d",
			s.CommittedRound(), s.CountLocal("edges"), s.CountLocal("names"))
	}
}

// craftImage builds a one-table image whose table declares keyCol.
func craftImage(keyCol uint64) []byte {
	buf := append([]byte(nil), imageMagic...)
	buf = binary.AppendVarint(buf, 7)
	buf = binary.AppendUvarint(buf, 1)
	buf = encodeString(buf, "t")
	buf = binary.AppendUvarint(buf, keyCol)
	b, _ := types.FromDeltas([]types.Delta{types.Insert(tup(1, "a"))})
	payload := types.AppendDeltaBatch(nil, b)
	buf = append(buf, imageFormatCol)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	return append(buf, payload...)
}

// A key column of 2^63 or more used to wrap negative as an int, pass the
// store's keyCol >= len(tuple) guard and panic on restore. Images and WAL
// records now reject any key column above math.MaxInt32.
func TestRestoreRejectsHugeKeyCol(t *testing.T) {
	for _, keyCol := range []uint64{math.MaxInt32 + 1, 1 << 63, math.MaxUint64} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "image.db"), craftImage(keyCol), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, 0, 4); err == nil {
			t.Fatalf("image keyCol %d: restore succeeded", keyCol)
		}

		dir = t.TempDir()
		w, err := openWAL(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		w.logCreate("t", int(keyCol))
		w.logApply("t", types.Insert(tup(1, "a")))
		if err := w.commit(1); err != nil {
			t.Fatal(err)
		}
		w.close()
		if _, err := Open(dir, 0, 4); err == nil {
			t.Fatalf("WAL keyCol %d: restore succeeded", keyCol)
		}
	}
	// The same image with a sane key column restores.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "image.db"), craftImage(0), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.CountLocal("t") != 1 {
		t.Fatalf("CountLocal = %d, want 1", s.CountLocal("t"))
	}
}

// Tables are schema-uniform, so a ragged table fails the checkpoint
// instead of writing an image no format can hold.
func TestEncodeImageRejectsRaggedTable(t *testing.T) {
	if _, err := encodeImage(1, []imageTable{{name: "t", tuples: []types.Tuple{tup(1, "a"), tup(2)}}}); err == nil {
		t.Fatal("ragged table encoded")
	}
}

// FuzzParseImage: parsing arbitrary bytes returns an error or tables,
// never panics, and parsed tables re-encode and re-parse to the same
// tables. The seed corpus in testdata/fuzz holds a valid image, a
// truncated one, and one whose key column is 2^63.
func FuzzParseImage(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		round, tables, err := parseImage(buf)
		if err != nil {
			return
		}
		enc, err := encodeImage(round, tables)
		if err != nil {
			t.Fatalf("parsed image does not re-encode: %v", err)
		}
		round2, tables2, err := parseImage(enc)
		if err != nil {
			t.Fatalf("re-encoded image does not parse: %v", err)
		}
		if round2 != round || !reflect.DeepEqual(tables2, tables) {
			t.Fatalf("re-parse differs: round %d vs %d, tables %v vs %v", round2, round, tables2, tables)
		}
	})
}
