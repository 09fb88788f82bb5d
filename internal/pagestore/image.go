package pagestore

import (
	"encoding/binary"
	"fmt"
	"os"

	"github.com/rex-data/rex/internal/types"
)

// A checkpoint image is the durable full-state snapshot a node restarts
// from: every table's local tuples (primary and replica copies alike),
// payload-encoded with the columnar delta-batch codec. The image is
// written to a temp file, fsynced, and atomically renamed over the
// previous one, so a crash mid-checkpoint leaves the old image intact.
//
// Layout: magic, varint committedRound, uvarint table count, then per
// table: name, uvarint keyCol, format byte (always imageFormatCol),
// uvarint payload length, payload.
var imageMagic = []byte("REXIMG01")

// imageFormatCol tags a columnar table payload, the only format; the byte
// keeps the layout of images written when a row format still existed.
const imageFormatCol = 1

type imageTable struct {
	name   string
	keyCol int
	tuples []types.Tuple
}

// encodeImage serializes a checkpoint image. Tables hold schema-uniform
// tuples, so a table whose tuples differ in arity is an error.
func encodeImage(committedRound int64, tables []imageTable) ([]byte, error) {
	buf := append([]byte(nil), imageMagic...)
	buf = binary.AppendVarint(buf, committedRound)
	buf = binary.AppendUvarint(buf, uint64(len(tables)))
	var b types.DeltaBatch
	for _, t := range tables {
		buf = encodeString(buf, t.name)
		buf = binary.AppendUvarint(buf, uint64(t.keyCol))
		b.Reset()
		for _, tup := range t.tuples {
			d := types.Insert(tup)
			if !b.CanAppend(d) {
				return nil, fmt.Errorf("pagestore: image: table %s: tuples differ in arity", t.name)
			}
			b.Append(d)
		}
		payload := types.AppendDeltaBatch(nil, &b)
		buf = append(buf, imageFormatCol)
		buf = binary.AppendUvarint(buf, uint64(len(payload)))
		buf = append(buf, payload...)
	}
	return buf, nil
}

func writeImage(path string, committedRound int64, tables []imageTable) error {
	buf, err := encodeImage(committedRound, tables)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readImage(path string) (committedRound int64, tables []imageTable, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return -1, nil, err
	}
	committedRound, tables, err = parseImage(buf)
	if err != nil {
		return -1, nil, fmt.Errorf("pagestore: %s: %w", path, err)
	}
	return committedRound, tables, nil
}

// parseImage decodes an encodeImage buffer. Images carry no checksum, so
// every length, key column and payload is checked before use.
func parseImage(buf []byte) (committedRound int64, tables []imageTable, err error) {
	if len(buf) < len(imageMagic)+1 || string(buf[:len(imageMagic)]) != string(imageMagic) {
		return -1, nil, fmt.Errorf("not a checkpoint image")
	}
	buf = buf[len(imageMagic):]
	round, n := binary.Varint(buf)
	if n <= 0 {
		return -1, nil, fmt.Errorf("bad round")
	}
	buf = buf[n:]
	nt, n := binary.Uvarint(buf)
	if n <= 0 {
		return -1, nil, fmt.Errorf("bad table count")
	}
	buf = buf[n:]
	for i := uint64(0); i < nt; i++ {
		name, used, ok := decodeString(buf)
		if !ok {
			return -1, nil, fmt.Errorf("bad table name")
		}
		buf = buf[used:]
		keyCol, n := binary.Uvarint(buf)
		if n <= 0 || keyCol > maxKeyCol {
			return -1, nil, fmt.Errorf("table %s: bad key column", name)
		}
		buf = buf[n:]
		if len(buf) == 0 {
			return -1, nil, fmt.Errorf("truncated")
		}
		if format := buf[0]; format != imageFormatCol {
			return -1, nil, fmt.Errorf("table %s: unknown format %d", name, format)
		}
		buf = buf[1:]
		plen, n := binary.Uvarint(buf)
		if n <= 0 || plen > uint64(len(buf)-n) {
			return -1, nil, fmt.Errorf("table %s: bad payload length", name)
		}
		payload := buf[n : n+int(plen)]
		buf = buf[n+int(plen):]
		cb, used, err := types.DecodeDeltaBatch(payload)
		if err != nil {
			return -1, nil, fmt.Errorf("table %s: %w", name, err)
		}
		if used != len(payload) {
			return -1, nil, fmt.Errorf("table %s: %d trailing payload bytes", name, len(payload)-used)
		}
		tuples := make([]types.Tuple, cb.Len())
		for j := range tuples {
			tuples[j] = cb.Delta(j).Tup
		}
		tables = append(tables, imageTable{name: name, keyCol: int(keyCol), tuples: tuples})
	}
	if len(buf) != 0 {
		return -1, nil, fmt.Errorf("%d trailing bytes", len(buf))
	}
	return round, tables, nil
}
