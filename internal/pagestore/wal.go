package pagestore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"github.com/rex-data/rex/internal/types"
)

// The write-ahead log records every logical mutation (table creation,
// delta application) since the last checkpoint image, punctuated by
// round-commit marks. Appends are buffered; Commit flushes and fsyncs, so
// a committed round's mutations are durable while a torn or uncommitted
// tail costs nothing — replay applies records only up to the last valid
// commit mark and discards the rest.
//
// Record framing: uint32 payload length, uint32 CRC-32 (IEEE) of the
// payload, payload. Payload: 1 kind byte + body.
const (
	walCreate = byte('C') // table name, uvarint keyCol
	walApply  = byte('A') // table name, types.AppendDelta
	walCommit = byte('M') // varint round
)

type wal struct {
	path string
	f    *os.File
	w    *bufio.Writer
	size int64
	// err is sticky: buffered appends surface their failure at the next
	// Commit (the only point with durability semantics).
	err error
}

func openWAL(path string) (*wal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &wal{path: path, f: f, w: bufio.NewWriterSize(f, 1<<16), size: st.Size()}, nil
}

func (w *wal) append(payload []byte) {
	if w.err != nil {
		return
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.w.Write(hdr[:]); err != nil {
		w.err = err
		return
	}
	if _, err := w.w.Write(payload); err != nil {
		w.err = err
		return
	}
	w.size += int64(8 + len(payload))
}

func (w *wal) logCreate(table string, keyCol int) {
	buf := append([]byte{walCreate}, encodeString(nil, table)...)
	w.append(binary.AppendUvarint(buf, uint64(keyCol)))
}

func (w *wal) logApply(table string, d types.Delta) {
	buf := append([]byte{walApply}, encodeString(nil, table)...)
	w.append(types.AppendDelta(buf, d))
}

// commit appends a round mark, flushes, and fsyncs.
func (w *wal) commit(round int64) error {
	w.append(binary.AppendVarint([]byte{walCommit}, round))
	if w.err != nil {
		return w.err
	}
	if err := w.w.Flush(); err != nil {
		w.err = err
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// reset truncates the log after a checkpoint image made it redundant.
func (w *wal) reset() error {
	if err := w.w.Flush(); err != nil && w.err == nil {
		w.err = err
	}
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	w.w.Reset(w.f)
	w.size = 0
	w.err = nil
	return nil
}

func (w *wal) close() error {
	flushErr := w.w.Flush()
	closeErr := w.f.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// walRec is one replayed record.
type walRec struct {
	kind   byte
	table  string
	keyCol int
	delta  types.Delta
	round  int64
}

// replayWAL reads the log's committed prefix: every record up to and
// including the last valid commit mark. A short, torn, or checksum-failing
// tail ends the scan cleanly — that is the uncommitted work a crash is
// allowed to lose. A checksummed record that does not decode is an error.
func replayWAL(path string) (recs []walRec, lastRound int64, err error) {
	lastRound = -1
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, -1, nil
	}
	if err != nil {
		return nil, -1, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var all []walRec
	committed := 0 // len(all) at the last commit mark
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			break // EOF or torn header: end of usable log
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n > 1<<24 {
			break // corrupt length
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			break
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
			break
		}
		// The checksum held, so these are the bytes the writer wrote: a
		// record that does not decode is corruption, not a torn tail.
		rec, err := decodeWALRec(payload)
		if err != nil {
			return nil, -1, fmt.Errorf("pagestore: %s: record %d: %w", path, len(all), err)
		}
		all = append(all, rec)
		if rec.kind == walCommit {
			committed = len(all)
			lastRound = rec.round
		}
	}
	return all[:committed], lastRound, nil
}

func decodeWALRec(payload []byte) (walRec, error) {
	if len(payload) == 0 {
		return walRec{}, errors.New("empty record")
	}
	rec := walRec{kind: payload[0]}
	body := payload[1:]
	switch rec.kind {
	case walCreate:
		name, used, ok := decodeString(body)
		if !ok {
			return walRec{}, errors.New("create: bad table name")
		}
		k, n := binary.Uvarint(body[used:])
		if n <= 0 || k > maxKeyCol {
			return walRec{}, fmt.Errorf("create %s: bad key column", name)
		}
		rec.table, rec.keyCol = name, int(k)
	case walApply:
		name, used, ok := decodeString(body)
		if !ok {
			return walRec{}, errors.New("apply: bad table name")
		}
		d, _, err := types.DecodeDelta(body[used:])
		if err != nil {
			return walRec{}, fmt.Errorf("apply %s: %w", name, err)
		}
		rec.table, rec.delta = name, d
	case walCommit:
		v, n := binary.Varint(body)
		if n <= 0 {
			return walRec{}, errors.New("commit: bad round")
		}
		rec.round = v
	default:
		return walRec{}, fmt.Errorf("unknown record kind %d", rec.kind)
	}
	return rec, nil
}

// maxKeyCol bounds the key column an image or WAL record may declare. A
// larger uvarint would wrap negative as an int, slip past the stores'
// keyCol >= len(tuple) guards and panic on the first tuple indexed.
const maxKeyCol = math.MaxInt32

func encodeString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func decodeString(buf []byte) (string, int, bool) {
	l, n := binary.Uvarint(buf)
	if n <= 0 || l > uint64(len(buf)-n) {
		return "", 0, false
	}
	return string(buf[n : n+int(l)]), n + int(l), true
}
