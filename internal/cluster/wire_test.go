package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/rex-data/rex/internal/types"
)

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(from, to int16, edge, stratum, count, epoch int32, kind uint8,
		terminate, closed, grant bool, credits uint16, prio int8, table string, payload []byte) bool {
		msg := Message{
			From: NodeID(from), To: NodeID(to), Edge: int(edge),
			Stratum: int(stratum), Kind: MsgKind(kind % 9), Payload: payload,
			Count: int(count), Terminate: terminate, Closed: closed,
			Epoch: int(epoch), Table: table,
			CreditGrant: grant,
			Priority:    int(prio),
		}
		if grant {
			msg.Credits = int(credits)
		}
		got, err := DecodeFrame(EncodeFrame(msg))
		if err != nil {
			return false
		}
		if got.From != msg.From || got.To != msg.To || got.Edge != msg.Edge ||
			got.Stratum != msg.Stratum || got.Kind != msg.Kind ||
			got.Count != msg.Count || got.Terminate != msg.Terminate ||
			got.Closed != msg.Closed || got.Epoch != msg.Epoch || got.Table != msg.Table ||
			got.CreditGrant != msg.CreditGrant || got.Credits != msg.Credits ||
			got.Priority != msg.Priority {
			return false
		}
		if len(got.Payload) != len(msg.Payload) {
			return false
		}
		for i := range got.Payload {
			if got.Payload[i] != msg.Payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// randValue draws one scalar from every kind the engine supports,
// including NULL. NaN is excluded: it is not equal to itself, so it cannot
// satisfy an equality-based round-trip property (the codec still carries
// it bit-exactly).
func randValue(r *rand.Rand) types.Value {
	switch r.Intn(6) {
	case 0:
		return nil
	case 1:
		return r.Int63() - (1 << 62) // negative and positive ints
	case 2:
		return int64(r.Intn(64)) // small ints: repeated, varint-short
	case 3:
		f := math.Float64frombits(r.Uint64())
		if math.IsNaN(f) {
			f = 0.5
		}
		return f
	case 4:
		const alphabet = "αβγ abcdefXYZ0123456789"
		n := r.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		return string(b)
	default:
		return r.Intn(2) == 0
	}
}

// randDelta draws one delta of the given arity; a replace's old image
// shares it, as every batch the engine ships is schema-uniform.
func randDelta(r *rand.Rand, arity int) types.Delta {
	tup := make(types.Tuple, arity)
	for i := range tup {
		tup[i] = randValue(r)
	}
	op := types.Op(r.Intn(4))
	d := types.Delta{Op: op, Tup: tup}
	if op == types.OpReplace {
		old := make(types.Tuple, arity)
		for i := range old {
			old[i] = randValue(r)
		}
		d.Old = old
	}
	return d
}

// Property: random delta batches — mixed-kind columns, NULLs, replace
// deltas, repeated values — round-trip the wire format exactly.
func TestDeltaBatchRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(20260729))
	for iter := 0; iter < 300; iter++ {
		batch := make([]types.Delta, r.Intn(40))
		arity := 1 + r.Intn(5)
		for i := range batch {
			batch[i] = randDelta(r, arity)
		}
		got, err := DecodeDeltas(mustEncode(t, batch))
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		if len(got) != len(batch) {
			t.Fatalf("iter %d: got %d deltas, want %d", iter, len(got), len(batch))
		}
		for i := range got {
			if got[i].Op != batch[i].Op || !got[i].Tup.Equal(batch[i].Tup) {
				t.Fatalf("iter %d delta %d: %v != %v", iter, i, got[i], batch[i])
			}
			if batch[i].Op == types.OpReplace && !got[i].Old.Equal(batch[i].Old) {
				t.Fatalf("iter %d delta %d: old %v != %v", iter, i, got[i].Old, batch[i].Old)
			}
		}
	}
}

// Kind fidelity: an int64 and an integral float64 compare ValueEq, but the
// wire must preserve the original kind (1 must not come back as 1.0).
func TestDeltaBatchPreservesKinds(t *testing.T) {
	batch := []types.Delta{
		types.Insert(types.NewTuple(int64(7), 7.0, "7", true, nil)),
		types.Insert(types.NewTuple(int64(7), 7.0, "7", true, nil)),
		types.Insert(types.NewTuple(int64(7), 7.0, "7", true, nil)),
	}
	got, err := DecodeDeltas(mustEncode(t, batch))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range got {
		if _, ok := d.Tup[0].(int64); !ok {
			t.Fatalf("column 0 lost int kind: %T", d.Tup[0])
		}
		if _, ok := d.Tup[1].(float64); !ok {
			t.Fatalf("column 1 lost float kind: %T", d.Tup[1])
		}
		if _, ok := d.Tup[2].(string); !ok {
			t.Fatalf("column 2 lost string kind: %T", d.Tup[2])
		}
		if _, ok := d.Tup[3].(bool); !ok {
			t.Fatalf("column 3 lost bool kind: %T", d.Tup[3])
		}
		if d.Tup[4] != nil {
			t.Fatalf("column 4 lost NULL: %v", d.Tup[4])
		}
	}
}

// mustEncode is EncodeDeltas for batches that must encode.
func mustEncode(t testing.TB, batch []types.Delta) []byte {
	t.Helper()
	buf, err := EncodeDeltas(batch)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// A ragged batch has no columnar layout: EncodeDeltas reports it as an
// error instead of panicking or falling back to another format.
func TestEncodeDeltasRejectsRagged(t *testing.T) {
	for name, batch := range map[string][]types.Delta{
		"tuple arity": {
			types.Insert(types.NewTuple(int64(1), "a")),
			types.Insert(types.NewTuple(int64(2))),
		},
		"old-image arity": {
			types.Replace(types.NewTuple(int64(1)), types.NewTuple(int64(2))),
			types.Replace(types.NewTuple(int64(1), "x"), types.NewTuple(int64(3))),
		},
	} {
		if buf, err := EncodeDeltas(batch); err == nil {
			t.Errorf("%s: ragged batch encoded to %x", name, buf)
		}
	}
}

// dictFrame is a payload of the retired dictionary format (tag 0xD1), as
// its encoder wrote it; the fuzz corpus keeps it as valid-dictionary-frame.
const dictFrame = "\xd1\x02\x02@\x04\x00\x00\x00\x00\x00\x00\x03\x01a\x02\x00\x04\x01\x02\t\b\x04\x01\x02\x04\x01\x02\x00\x02@\f\x00\x00\x00\x00\x00\x00\x04\x00\x04\x01\x02\t\b\x04\x01"

// A dictionary-format payload is an error, never a batch.
func TestDecodeDeltasRejectsDictionaryFormat(t *testing.T) {
	for _, buf := range [][]byte{
		{0xD1},
		{0xD1, 0, 1, 0, 1, 1, 2}, // one insert of (int 1), no dictionary
		[]byte(dictFrame),
	} {
		if ds, err := DecodeDeltas(buf); err == nil {
			t.Errorf("DecodeDeltas(%x) = %v, want an error", buf, ds)
		}
		if _, err := DecodeDeltaBatch(buf); err == nil {
			t.Errorf("DecodeDeltaBatch(%x) accepted a dictionary payload", buf)
		}
	}
}

// Truncated or corrupt buffers must error, never panic.
func TestDecodeDeltasCorrupt(t *testing.T) {
	batch := []types.Delta{
		types.Insert(types.NewTuple(int64(1), "hello", 2.5)),
		types.Replace(types.NewTuple(int64(1), "hello", 2.5), types.NewTuple(int64(1), "world", 3.5)),
	}
	wire := mustEncode(t, batch)
	for cut := 0; cut < len(wire); cut++ {
		if _, err := DecodeDeltas(wire[:cut]); err == nil {
			t.Fatalf("truncation at %d must fail", cut)
		}
	}
	if _, err := DecodeDeltas(append(wire[:len(wire):len(wire)], 0xFF)); err == nil {
		t.Fatal("trailing garbage must fail")
	}
	if _, err := DecodeDeltas([]byte{0x42}); err == nil {
		t.Fatal("unknown format byte must fail")
	}
	if _, err := DecodeFrame([]byte{9, 9}); err == nil {
		t.Fatal("short frame must fail")
	}
	// Forged (huge) length fields must error, not panic in makeslice or
	// slicing: row count, column count, old-column count, column payload
	// length, and the frame's table/payload lengths.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	forged := [][]byte{
		append([]byte{deltaFormatCol}, huge...),                // row count
		append([]byte{deltaFormatCol, 0}, huge...),             // column count
		append([]byte{deltaFormatCol, 0, 0}, huge...),          // old-column count
		append([]byte{deltaFormatCol, 1, 1, 0, 0, 3}, huge...), // string payload length
	}
	for i, buf := range forged {
		if _, err := DecodeDeltas(buf); err == nil {
			t.Fatalf("forged buffer %d must fail", i)
		}
	}
	frame := EncodeFrame(Message{From: 0, To: 1, Kind: MsgData, Table: "t", Payload: []byte{1}})
	for cut := 3; cut < len(frame); cut++ {
		if _, err := DecodeFrame(frame[:cut]); err == nil {
			t.Fatalf("frame truncation at %d must fail", cut)
		}
	}
	// Frame with a forged table length in place of the real one.
	bad := append(frame[:len(frame)-5:len(frame)-5], huge...)
	if _, err := DecodeFrame(bad); err == nil {
		t.Fatal("forged frame length must fail")
	}
}

// Cross-kind numeric ties (int64(300) vs float64(300.0) compare equal)
// must still encode deterministically and keep their kinds.
func TestDeltaBatchDeterministicUnderTies(t *testing.T) {
	var batch []types.Delta
	for i := 0; i < 4; i++ {
		batch = append(batch, types.Insert(types.NewTuple(int64(300), 300.0, int64(301), 301.0)))
	}
	first := mustEncode(t, batch)
	for i := 0; i < 20; i++ {
		if string(mustEncode(t, batch)) != string(first) {
			t.Fatal("encoding varies across runs for tied values")
		}
	}
	got, err := DecodeDeltas(first)
	if err != nil || len(got) != len(batch) {
		t.Fatalf("round trip: %v %v", got, err)
	}
	if _, ok := got[0].Tup[0].(int64); !ok {
		t.Fatalf("kind lost on tied entries: %T", got[0].Tup[0])
	}
	if _, ok := got[0].Tup[1].(float64); !ok {
		t.Fatalf("kind lost on tied entries: %T", got[0].Tup[1])
	}
}
