package cluster

// Wire-codec microbenchmarks: encode/decode round trips of the same delta
// stream through the dictionary row codec and the columnar batch codec
// (whose decode aliases the frame and materializes lazily). Compare B/op
// and allocs/op between the Row/Columnar pairs; CI's bench-micro step
// uploads the output.

import (
	"testing"

	"github.com/rex-data/rex/internal/types"
)

func codecStream(n int) []types.Delta {
	ds := make([]types.Delta, n)
	for i := range ds {
		op := types.OpUpdate
		if i%5 == 0 {
			op = types.OpInsert
		}
		ds[i] = types.Delta{Op: op, Tup: types.NewTuple(int64(i%997), float64(i%31))}
	}
	return ds
}

func BenchmarkEncodeRow(b *testing.B) {
	rows := codecStream(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload := EncodeDeltas(rows)
		if len(payload) == 0 {
			b.Fatal("empty payload")
		}
	}
}

func BenchmarkEncodeColumnar(b *testing.B) {
	cb, ok := types.FromDeltas(codecStream(4096))
	if !ok {
		b.Fatal("stream not batchable")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := GetPayloadBuf()
		payload := EncodeDeltaBatch(buf, cb)
		if len(payload) == 0 {
			b.Fatal("empty payload")
		}
		PutPayloadBuf(payload)
	}
}

func BenchmarkDecodeRow(b *testing.B) {
	payload := EncodeDeltas(codecStream(4096))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := DecodeDeltas(payload)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4096 {
			b.Fatal("short decode")
		}
	}
}

// BenchmarkDecodeColumnar is the near-zero-copy path: the decode checks
// each column payload in one allocation-free pass and aliases it without
// materializing rows.
func BenchmarkDecodeColumnar(b *testing.B) {
	cb, ok := types.FromDeltas(codecStream(4096))
	if !ok {
		b.Fatal("stream not batchable")
	}
	payload := EncodeDeltaBatch(nil, cb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, dec, err := DecodeDeltasAny(payload)
		if err != nil {
			b.Fatal(err)
		}
		if dec == nil || dec.Len() != 4096 {
			b.Fatal("short decode")
		}
	}
}

// BenchmarkDecodeColumnarHashRoute adds the typical consumer work on top
// of the aliasing decode: hashing every row's key column, as the rehash
// operator does, without materializing tuples.
func BenchmarkDecodeColumnarHashRoute(b *testing.B) {
	cb, ok := types.FromDeltas(codecStream(4096))
	if !ok {
		b.Fatal("stream not batchable")
	}
	payload := EncodeDeltaBatch(nil, cb)
	key := []int{0}
	scratch := make(types.Tuple, 0, 4)
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		_, dec, err := DecodeDeltasAny(payload)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < dec.Len(); j++ {
			sum ^= dec.HashKeyAt(j, key, scratch)
		}
	}
	if sum == 42 {
		b.Log(sum) // keep the loop observable
	}
}
