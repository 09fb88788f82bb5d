// Inner-loop benchmark: the per-round shuffle cycle that dominates the
// recursive workloads (SSSP, PageRank) — decode an incoming delta frame,
// hash-route every delta to its destination partition, re-encode the
// per-destination frames — measured on the row codec path and on the
// columnar delta-batch path. The two modes process identical delta
// streams and must route identically (checked, not assumed); the columnar
// mode's win comes from the near-zero-copy decode, vectorized key
// hashing, and pooled frame buffers.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/types"
)

// CIInnerLoop records one inner-loop measurement (one workload shape in
// one mode). RowsPerSec and AllocsPerRound are the trend fields CI gates
// on; HeapGrowthBytes is the steady-state check — live heap after GC must
// not grow across 50 pooled rounds (columnar mode only; the row path has
// no arena to hold steady).
type CIInnerLoop struct {
	Workload string `json:"workload"`
	// Mode is "row" (materialized tuples, row codec) or "vector"
	// (columnar batches end to end).
	Mode   string `json:"mode"`
	Rows   int    `json:"rows"`   // deltas per round
	Rounds int    `json:"rounds"` // timed rounds

	RowsPerSec     float64 `json:"rows_per_sec"`
	AllocsPerRound float64 `json:"allocs_per_round"`
	BytesPerRound  float64 `json:"alloc_bytes_per_round"`
	// SpeedupVsRow is set on the vector row: vector rows/sec over row
	// rows/sec for the same workload.
	SpeedupVsRow float64 `json:"speedup_vs_row,omitempty"`
	// HeapGrowthBytes is live-heap growth (post-GC) across 50 additional
	// steady-state rounds; pooled arenas must hold this at ~zero.
	HeapGrowthBytes int64 `json:"heap_growth_bytes,omitempty"`
	// Checksum folds every (destination, key-hash) routing decision; the
	// row and vector rows of one workload must agree exactly.
	Checksum string  `json:"checksum"`
	Millis   float64 `json:"ms"`
}

// innerLoopShape describes one workload-shaped delta stream.
type innerLoopShape struct {
	name string
	gen  func(round, i int) types.Delta
}

// innerLoopShapes are the delta streams of the two recursive rexbench
// workloads: SSSP ships (vertex, dist) δ-updates, PageRank ships
// (vertex, rank, degree) contributions.
func innerLoopShapes() []innerLoopShape {
	return []innerLoopShape{
		{name: "sssp", gen: func(round, i int) types.Delta {
			v := int64((i*2654435761 + round*97) % 100003)
			d := types.Delta{Op: types.OpUpdate, Tup: types.NewTuple(v, float64(round+i%17))}
			if i%5 == 0 {
				d.Op = types.OpInsert
			}
			return d
		}},
		{name: "pagerank", gen: func(round, i int) types.Delta {
			v := int64((i*40503 + round*31) % 100003)
			return types.Delta{Op: types.OpUpdate, Tup: types.NewTuple(v, 0.85/float64(1+i%9), int64(1+i%9))}
		}},
	}
}

const (
	innerLoopRows   = 8192 // deltas per round
	innerLoopRounds = 50   // timed rounds
	innerLoopNodes  = 4    // routing destinations
	innerLoopFlush  = 1024 // per-destination frame granularity (defaultBatchSize)
)

// innerLoopKey is the partition key of both workload shapes.
var innerLoopKey = []int{0}

// rowRound is one row-mode inner loop: decode a row frame, route each
// materialized delta by key hash, re-encode one frame per destination.
// dests persists across rounds, mirroring the rehash operator's reused
// pending buffers.
func rowRound(frame []byte, dests [][]types.Delta, sink *int64, sum *uint64) error {
	rows, err := cluster.DecodeDeltas(frame)
	if err != nil {
		return err
	}
	flush := func(d int) {
		payload := cluster.EncodeDeltas(dests[d])
		*sink += int64(len(payload))
		dests[d] = dests[d][:0]
	}
	for _, d := range rows {
		h := types.HashValue(d.Tup[0])
		n := int(h % innerLoopNodes)
		*sum = (*sum ^ (h + uint64(n))) * 1099511628211
		dests[n] = append(dests[n], d)
		if len(dests[n]) >= innerLoopFlush {
			flush(n)
		}
	}
	for n := range dests {
		if len(dests[n]) > 0 {
			flush(n)
		}
	}
	return nil
}

// vecRound is one columnar-mode inner loop: near-zero-copy decode of a
// columnar frame, vectorized key hashing into pooled per-destination
// batches, lazy re-encode through the pooled payload buffers.
func vecRound(frame []byte, dests []*types.DeltaBatch, scratch types.Tuple, sink *int64, sum *uint64) error {
	_, cb, err := cluster.DecodeDeltasAny(frame)
	if err != nil {
		return err
	}
	if cb == nil {
		return fmt.Errorf("bench: inner loop frame decoded as rows, want columnar")
	}
	flush := func(n int) {
		buf := cluster.GetPayloadBuf()
		payload := cluster.EncodeDeltaBatch(buf, dests[n])
		*sink += int64(len(payload))
		cluster.PutPayloadBuf(payload)
		dests[n].Reset()
	}
	for i := 0; i < cb.Len(); i++ {
		h := cb.HashKeyAt(i, innerLoopKey, scratch)
		n := int(h % innerLoopNodes)
		*sum = (*sum ^ (h + uint64(n))) * 1099511628211
		if !dests[n].CanAppendRowFrom(cb, i) || dests[n].Len() >= innerLoopFlush {
			flush(n)
		}
		dests[n].AppendRowFrom(cb, i)
	}
	for n := range dests {
		if dests[n].Len() > 0 {
			flush(n)
		}
	}
	return nil
}

// InnerLoopBench runs both modes over both workload shapes and returns
// the CI rows, row mode first per workload. The two modes must make
// identical routing decisions (checksum equality is enforced here, not
// left to the CI gate).
func InnerLoopBench(w io.Writer) ([]CIInnerLoop, error) {
	var out []CIInnerLoop
	rep := &Report{
		Title: "Shuffle inner loop (row vs columnar)",
		Notes: fmt.Sprintf("%d deltas/round routed across %d partitions; decode → hash-route → re-encode",
			innerLoopRows, innerLoopNodes),
		Headers: []string{"workload", "mode", "rows/sec", "allocs/round", "alloc_bytes/round",
			"speedup", "heap_growth", "checksum", "ms"},
	}
	for _, shape := range innerLoopShapes() {
		// Pre-encode each round's frame in both wire formats outside the
		// timed region: each mode consumes its own format end to end, as
		// the engine's dictionary and columnar shuffle edges do.
		rowFrames := make([][]byte, innerLoopRounds)
		vecFrames := make([][]byte, innerLoopRounds)
		for r := 0; r < innerLoopRounds; r++ {
			deltas := make([]types.Delta, innerLoopRows)
			for i := range deltas {
				deltas[i] = shape.gen(r, i)
			}
			rowFrames[r] = cluster.EncodeDeltas(deltas)
			cb, ok := types.FromDeltas(deltas)
			if !ok {
				return nil, fmt.Errorf("bench: %s deltas not batchable", shape.name)
			}
			vecFrames[r] = cluster.EncodeDeltaBatch(nil, cb)
		}

		rowDests := make([][]types.Delta, innerLoopNodes)
		rowRec, err := timeInnerLoop(shape.name, "row", func(r int, sink *int64, sum *uint64) error {
			return rowRound(rowFrames[r%innerLoopRounds], rowDests, sink, sum)
		})
		if err != nil {
			return nil, err
		}

		dests := make([]*types.DeltaBatch, innerLoopNodes)
		for n := range dests {
			dests[n] = types.GetBatch()
		}
		scratch := make(types.Tuple, 0, 8)
		vecRec, err := timeInnerLoop(shape.name, "vector", func(r int, sink *int64, sum *uint64) error {
			return vecRound(vecFrames[r%innerLoopRounds], dests, scratch, sink, sum)
		})
		if err != nil {
			return nil, err
		}
		if vecRec.Checksum != rowRec.Checksum {
			return nil, fmt.Errorf("bench: %s inner loop routed differently: row %s vs vector %s",
				shape.name, rowRec.Checksum, vecRec.Checksum)
		}
		if rowRec.RowsPerSec > 0 {
			vecRec.SpeedupVsRow = vecRec.RowsPerSec / rowRec.RowsPerSec
		}

		// Steady-state heap check: after warmup + GC, 50 more pooled
		// rounds must not grow the live heap — the arenas recycle.
		var sink int64
		var sum uint64
		for r := 0; r < 10; r++ {
			if err := vecRound(vecFrames[r%innerLoopRounds], dests, scratch, &sink, &sum); err != nil {
				return nil, err
			}
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for r := 0; r < 50; r++ {
			if err := vecRound(vecFrames[r%innerLoopRounds], dests, scratch, &sink, &sum); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		vecRec.HeapGrowthBytes = int64(after.HeapAlloc) - int64(before.HeapAlloc)
		for n := range dests {
			types.PutBatch(dests[n])
		}

		for _, rec := range []CIInnerLoop{rowRec, vecRec} {
			out = append(out, rec)
			rep.Rows = append(rep.Rows, []string{
				rec.Workload, rec.Mode,
				fmt.Sprintf("%.0f", rec.RowsPerSec),
				fmt.Sprintf("%.0f", rec.AllocsPerRound),
				fmt.Sprintf("%.0f", rec.BytesPerRound),
				fmt.Sprintf("%.2fx", rec.SpeedupVsRow),
				fmt.Sprint(rec.HeapGrowthBytes),
				rec.Checksum, fmt.Sprintf("%.1f", rec.Millis),
			})
		}
	}
	rep.Print(w)
	return out, nil
}

// timeInnerLoop measures one mode: rows/sec over the timed rounds plus
// allocation counters from runtime.MemStats (Mallocs/TotalAlloc are
// monotonic, so no GC is forced inside the timed region).
func timeInnerLoop(workload, mode string, round func(r int, sink *int64, sum *uint64) error) (CIInnerLoop, error) {
	rec := CIInnerLoop{Workload: workload, Mode: mode, Rows: innerLoopRows, Rounds: innerLoopRounds}
	var sink int64
	var sum uint64
	// Warm pools and caches with two untimed rounds.
	for r := 0; r < 2; r++ {
		if err := round(r, &sink, &sum); err != nil {
			return rec, err
		}
	}
	sum = 0
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for r := 0; r < innerLoopRounds; r++ {
		if err := round(r, &sink, &sum); err != nil {
			return rec, err
		}
	}
	dur := time.Since(start)
	runtime.ReadMemStats(&after)
	rec.Checksum = fmt.Sprintf("%016x", sum)
	rec.Millis = float64(dur) / float64(time.Millisecond)
	if dur > 0 {
		rec.RowsPerSec = float64(innerLoopRows*innerLoopRounds) / dur.Seconds()
	}
	rec.AllocsPerRound = float64(after.Mallocs-before.Mallocs) / innerLoopRounds
	rec.BytesPerRound = float64(after.TotalAlloc-before.TotalAlloc) / innerLoopRounds
	_ = sink
	return rec, nil
}
