package exec

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/uda"
)

// chunkRecorder is a terminal operator logging every Push (as a copy: the
// slice is only borrowed) and every punctuation, in arrival order.
type chunkRecorder struct {
	chunks [][]types.Delta
	events []string
}

func (r *chunkRecorder) Push(port int, batch []types.Delta) error {
	r.chunks = append(r.chunks, slices.Clone(batch))
	r.events = append(r.events, "push")
	return nil
}

func (r *chunkRecorder) Punct(port, stratum int, closed bool) error {
	r.events = append(r.events, "punct")
	return nil
}

func (r *chunkRecorder) all() []types.Delta { return slices.Concat(r.chunks...) }

// echoJoinHandler is a minimal join-state handler: each delta lands in
// its side's bucket and emits one δ() per opposite-bucket tuple.
type echoJoinHandler struct{}

func (echoJoinHandler) Name() string             { return "echo" }
func (echoJoinHandler) OutSchema() *types.Schema { return nil }
func (echoJoinHandler) Update(left, right *uda.TupleSet, d types.Delta, fromLeft bool) ([]types.Delta, error) {
	mine, opp := left, right
	if !fromLeft {
		mine, opp = right, left
	}
	mine.Add(d.Tup)
	var out []types.Delta
	for _, o := range opp.Tuples {
		out = append(out, types.Update(append(d.Tup.Clone(), o...)))
	}
	return out, nil
}

// fanoutAgg is a UDA whose every AggState emits three intermediate deltas.
type fanoutAgg struct{}

func (fanoutAgg) Name() string                               { return "fanout" }
func (fanoutAgg) InSchema() *types.Schema                    { return nil }
func (fanoutAgg) OutSchema() *types.Schema                   { return nil }
func (fanoutAgg) NewState() uda.State                        { return nil }
func (fanoutAgg) AggResult(uda.State) ([]types.Delta, error) { return nil, nil }
func (fanoutAgg) AggState(st uda.State, d types.Delta) (uda.State, []types.Delta, error) {
	return st, fanout3(d), nil
}

func fanout3(d types.Delta) []types.Delta {
	out := make([]types.Delta, 3)
	for i := range out {
		out[i] = types.Update(append(d.Tup.Clone(), int64(i)))
	}
	return out
}

// emitInput is one pushed batch whose output exceeds a BatchSize of 4
// several times over on every operator under test: inserts, a same-key
// replace, a key-changing replace, a delete and a δ().
func emitInput() []types.Delta {
	return []types.Delta{
		types.Insert(types.NewTuple(int64(1), "a")),
		types.Insert(types.NewTuple(int64(2), "b")),
		types.Replace(types.NewTuple(int64(1), "a"), types.NewTuple(int64(1), "c")),
		types.Replace(types.NewTuple(int64(2), "b"), types.NewTuple(int64(1), "b")),
		types.Delete(types.NewTuple(int64(1), "c")),
		types.Update(types.NewTuple(int64(2), "d")),
	}
}

// emitOp builds an operator under test with the given output chunk size,
// already wired to its recorder.
type emitOp func(batch int, rec *chunkRecorder) (Operator, error)

func joinUnderTest(handler uda.JoinHandler) emitOp {
	return func(batch int, rec *chunkRecorder) (Operator, error) {
		spec := &OpSpec{Kind: OpHashJoin, LeftKey: []int{0}, RightKey: []int{0}, ImmutablePort: -1}
		j := newHashJoinOp(spec, &Context{BatchSize: batch}, handler)
		j.outs = outputs{{op: rec, port: 0}}
		// Three right tuples per key make every left delta fan out.
		var right []types.Delta
		for k := int64(1); k <= 2; k++ {
			for v := int64(0); v < 3; v++ {
				right = append(right, types.Insert(types.NewTuple(k, v)))
			}
		}
		if err := j.Push(1, right); err != nil {
			return nil, err
		}
		rec.chunks, rec.events = nil, nil
		return j, nil
	}
}

func tvfUnderTest(batch int, rec *chunkRecorder) (Operator, error) {
	fn := &catalog.TVFDef{Name: "fanout", Fn: func(d types.Delta) ([]types.Delta, error) { return fanout3(d), nil }}
	return &tvfOp{fn: fn, outs: outputs{{op: rec, port: 0}}, batch: batch}, nil
}

func udaUnderTest(batch int, rec *chunkRecorder) (Operator, error) {
	g, err := newGroupByOp(&OpSpec{Kind: OpGroupBy, GroupKey: []int{0}}, 1, fanoutAgg{}, nil)
	if err != nil {
		return nil, err
	}
	g.outs = outputs{{op: rec, port: 0}}
	g.batch = batch
	return g, nil
}

// TestChunkedEmission checks the streamed operator output: for one pushed
// batch whose results exceed BatchSize, the consumer sees the same delta
// sequence as the unchunked output, split over several Pushes of at most
// BatchSize deltas, with the punctuation after the last chunk. Columnar
// pushes come from a pooled batch released right after the call, so the
// pooldebug build catches a chunk that aliases it.
func TestChunkedEmission(t *testing.T) {
	const small = 4
	cases := []struct {
		name     string
		build    emitOp
		columnar bool
	}{
		{"join", joinUnderTest(nil), false},
		{"join/columnar", joinUnderTest(nil), true},
		{"join/handler", joinUnderTest(echoJoinHandler{}), false},
		{"join/handler/columnar", joinUnderTest(echoJoinHandler{}), true},
		{"tvf", tvfUnderTest, false},
		{"uda", udaUnderTest, false},
		{"uda/columnar", udaUnderTest, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(batch int) *chunkRecorder {
				rec := &chunkRecorder{}
				op, err := tc.build(batch, rec)
				must(t, err)
				if tc.columnar {
					b := types.GetBatch()
					for _, d := range emitInput() {
						b.Append(d)
					}
					must(t, op.(BatchOperator).PushBatch(0, b))
					types.PutBatch(b)
				} else {
					must(t, op.Push(0, emitInput()))
				}
				must(t, op.Punct(0, 0, true))
				if _, twoPorts := op.(*hashJoinOp); twoPorts {
					must(t, op.Punct(1, 0, true))
				}
				return rec
			}
			whole, chunked := run(1<<20), run(small)
			if len(whole.chunks) != 1 {
				t.Fatalf("unchunked run pushed %d times, want 1", len(whole.chunks))
			}
			if got, want := chunked.all(), whole.all(); !reflect.DeepEqual(got, want) {
				t.Fatalf("chunked output differs from unchunked:\n got %v\nwant %v", got, want)
			}
			if len(chunked.chunks) < 2 {
				t.Fatalf("%d deltas arrived in %d push(es), want several chunks of %d",
					len(chunked.all()), len(chunked.chunks), small)
			}
			for i, c := range chunked.chunks {
				if len(c) == 0 || len(c) > small {
					t.Errorf("chunk %d holds %d deltas, want 1..%d", i, len(c), small)
				}
			}
			want := append(slices.Repeat([]string{"push"}, len(chunked.chunks)), "punct")
			if fmt.Sprint(chunked.events) != fmt.Sprint(want) {
				t.Fatalf("events %v, want %v", chunked.events, want)
			}
		})
	}
}
