package job

import (
	"testing"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/types"
)

// Ingest-log replay folds columnar entries into the staged tables and
// refuses entries it cannot decode, including payloads of the retired
// dictionary format (tag 0xD1).
func TestApplyIngestDecodes(t *testing.T) {
	base := func() []Table {
		return []Table{{Name: "graph", Tuples: []types.Tuple{types.NewTuple(int64(1), int64(2))}}}
	}
	enc, err := cluster.EncodeDeltas([]types.Delta{
		types.Insert(types.NewTuple(int64(2), int64(3))),
		types.Delete(types.NewTuple(int64(1), int64(2))),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &Spec{Ingest: []IngestedTable{{Table: "graph", Deltas: enc}}}
	tables, err := s.applyIngest(base())
	if err != nil {
		t.Fatal(err)
	}
	if got := tables[0].Tuples; len(got) != 1 || !got[0].Equal(types.NewTuple(int64(2), int64(3))) {
		t.Fatalf("replayed table = %v", got)
	}
	for name, payload := range map[string][]byte{
		"dictionary": {0xD1, 0, 1, 0, 2, 1, 6, 1, 8}, // insert (3, 4), no dictionary
		"empty":      {},
		"truncated":  enc[:len(enc)-1],
	} {
		s := &Spec{Ingest: []IngestedTable{{Table: "graph", Deltas: payload}}}
		if _, err := s.applyIngest(base()); err == nil {
			t.Errorf("%s ingest log replayed without error", name)
		}
	}
}
