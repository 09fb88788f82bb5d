package exec

import (
	"reflect"
	"testing"

	"github.com/rex-data/rex/internal/cluster"
)

// MsgStart node lists round-trip, and malformed payloads are errors, not
// silently coerced node IDs.
func TestNodeListCodec(t *testing.T) {
	for _, nodes := range [][]cluster.NodeID{{}, {0}, {3, 1, 2}, {0, 200}} {
		got, err := decodeNodeList(encodeNodeList(nodes), 201)
		if err != nil || !reflect.DeepEqual(got, nodes) {
			t.Fatalf("round trip %v: %v, %v", nodes, got, err)
		}
	}
	for name, payload := range map[string][]byte{
		"empty":           {},
		"count overruns":  {3, 0, 1},
		"huge count":      {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
		"truncated id":    {1, 0x80},
		"id out of range": {2, 0, 4},
		"huge id":         {1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
		"trailing bytes":  {1, 0, 0},
		// The row batch encoding this payload had before: one insert of
		// the tuple (0, 1).
		"old row batch": {1, 0, 2, 1, 0, 1, 2},
	} {
		if got, err := decodeNodeList(payload, 4); err == nil {
			t.Errorf("%s: decoded %v", name, got)
		}
	}
}
