package rex

import (
	"context"
	"testing"

	"github.com/rex-data/rex/internal/datagen"
	"github.com/rex-data/rex/internal/types"
)

// openInProc opens an in-process session closed at test end.
func openInProc(t *testing.T, nodes int) *Session {
	t.Helper()
	s, err := Open(context.Background(), WithInProc(nodes))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// mustSetup creates a table and loads its rows, failing the test on error.
func mustSetup(t *testing.T, s *Session, table string, schema *types.Schema, rows []Tuple) {
	t.Helper()
	if err := s.CreateTable(table, schema, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Load(table, rows); err != nil {
		t.Fatal(err)
	}
}

func TestClusterQuickstart(t *testing.T) {
	c := openInProc(t, 3)
	var rows []Tuple
	for i := 0; i < 100; i++ {
		rows = append(rows, NewTuple(int64(i), float64(i)))
	}
	mustSetup(t, c, "items", Schema("k:Integer", "v:Double"), rows)
	res, err := c.QueryCtx(context.Background(), `SELECT sum(v), count(*) FROM items WHERE k >= 50`)
	if err != nil {
		t.Fatal(err)
	}
	sum, _ := types.AsFloat(res.Tuples[0][0])
	n, _ := types.AsInt(res.Tuples[0][1])
	if n != 50 || sum != float64(50+99)*50/2 {
		t.Fatalf("sum=%v n=%v", sum, n)
	}
	if c.BytesShipped() <= 0 {
		t.Fatal("bytes shipped should be positive")
	}
}

func TestClusterCustomHandlersRecursive(t *testing.T) {
	// Connected reachability via custom while handler through the public
	// API only.
	c := openInProc(t, 2)
	g := datagen.DBPediaGraph(100, 5)
	mustSetup(t, c, "graph", Schema("srcId:Integer", "destId:Integer"), g.Edges)
	mustSetup(t, c, "seed", Schema("srcId:Integer", "dist:Double"), []Tuple{NewTuple(int64(0), 0.0)})

	err := c.JoinHandler("hops", Schema("nbr:Integer", "d:Double"),
		func(left, right *TupleSet, d Delta, fromLeft bool) ([]Delta, error) {
			if fromLeft {
				left.Add(d.Tup)
				return nil, nil
			}
			dist, _ := types.AsFloat(d.Tup[1])
			var out []Delta
			for _, e := range left.Tuples {
				out = append(out, Update(NewTuple(e[1], dist+1)))
			}
			return out, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	err = c.WhileHandler("keepmin", func(rel *TupleSet, d Delta) ([]Delta, error) {
		nd, _ := types.AsFloat(d.Tup[1])
		if rel.Len() > 0 {
			cur, _ := types.AsFloat(rel.Tuples[0][1])
			if nd >= cur {
				return nil, nil
			}
			rel.ReplaceFirst(rel.Tuples[0], NewTuple(d.Tup[0], nd))
		} else {
			rel.Add(NewTuple(d.Tup[0], nd))
		}
		return []Delta{Update(NewTuple(d.Tup[0], nd))}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	res, err := c.QueryCtx(context.Background(), `
WITH SP (srcId, dist) AS (
  SELECT srcId, dist FROM seed
) UNION ALL UNTIL FIXPOINT BY srcId USING keepmin (
  SELECT nbr, min(d)
  FROM (SELECT hops(srcId, dist).{nbr, d}
        FROM graph, SP WHERE graph.srcId = SP.srcId GROUP BY srcId)
  GROUP BY nbr)`, WithMaxStrata(300))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 100 {
		t.Fatalf("reached %d vertices, want 100", len(res.Tuples))
	}
}

func TestRegisterFuncAndUse(t *testing.T) {
	c := openInProc(t, 4)
	mustSetup(t, c, "t", Schema("x:Integer"), []Tuple{NewTuple(int64(2)), NewTuple(int64(5))})
	err := c.RegisterFunc("sq", []types.Kind{types.KindInt}, types.KindInt, true,
		func(args []Value) (Value, error) {
			n, _ := types.AsInt(args[0])
			return n * n, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.QueryCtx(context.Background(), `SELECT sq(x) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]bool{}
	for _, tup := range res.Tuples {
		n, _ := types.AsInt(tup[0])
		got[n] = true
	}
	if !got[4] || !got[25] {
		t.Fatalf("got %v", got)
	}
}

// TestKillPanicsOnBadNode keeps its historical name: the old Cluster.Kill
// panicked on an unknown node. Session.Kill must instead refuse it with an
// error, without panicking and without disturbing the live nodes.
func TestKillPanicsOnBadNode(t *testing.T) {
	c := openInProc(t, 2)
	mustSetup(t, c, "t", Schema("x:Integer"), []Tuple{NewTuple(int64(1)), NewTuple(int64(2))})
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Kill(99) panicked: %v", r)
			}
		}()
		if err := c.Kill(99); err == nil {
			t.Fatal("Kill(99) must error")
		}
	}()
	res, err := c.QueryCtx(context.Background(), `SELECT count(*) FROM t`)
	if err != nil {
		t.Fatalf("query after refused Kill: %v", err)
	}
	if n, _ := types.AsInt(res.Tuples[0][0]); n != 2 {
		t.Fatalf("count = %d, want 2", n)
	}
}
