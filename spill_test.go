package rex

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"github.com/rex-data/rex/internal/algos"
	"github.com/rex-data/rex/internal/bench"
	"github.com/rex-data/rex/internal/job"
	"github.com/rex-data/rex/internal/noded"
)

// startSpillDaemons is startDaemons with a data directory per node: each
// in-process daemon pages its stores to disk through a poolPages-page
// buffer pool, the way a rexnode process started with -data-dir would.
// The nodes are returned too, so tests can read their pool counters
// after the session closes.
func startSpillDaemons(t *testing.T, n, poolPages int) ([]string, []*noded.Node) {
	t.Helper()
	root := t.TempDir()
	addrs := make([]string, n)
	nodes := make([]*noded.Node, n)
	served := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		nd, err := noded.Listen("127.0.0.1:0", io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.UseDataDir(filepath.Join(root, fmt.Sprintf("node%d", i)), poolPages); err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
		addrs[i] = nd.Addr()
		go func() {
			defer func() { served <- struct{}{} }()
			if err := nd.Serve(); err != nil {
				t.Errorf("daemon: %v", err)
			}
		}()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
		for i := 0; i < n; i++ {
			<-served
		}
	})
	return addrs, nodes
}

// TestSpillLargerThanRAMBothTransports is the paging acceptance property:
// a recursive shortest-path query over a dataset far larger than the
// configured buffer pool completes with a result hash identical to the
// all-in-RAM path, on both transports — and the pool counters prove the
// run genuinely paged (evictions and spilled bytes, not a dataset that
// quietly fit in the pool).
func TestSpillLargerThanRAMBothTransports(t *testing.T) {
	// 8 pages = 64 KiB of pool per node; the sssp graph at this scale is
	// many times that before operator state even starts accumulating.
	const size, pool = 4000, 8
	ctx := context.Background()
	opts := Options{MaxStrata: 300}
	data := []Option{WithDataset("sssp", size, 1), WithHandlers("sssp-inc")}

	runHash := func(t *testing.T, sess *Session) string {
		t.Helper()
		res, err := sess.QueryCtx(ctx, algos.IncSSSPQuery, WithOptions(opts))
		if err != nil {
			t.Fatal(err)
		}
		return bench.ResultHash(res.Tuples)
	}

	// Reference: the all-in-RAM in-process run.
	ram, err := Open(ctx, append([]Option{WithInProc(3)}, data...)...)
	if err != nil {
		t.Fatal(err)
	}
	want := runHash(t, ram)
	if err := ram.Close(); err != nil {
		t.Fatal(err)
	}

	// In-process spill: identical query, stores paged through tiny pools.
	sp, err := Open(ctx, append([]Option{WithInProc(3),
		WithSpillDir(t.TempDir()), WithBufferPoolPages(pool)}, data...)...)
	if err != nil {
		t.Fatal(err)
	}
	if got := runHash(t, sp); got != want {
		t.Fatalf("in-process spill hash %s != all-in-RAM %s", got, want)
	}
	st, err := sp.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ps := st.Pool
	if ps.Evictions == 0 || ps.BytesSpilled == 0 {
		t.Fatalf("pool never paged (hits %d, misses %d, evictions %d, spilled %d bytes): the dataset must exceed the pool for this test to mean anything",
			ps.Hits, ps.Misses, ps.Evictions, ps.BytesSpilled)
	}
	t.Logf("in-process pool: %.1f%% hit rate, %d evictions, %d bytes spilled",
		100*ps.HitRate(), ps.Evictions, ps.BytesSpilled)
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	// TCP: daemons with data directories and the same tiny pools (the
	// spec's BufferPoolPages pins the budget cluster-wide).
	addrs, nodes := startSpillDaemons(t, 3, pool)
	tc, err := Open(ctx, append([]Option{WithTCPPeers(addrs...),
		WithBufferPoolPages(pool)}, data...)...)
	if err != nil {
		t.Fatal(err)
	}
	if got := runHash(t, tc); got != want {
		t.Fatalf("tcp spill hash %s != all-in-RAM %s", got, want)
	}
	if err := tc.Close(); err != nil {
		t.Fatal(err)
	}
	var total PoolStats
	for _, nd := range nodes {
		total.Add(nd.PoolStats())
	}
	if total.Evictions == 0 {
		t.Fatalf("daemon pools never paged (hits %d, misses %d): the dataset must exceed the pool",
			total.Hits, total.Misses)
	}
	t.Logf("daemon pools: %.1f%% hit rate, %d evictions, %d bytes spilled",
		100*total.HitRate(), total.Evictions, total.BytesSpilled)
}

// TestSpillPageRankEquivalence runs the second acceptance workload —
// PageRank, whose operator state (rank accumulators, not just edges)
// dominates the pool — through paged stores and gates hash equality with
// the in-memory run.
func TestSpillPageRankEquivalence(t *testing.T) {
	run := func(t *testing.T, spill bool) string {
		t.Helper()
		spec := &Workload{Workload: "pagerank", Nodes: 3, Seed: 1, Size: 2500,
			Delta: true, MaxIterations: 10}
		if spill {
			spec.SpillDir = t.TempDir()
			spec.BufferPoolPages = 8
		}
		eng, plan, opts, err := job.InProcEngine(spec)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Transport.Close()
		defer eng.CloseStores()
		res, err := eng.RunCtx(context.Background(), plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		if spill {
			if ps := eng.PoolStats(); ps.Evictions == 0 {
				t.Fatalf("pagerank run never paged (hits %d, misses %d)", ps.Hits, ps.Misses)
			}
		}
		return bench.ResultHash(res.Tuples)
	}
	ram := run(t, false)
	if sp := run(t, true); sp != ram {
		t.Fatalf("pagerank spill hash %s != in-RAM %s", sp, ram)
	}
}
