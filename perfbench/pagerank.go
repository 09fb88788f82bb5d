package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"time"

	"github.com/rex-data/rex"
	"github.com/rex-data/rex/internal/algos"
	"github.com/rex-data/rex/internal/bench"
	"github.com/rex-data/rex/internal/datagen"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/types"
)

// pageRankTolerance bounds |rank - reference| / max(reference, 1) per
// vertex: ε-thresholded delta propagation leaves each rank behind the
// converged reference by its accumulated sub-ε residue.
const pageRankTolerance = 0.05

// pageRankGraphs is how many graphs one run rotates through. Graphs of
// one size differ in how many strata PageRank needs (12 to 14 at this
// scale), so a run over one graph, or a few, would time the seed's graphs
// more than the engine; 16 spread a 30 s run's ~33 jobs over the range.
const pageRankGraphs = 16

// pageRankSpecs are the pagerank-batch jobs: delta PageRank over
// DBPedia-like graphs at the laptop scale, compaction on, on 4 in-process
// worker nodes, one spec per graph generated from the seed.
func pageRankSpecs(seed int64) []*rex.Workload {
	sc := bench.DefaultScale()
	rng := rand.New(rand.NewSource(seed))
	specs := make([]*rex.Workload, pageRankGraphs)
	for i := range specs {
		specs[i] = &rex.Workload{
			Workload: "pagerank", Nodes: sc.Nodes, Seed: rng.Int63(), Size: sc.DBPediaVertices,
			Epsilon: sc.Epsilon, Delta: true, Compaction: true,
		}
	}
	return specs
}

// jobTrace is what the traced form of one job measured.
type jobTrace struct {
	build, load, run, send, self time.Duration
	messages, tuples             int64
}

// graphResult is the first result of one graph's jobs, which every later
// job on that graph must match.
type graphResult struct {
	ranks          map[int64]float64
	hash           string
	strata, newTup int
}

// runPageRank runs PageRank jobs back to back from one client through
// Session.RunWorkload (a closed loop), rotating through the run's graphs.
// Each job builds a fresh engine from its spec: datagen, catalog, plan,
// load, fixpoint.
func runPageRank(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	specs := pageRankSpecs(cfg.seed)
	var sess *rex.Session
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if sess != nil {
			sess.Close()
		}
		t0 := time.Now()
		s, err := rex.Open(ctx, rex.WithInProc(specs[0].Nodes))
		if err != nil {
			return nil, err
		}
		if _, err := s.RunWorkload(ctx, specs[0], nil); err != nil {
			s.Close()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		sess = s
	}
	defer sess.Close()
	rep.set("setup_s", median(setupTimes), len(setupTimes))

	var (
		log             *spanLog
		lat, untraced   series
		traces          []jobTrace
		strataMs        []float64
		first           = make([]*graphResult, len(specs))
		maxJobDiff      float64
		wireBytes       int64
		compIn, compOut int64
		memBefore       memSnap
		kernBefore      exec.KernelStats
		tracedOps       int
	)
	if cfg.trace {
		log = newSpanLog()
		rep.spans = log
	}
	mem := startMemSampler()
	start := time.Now()
	mid, end := start.Add(cfg.seconds/2), start.Add(cfg.seconds)
	// The loop runs past the deadline, by at most a minute, until every
	// graph ran once and, in a traced run, one traced job completed.
	more := func(op int64) bool {
		if time.Now().Before(end) {
			return true
		}
		return time.Since(end) < time.Minute && (op < int64(len(specs)) || (cfg.trace && tracedOps == 0))
	}
	for op := int64(0); more(op); op++ {
		g := int(op % int64(len(specs)))
		traced := cfg.trace && !time.Now().Before(mid)
		if traced && !log.on.Load() {
			memBefore, kernBefore = readMem(), exec.ReadKernelStats()
			log.on.Store(true)
		}
		rep.attempted++
		t0 := time.Now()
		var res *rex.Result
		var jt jobTrace
		var err error
		if traced {
			res, jt, err = tracedPageRank(ctx, specs[g], log, op)
		} else {
			res, err = sess.RunWorkload(ctx, specs[g], nil)
		}
		d := time.Since(t0)
		if err != nil {
			rep.failed++
			fmt.Fprintf(os.Stderr, "perfbench: pagerank job %d: %v\n", op, err)
			continue
		}
		got := &graphResult{ranks: ranks(res), hash: bench.ResultHash(res.Tuples), strata: len(res.Strata)}
		for _, s := range res.Strata {
			got.newTup += s.NewTuples
		}
		if f := first[g]; f == nil {
			first[g] = got
		} else {
			if got.hash != f.hash || got.strata != f.strata || got.newTup != f.newTup {
				rep.mismatch("job %d on graph %d: hash %s strata %d new tuples %d, first job %s %d %d",
					op, g, got.hash, got.strata, got.newTup, f.hash, f.strata, f.newTup)
			}
			maxJobDiff = math.Max(maxJobDiff, rankDiff(f.ranks, got.ranks))
		}
		if !traced {
			if cfg.trace {
				untraced.add(d)
			} else {
				lat.add(d)
			}
			continue
		}
		lat.add(d)
		tracedOps++
		traces = append(traces, jt)
		for _, s := range res.Strata {
			strataMs = append(strataMs, ms(s.Duration))
		}
		wireBytes += res.BytesSent
		compIn += res.CompactIn
		compOut += res.CompactOut
	}
	elapsed := time.Since(start)
	memMB := mem.stop()

	// Ranks are float sums whose order varies between runs, so jobs are
	// compared to 6 significant digits (bench.ResultHash) and the raw
	// difference is reported. The exact counts are means over the graphs,
	// independent of how many jobs each graph ran.
	var hashes []string
	var strata, newTup float64
	for g, f := range first {
		if f == nil {
			return nil, fmt.Errorf("no job on graph %d completed", g)
		}
		hashes = append(hashes, f.hash)
		strata += float64(f.strata) / float64(len(first))
		newTup += float64(f.newTup) / float64(len(first))
	}
	rep.note("result_hash %s", strings.Join(hashes, ","))
	rep.note("max relative rank difference between jobs %.3g", maxJobDiff)
	rep.note("exact strata_per_op %g new_tuples_per_op %g", strata, newTup)

	if cfg.trace {
		log.on.Store(false)
		memAfter, kern := readMem(), exec.ReadKernelStats()
		n := float64(tracedOps)
		var sum jobTrace
		for _, t := range traces {
			sum.build += t.build
			sum.load += t.load
			sum.run += t.run
			sum.send += t.send
			sum.self += t.self
			sum.messages += t.messages
			sum.tuples += t.tuples
		}
		rep.set("job.build_ms_per_op", ms(sum.build)/n, tracedOps)
		rep.set("exec.load_ms_per_op", ms(sum.load)/n, tracedOps)
		rep.set("exec.self_ms_per_op", ms(sum.self)/n, tracedOps)
		rep.set("exec.strata_per_op", strata, len(first))
		rep.set("exec.new_tuples_per_op", newTup, len(first))
		rep.set("exec.stratum_ms_p50", median(strataMs), len(strataMs))
		rep.set("storage.scan_ms_per_read", float64(log.scan.ns.Load())/1e6/n, tracedOps)
		rep.set("cluster.send_ms_per_op", ms(sum.send)/n, tracedOps)
		rep.set("cluster.messages_per_op", float64(sum.messages)/n, tracedOps)
		rep.set("cluster.wire_bytes_per_op", float64(wireBytes)/n, tracedOps)
		rep.set("cluster.bytes_per_delta", ratio(float64(wireBytes), float64(sum.tuples)), int(sum.tuples))
		rep.set("cluster.compact_ratio", ratio(float64(compIn), float64(compOut)), tracedOps)
		rep.setKernelMetrics(kernBefore, kern, tracedOps)
		rep.setGoMetrics(memBefore, memAfter, tracedOps)
		rep.setTraceOverhead(untraced, lat)
	} else {
		rep.setLatency(lat, elapsed)
		rep.set("mem_mb", memMB, mem.samples)
	}

	// Oracle, outside the timed region: the sequential fixpoint of the
	// query the jobs run, per generated graph.
	for g, spec := range specs {
		graph := datagen.DBPediaGraph(spec.Size, spec.Seed)
		want, unrefreshed := listing1Ref(graph, 1e-6, 500)
		got := first[g].ranks
		if len(got) != graph.NumVertices {
			rep.mismatch("graph %d: pagerank returned %d vertices, want %d", g, len(got), graph.NumVertices)
		}
		worst := 0.0
		for v, w := range want {
			worst = math.Max(worst, math.Abs(got[int64(v)]-w)/math.Max(w, 1))
		}
		rep.note("graph %d: max relative error vs reference %.4g (tolerance %g)", g, worst, pageRankTolerance)
		if worst > pageRankTolerance {
			rep.mismatch("graph %d: pagerank deviates from the reference by %.4g", g, worst)
		}
		if unrefreshed > 0 {
			textbook, _ := algos.PageRankRef(graph, 1e-6, 500)
			rep.note("graph %d: vertices without an in-edge, kept at Listing 1's base rank 1.0: %d; textbook PageRank (algos.PageRankRef) differs by up to %.4g",
				g, unrefreshed, maxRelDiff(textbook, want))
		}
	}
	return rep, nil
}

// listing1Ref is the fixpoint of Listing 1, the query pagerank-batch runs,
// by Jacobi iteration until no rank moves by more than eps. The base case
// gives every source rank 1.0; each round sets every vertex with an in-edge
// to 0.15 + 0.85·Σ rank/outdeg over its in-neighbours. A vertex without an
// in-edge is never refreshed and keeps 1.0, where textbook PageRank
// (algos.PageRankRef) gives it 0.15; on graphs where every vertex has an
// in-edge the two are the same iteration. It also returns the number of
// vertices without an in-edge.
func listing1Ref(g *datagen.Graph, eps float64, maxIters int) ([]float64, int) {
	n := g.NumVertices
	adj := g.Adjacency()
	deg := g.OutDegrees()
	indeg := make([]int, n)
	for _, out := range adj {
		for _, u := range out {
			indeg[u]++
		}
	}
	unrefreshed := 0
	for _, d := range indeg {
		if d == 0 {
			unrefreshed++
		}
	}
	pr := make([]float64, n)
	for i := range pr {
		pr[i] = 1.0
	}
	next := make([]float64, n)
	for it := 0; it < maxIters; it++ {
		for i := range next {
			next[i] = 0
		}
		for v := 0; v < n; v++ {
			if deg[v] == 0 {
				continue
			}
			share := pr[v] / float64(deg[v])
			for _, u := range adj[v] {
				next[u] += share
			}
		}
		changed := false
		for v := 0; v < n; v++ {
			if indeg[v] == 0 {
				continue
			}
			nv := (1 - algos.Damping) + algos.Damping*next[v]
			if math.Abs(nv-pr[v]) > eps {
				changed = true
			}
			pr[v] = nv
		}
		if !changed {
			break
		}
	}
	return pr, unrefreshed
}

// maxRelDiff is the largest |a[v] - b[v]| / max(b[v], 1).
func maxRelDiff(a, b []float64) float64 {
	worst := 0.0
	for v := range b {
		worst = math.Max(worst, math.Abs(a[v]-b[v])/math.Max(b[v], 1))
	}
	return worst
}

// ranks maps each vertex of a PageRank result to its rank.
func ranks(res *rex.Result) map[int64]float64 {
	m := make(map[int64]float64, len(res.Tuples))
	for _, t := range res.Tuples {
		id, _ := types.AsInt(t[0])
		v, _ := types.AsFloat(t[1])
		m[id] = v
	}
	return m
}

// rankDiff is the largest relative rank difference between two results.
func rankDiff(a, b map[int64]float64) float64 {
	worst := 0.0
	for id, x := range a {
		worst = math.Max(worst, math.Abs(x-b[id])/math.Max(math.Abs(x), 1))
	}
	return worst
}

// tracedPageRank is Session.RunWorkload's in-process path spelled out —
// job.Spec.Build, exec.NewEngine, Engine.Load, Engine.RunCtx, exactly what
// job.InProcEngine and job.RunInProcCtx call — with spans around each
// call and the engine's stores and transport decorated.
func tracedPageRank(ctx context.Context, w *rex.Workload, log *spanLog, op int64) (*rex.Result, jobTrace, error) {
	var jt jobTrace
	s := *w
	s.Normalize()
	t0 := log.now()
	cat, plan, tables, err := s.Build()
	if err != nil {
		return nil, jt, err
	}
	t1 := log.now()
	eng := exec.NewEngine(s.Nodes, s.VNodes, s.Replication, cat)
	if err := traceStores(eng, log); err != nil {
		return nil, jt, err
	}
	traceTransport(eng, log)
	for _, tb := range tables {
		if err := eng.Load(tb.Name, tb.KeyCol, tb.Tuples); err != nil {
			return nil, jt, err
		}
	}
	t2 := log.now()
	res, err := eng.RunCtx(ctx, plan, s.Options())
	if err != nil {
		return nil, jt, err
	}
	t3 := log.now()

	sends := log.layer("cluster").drain()
	applies := log.layer("storage.apply").drain()
	jt.build, jt.load, jt.run = time.Duration(t1-t0), time.Duration(t2-t1), time.Duration(t3-t2)
	jt.send = time.Duration(union(sends, t2, t3))
	jt.self = jt.run - time.Duration(union(append(sends, applies...), t2, t3))
	m := eng.Transport.Metrics()
	for i := range m.MessagesSent {
		jt.messages += m.MessagesSent[i].Load()
		jt.tuples += m.TuplesSent[i].Load()
	}
	const parent = "pagerank.job"
	log.add(span{Name: parent, Op: op, Start: t0, End: t3})
	log.add(span{Name: "job.build", Op: op, Parent: parent, Start: t0, End: t1})
	log.add(span{Name: "exec.load", Op: op, Parent: parent, Start: t1, End: t2, Calls: len(applies), Busy: busy(applies)})
	log.add(span{Name: "exec.run", Op: op, Parent: parent, Start: t2, End: t3})
	log.add(span{Name: "cluster.send", Op: op, Parent: "exec.run", Start: t2, End: t3, Calls: len(sends), Busy: int64(jt.send)})
	return res, jt, nil
}

// setKernelMetrics reports the expression-kernel counters diffed over the
// measured ops: the share of kernel-capable batches a compiled kernel
// evaluated, and declined batches re-run on the row path per op.
func (r *report) setKernelMetrics(before, after exec.KernelStats, ops int) {
	vec := after.VectorBatches - before.VectorBatches
	all := vec + after.BridgedBatches - before.BridgedBatches + after.FallbackEvals - before.FallbackEvals
	r.set("expr.kernel_batch_share", ratio(float64(vec), float64(all)), int(all))
	r.set("expr.fallback_evals_per_op", ratio(float64(after.FallbackEvals-before.FallbackEvals), float64(ops)), ops)
}
