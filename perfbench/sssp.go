package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rex-data/rex"
	"github.com/rex-data/rex/internal/algos"
	"github.com/rex-data/rex/internal/bench"
	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/datagen"
	"github.com/rex-data/rex/internal/job"
	"github.com/rex-data/rex/internal/rql"
	"github.com/rex-data/rex/internal/types"
)

const (
	// ssspDaemons is the TCP cluster size: one rexnode daemon per CPU of
	// a 2-CPU machine.
	ssspDaemons = 2
	// ssspBatch is the number of edges one ingest inserts.
	ssspBatch = 4
	// ssspWindow is how many ingests the writer keeps in flight.
	ssspWindow = 2
	// ssspWarmup is the number of ingests set-up runs before timing.
	ssspWarmup = 200
)

// standing is one subscribed session of the sssp-standing workload: a
// resident IncSSSPQuery dataflow on auto-spawned rexnode daemons, with a
// reader folding its output stream into the current distance view.
type standing struct {
	sess *rex.Session
	sub  *rex.Subscription
	// view is written by the reader goroutine only; read it after
	// readerDone is closed.
	view       map[int64]float64
	folded     atomic.Int64 // output batches folded so far
	readerDone chan struct{}
	edges      []types.Tuple // every edge ingested, in order

	unsubscribed bool
}

// openStanding spawns the daemons as this binary in -node mode; each
// writes the median of its memory into memDir when it exits.
func openStanding(ctx context.Context, size int, seed int64, memDir string) (*standing, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(memDir, 0o755); err != nil {
		return nil, err
	}
	sess, err := rex.Open(ctx, rex.WithAutoSpawn(ssspDaemons), rex.WithSpawnCommand(exe, "-node", "-mem-dir", memDir),
		rex.WithDataset("sssp", size, seed), rex.WithHandlers("sssp-inc"))
	if err != nil {
		return nil, err
	}
	sub, err := sess.Subscribe(ctx, algos.IncSSSPQuery, rex.WithMaxStrata(300), rex.WithCompaction(0))
	if err != nil {
		sess.Close()
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	st := &standing{sess: sess, sub: sub, view: map[int64]float64{}, readerDone: make(chan struct{})}
	go st.read()
	return st, nil
}

// read folds the subscription stream until it closes: each delta sets or
// removes its vertex's distance.
func (st *standing) read() {
	defer close(st.readerDone)
	stream := st.sub.Stream()
	for {
		b, ok := stream.Next()
		if !ok {
			return
		}
		for _, d := range b.Deltas {
			switch d.Op {
			case types.OpDelete:
				delete(st.view, vertex(d.Tup))
			case types.OpReplace:
				delete(st.view, vertex(d.Old))
				st.view[vertex(d.Tup)] = distance(d.Tup)
			default:
				st.view[vertex(d.Tup)] = distance(d.Tup)
			}
		}
		st.folded.Add(1)
	}
}

func vertex(t types.Tuple) int64 {
	v, _ := types.AsInt(t[0])
	return v
}

func distance(t types.Tuple) float64 {
	d, _ := types.AsFloat(t[1])
	return d
}

// ingestOp is one acknowledged ingest.
type ingestOp struct {
	start   time.Time
	latency time.Duration
	round   rex.RoundStats
}

// drive is the writer: it inserts random ssspBatch-edge batches, keeping
// at most ssspWindow IngestAsync calls in flight, until n ingests were
// sent or the deadline passed. Each acknowledged ingest goes to done.
func (st *standing) drive(ctx context.Context, rng *rand.Rand, size, n int, deadline time.Time, done func(ingestOp)) (attempted, failed int) {
	type pending struct {
		start time.Time
		ack   *rex.IngestAck
	}
	slots := make(chan struct{}, ssspWindow)
	acks := make(chan pending, ssspWindow) // never blocks: slots bounds the ingests in flight
	var wg sync.WaitGroup
	var mu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p := range acks {
			rs, err := p.ack.Wait(ctx)
			d := time.Since(p.start)
			<-slots
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: ingest ack: %v\n", err)
				mu.Lock()
				failed++
				mu.Unlock()
				continue
			}
			done(ingestOp{p.start, d, *rs})
		}
	}()
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		slots <- struct{}{}
		deltas := make([]rex.Delta, ssspBatch)
		edges := make([]types.Tuple, ssspBatch)
		for j := range deltas {
			edges[j] = types.NewTuple(int64(rng.Intn(size)), int64(rng.Intn(size)))
			deltas[j] = rex.Insert(edges[j])
		}
		attempted++
		start := time.Now()
		ack, err := st.sess.IngestAsync("graph", deltas)
		if err != nil {
			<-slots
			fmt.Fprintf(os.Stderr, "perfbench: ingest: %v\n", err)
			mu.Lock()
			failed++
			mu.Unlock()
			continue
		}
		st.edges = append(st.edges, edges...)
		acks <- pending{start, ack}
	}
	close(acks)
	wg.Wait()
	return attempted, failed
}

// catchUp waits until the reader has folded every batch the subscription
// has produced so far.
func (st *standing) catchUp() error {
	var want int64
	for _, r := range st.sub.Rounds() {
		want += int64(r.Batches)
	}
	deadline := time.Now().Add(30 * time.Second)
	for st.folded.Load() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("reader folded %d of %d batches", st.folded.Load(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// unsubscribe closes the subscription and waits for the reader to finish
// folding. It is safe to call more than once.
func (st *standing) unsubscribe() error {
	if st.unsubscribed {
		return nil
	}
	st.unsubscribed = true
	err := st.sub.Close()
	<-st.readerDone
	return err
}

// close unsubscribes and closes the session, which stops the daemons.
// It is safe to call more than once.
func (st *standing) close() error {
	err := st.unsubscribe()
	if st.sess != nil {
		if cerr := st.sess.Close(); err == nil {
			err = cerr
		}
		st.sess = nil
	}
	return err
}

// runSSSP keeps a standing shortest-path subscription fed with edge
// inserts from one writer while one reader folds its output stream.
func runSSSP(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	size := bench.DefaultScale().DBPediaVertices
	rng := rand.New(rand.NewSource(cfg.seed))
	var st *standing
	var setupTimes []float64
	var memDir string
	for i := 0; i < setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		memDir = filepath.Join(cfg.workDir, fmt.Sprintf("daemons%d", i))
		s, err := openStanding(ctx, size, cfg.seed, memDir)
		if err != nil {
			return nil, err
		}
		st = s
		if _, failed := st.drive(ctx, rng, size, ssspWarmup, time.Now().Add(time.Minute), func(ingestOp) {}); failed > 0 {
			st.close()
			return nil, fmt.Errorf("%d warm-up ingests failed", failed)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer st.close()
	rep.set("setup_s", median(setupTimes), len(setupTimes))

	var (
		log           *spanLog
		lat, untraced series
		traced        []ingestOp
		memBefore     memSnap
		mu            sync.Mutex
	)
	if cfg.trace {
		log = newSpanLog()
		rep.spans = log
	}
	mem := startMemSampler()
	start := time.Now()
	mid, end := start.Add(cfg.seconds/2), start.Add(cfg.seconds)
	var midTimer *time.Timer
	if cfg.trace {
		midTimer = time.AfterFunc(mid.Sub(start), func() {
			mu.Lock()
			memBefore = readMem()
			log.on.Store(true)
			mu.Unlock()
		})
	}
	attempted, failed := st.drive(ctx, rng, size, 1<<62, end, func(op ingestOp) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case !cfg.trace:
			lat.add(op.latency)
		case op.start.Before(mid):
			untraced.add(op.latency)
		default:
			lat.add(op.latency)
			traced = append(traced, op)
			s := op.start.Sub(log.start).Nanoseconds()
			e := s + op.latency.Nanoseconds()
			id := int64(len(traced))
			log.add(span{Name: "sssp.ingest", Op: id, Start: s, End: e})
			log.add(span{Name: "exec.round", Op: id, Parent: "sssp.ingest", Start: e - op.round.Duration.Nanoseconds(), End: e})
		}
	})
	elapsed := time.Since(start)
	memMB := mem.stop()
	if midTimer != nil {
		midTimer.Stop()
	}
	rep.attempted, rep.failed = attempted, failed
	if err := st.catchUp(); err != nil {
		return nil, err
	}

	if cfg.trace {
		mu.Lock()
		log.on.Store(false)
		memAfter := readMem()
		mu.Unlock()
		rounds := map[int]rex.RoundStats{}
		var waits []float64
		for _, op := range traced {
			rounds[op.round.Round] = op.round
			waits = append(waits, ms(op.latency-op.round.Duration))
		}
		var durs []float64
		var ingests, staged, folded int
		var ingestBytes, wireBytes int64
		for _, r := range rounds {
			durs = append(durs, ms(r.Duration))
			ingests += r.Ingests
			staged += r.IngestedDeltas
			folded += r.CoalescedDeltas
			ingestBytes += r.IngestBytes
			wireBytes += r.BytesSent
		}
		n := len(traced)
		rep.set("exec.round_ms_p50", median(durs), len(durs))
		rep.set("exec.round_wait_ms_p50", median(waits), len(waits))
		rep.set("exec.ingests_per_round", ratio(float64(ingests), float64(len(rounds))), len(rounds))
		rep.set("exec.coalesce_ratio", ratio(float64(staged), float64(folded)), len(rounds))
		rep.set("cluster.ingest_bytes_per_op", ratio(float64(ingestBytes), float64(n)), n)
		rep.set("cluster.wire_bytes_per_op", ratio(float64(wireBytes), float64(n)), n)
		us, err := compileMicros([]string{algos.IncSSSPQuery}, ssspCatalog)
		if err != nil {
			return nil, err
		}
		rep.set("rql.compile_us", us, 1)
		rep.setGoMetrics(memBefore, memAfter, n)
		rep.setTraceOverhead(untraced, lat)
	} else {
		rep.setLatency(lat, elapsed)
	}

	// Oracles, outside the timed region: the folded view must equal a
	// from-scratch query over the revised tables and BFS hop distances
	// over the generated graph plus every ingested edge.
	if err := st.unsubscribe(); err != nil {
		return nil, err
	}
	res, err := st.sess.QueryCtx(ctx, algos.IncSSSPQuery, rex.WithMaxStrata(300))
	if err != nil {
		return nil, fmt.Errorf("fresh query: %w", err)
	}
	fresh := map[int64]float64{}
	for _, t := range res.Tuples {
		fresh[vertex(t)] = distance(t)
	}
	if diff := mapDiff(st.view, fresh); diff != "" {
		rep.mismatch("folded view vs fresh query: %s", diff)
	}
	g := datagen.DBPediaGraph(size, cfg.seed)
	g.Edges = append(g.Edges, st.edges...)
	bfs := map[int64]float64{}
	for v, d := range algos.BFSRef(g, 0) {
		if d >= 0 {
			bfs[int64(v)] = float64(d)
		}
	}
	if diff := mapDiff(st.view, bfs); diff != "" {
		rep.mismatch("folded view vs BFS reference: %s", diff)
	}
	rep.note("result_hash %s (%d reached vertices, %d edges ingested)", bench.ResultHash(res.Tuples), len(fresh), len(st.edges))
	if err := st.close(); err != nil {
		return nil, err
	}
	if !cfg.trace {
		daemons, err := daemonMemMB(memDir)
		if err != nil {
			return nil, err
		}
		rep.set("mem_mb", memMB+daemons, mem.samples)
	}
	return rep, nil
}

// daemonMemMB sums the memory medians the daemons wrote into dir.
func daemonMemMB(dir string) (float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.mb"))
	if err != nil {
		return 0, err
	}
	if len(files) != ssspDaemons {
		return 0, fmt.Errorf("%d daemon memory reports in %s, want %d", len(files), dir, ssspDaemons)
	}
	total := 0.0
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return 0, err
		}
		mb, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return 0, fmt.Errorf("daemon memory report %s: %w", f, err)
		}
		total += mb
	}
	return total, nil
}

// mapDiff describes the first difference between two vertex → distance
// maps ("" when equal).
func mapDiff(got, want map[int64]float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d vertices, want %d", len(got), len(want))
	}
	for _, v := range sortedKeys(want) {
		if g, ok := got[v]; !ok || g != want[v] {
			return fmt.Sprintf("vertex %d has %v (present %v), want %v", v, g, ok, want[v])
		}
	}
	return ""
}

// ssspCatalog declares the sssp dataset's tables and the sssp-inc
// handlers, as every process of the workload does before compiling.
func ssspCatalog() (*catalog.Catalog, error) {
	cat := catalog.New()
	if err := job.StageSchemas(cat, "sssp", bench.DefaultScale().DBPediaVertices); err != nil {
		return nil, err
	}
	return cat, job.RegisterBundle(cat, "sssp-inc")
}

// compileMicros times rql.CompileStmt (parse, bind, optimise) of each
// query text against a fresh catalog and returns the mean in µs.
func compileMicros(texts []string, newCatalog func() (*catalog.Catalog, error)) (float64, error) {
	var total time.Duration
	for _, src := range texts {
		cat, err := newCatalog()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if _, _, err := rql.CompileStmt(src, cat, 4); err != nil {
			return 0, fmt.Errorf("compile %q: %w", src, err)
		}
		total += time.Since(t0)
	}
	return float64(total) / float64(time.Microsecond) / float64(len(texts)), nil
}
