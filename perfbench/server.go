package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/rex-data/rex"
	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/datagen"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/job"
	"github.com/rex-data/rex/internal/server"
	"github.com/rex-data/rex/internal/srvproto"
	"github.com/rex-data/rex/internal/types"
)

const (
	serverClients = 2
	// serverRows is the staged lineitem size and serverPoolPages each
	// node's buffer pool: about a fifth of the data pages a node holds,
	// so every read pages through the pool.
	serverRows      = 15000
	serverPoolPages = 16
	// Each client's ops run in blocks of serverBlock: serverPoints point
	// lookups, serverAggs aggregates and the rest ingests, shuffled per
	// block.
	serverBlock  = 20
	serverPoints = 15
	serverAggs   = 3
	// serverIngestRows is the number of lineitem rows one ingest inserts.
	serverIngestRows = 4
)

// pointQuery is the prepared point lookup.
const pointQuery = `SELECT linenumber, quantity, extendedprice FROM lineitem WHERE orderkey = $1`

// aggQuery is one ad-hoc aggregate: SELECT <group>, count(*), sum(<sum>)
// FROM lineitem WHERE <where> GROUP BY <group>. match is the same filter
// in Go, for the oracle.
type aggQuery struct {
	group, sum int // lineitem column indexes
	where      string
	match      func(t types.Tuple) bool
}

// lineitem column indexes (datagen.LineItemSchema).
const (
	liOrderKey = iota
	liLineNumber
	liQuantity
	liPrice
	liDiscount
	liTax
	liReturnFlag
	liShipMode
)

// aggQueries are the aggregate texts both clients send. Ingested rows
// (see ingestRow) match none of the filters, so every answer is fixed by
// the generated data while writes run beside the reads.
var aggQueries = []aggQuery{
	{liReturnFlag, liQuantity, "shipmode = 'AIR'", func(t types.Tuple) bool { return t[liShipMode] == "AIR" }},
	{liShipMode, liQuantity, "discount > 0.05", func(t types.Tuple) bool { return t[liDiscount].(float64) > 0.05 }},
	{liLineNumber, liPrice, "tax < 0.02", func(t types.Tuple) bool { return t[liTax].(float64) < 0.02 }},
	{liReturnFlag, liPrice, "quantity >= 25 AND discount < 0.03", func(t types.Tuple) bool {
		return t[liQuantity].(float64) >= 25 && t[liDiscount].(float64) < 0.03
	}},
}

func (a aggQuery) text() string {
	cols := datagen.LineItemSchema
	g := strings.Split(cols[a.group], ":")[0]
	s := strings.Split(cols[a.sum], ":")[0]
	return fmt.Sprintf("SELECT %s, count(*), sum(%s) FROM lineitem WHERE %s GROUP BY %s", g, s, a.where, g)
}

// ingestedShipMode marks ingested rows; no generated row carries it.
const ingestedShipMode = "REG AIR"

// ingestedCheck is the end-of-run aggregate over the ingested rows.
const ingestedCheck = `SELECT returnflag, count(*), sum(quantity) FROM lineitem WHERE shipmode = 'REG AIR' GROUP BY returnflag`

// ingestRow is the k-th ingested lineitem row: a new order key above the
// generated ones, quantity < 25, no discount, tax 0.05.
func ingestRow(maxKey int64, k int) types.Tuple {
	return types.NewTuple(maxKey+int64(k)+1, int64(1), float64(1+k%10), float64(1000+k%997),
		0.0, 0.05, "N", ingestedShipMode)
}

// serverOracle holds the expected answers, computed in Go from the
// generated rows.
type serverOracle struct {
	points map[int64][]types.Tuple // orderkey → (linenumber, quantity, extendedprice)
	keys   []int64
	aggs   [][]types.Tuple
	maxKey int64
}

func newServerOracle(rows []types.Tuple) *serverOracle {
	o := &serverOracle{points: map[int64][]types.Tuple{}}
	for _, t := range rows {
		k := t[liOrderKey].(int64)
		o.points[k] = append(o.points[k], types.NewTuple(t[liLineNumber], t[liQuantity], t[liPrice]))
		o.maxKey = max(o.maxKey, k)
	}
	o.keys = sortedKeys(o.points)
	for _, a := range aggQueries {
		o.aggs = append(o.aggs, aggregate(rows, a.group, a.sum, a.match))
	}
	return o
}

// aggregate computes SELECT group, count(*), sum(sum) ... GROUP BY group.
func aggregate(rows []types.Tuple, group, sum int, match func(types.Tuple) bool) []types.Tuple {
	type acc struct {
		n int64
		s float64
	}
	groups := map[string]*acc{}
	keys := map[string]types.Value{}
	for _, t := range rows {
		if !match(t) {
			continue
		}
		k := fmt.Sprint(t[group])
		if groups[k] == nil {
			groups[k], keys[k] = &acc{}, t[group]
		}
		v, _ := types.AsFloat(t[sum])
		groups[k].n++
		groups[k].s += v
	}
	var out []types.Tuple
	for k, a := range groups {
		out = append(out, types.NewTuple(keys[k], a.n, a.s))
	}
	return out
}

// sameRows compares two results as multisets of rows; floats agree within
// a relative 1e-9 (sums are added in a different order).
func sameRows(got, want []types.Tuple) bool {
	if len(got) != len(want) {
		return false
	}
	key := func(t types.Tuple) string {
		var b strings.Builder
		for _, v := range t {
			if _, ok := v.(float64); !ok {
				fmt.Fprintf(&b, "%v|", v)
			}
		}
		return b.String()
	}
	sortRows := func(ts []types.Tuple) []types.Tuple {
		s := append([]types.Tuple(nil), ts...)
		sort.Slice(s, func(i, j int) bool { return key(s[i]) < key(s[j]) })
		return s
	}
	g, w := sortRows(got), sortRows(want)
	for i := range g {
		if len(g[i]) != len(w[i]) || key(g[i]) != key(w[i]) {
			return false
		}
		for j := range g[i] {
			x, xok := types.AsFloat(g[i][j])
			y, yok := types.AsFloat(w[i][j])
			if xok != yok || math.Abs(x-y) > 1e-9*math.Max(math.Abs(y), 1) {
				return false
			}
		}
	}
	return true
}

// serverRig is one staged server with its client sessions.
type serverRig struct {
	srv     *server.Server
	clients []*rex.Session
	points  []*rex.Stmt
}

func openServerRig(ctx context.Context, dir string, seed int64) (*serverRig, error) {
	srv, err := server.New(server.Config{
		Dataset: "lineitem", Size: serverRows, Seed: seed,
		DataDir: dir, BufferPoolPages: serverPoolPages,
	})
	if err != nil {
		return nil, err
	}
	rig := &serverRig{srv: srv}
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		rig.close()
		return nil, err
	}
	for i := 0; i < serverClients; i++ {
		c, err := rex.Open(ctx, rex.WithServer(ln.Addr().String()))
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.clients = append(rig.clients, c)
		st, err := c.Prepare(pointQuery)
		if err != nil {
			rig.close()
			return nil, fmt.Errorf("prepare: %w", err)
		}
		rig.points = append(rig.points, st)
	}
	return rig, nil
}

func (r *serverRig) close() error {
	var first error
	for _, c := range r.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := r.srv.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// serverOp is one finished client request.
type serverOp struct {
	class   string // point | agg | ingest
	start   time.Time
	latency time.Duration
	err     error
	wrong   string // non-empty when the answer differs from the oracle
}

// serverClient runs one client's closed loop.
type serverClient struct {
	rig    *serverRig
	i      int
	rng    *rand.Rand
	oracle *serverOracle
	// nextRow hands out ingested row numbers across clients.
	nextRow func() int
	plan    []string
}

func (c *serverClient) next() string {
	if len(c.plan) == 0 {
		for i := 0; i < serverBlock; i++ {
			switch {
			case i < serverPoints:
				c.plan = append(c.plan, "point")
			case i < serverPoints+serverAggs:
				c.plan = append(c.plan, "agg")
			default:
				c.plan = append(c.plan, "ingest")
			}
		}
		c.rng.Shuffle(len(c.plan), func(i, j int) { c.plan[i], c.plan[j] = c.plan[j], c.plan[i] })
	}
	class := c.plan[0]
	c.plan = c.plan[1:]
	return class
}

// do runs one op of the given class and checks its answer.
func (c *serverClient) do(ctx context.Context, class string) (serverOp, []types.Tuple) {
	sess := c.rig.clients[c.i]
	op := serverOp{class: class, start: time.Now()}
	var ingested []types.Tuple
	switch class {
	case "point":
		key := c.oracle.keys[c.rng.Intn(len(c.oracle.keys))]
		res, err := c.rig.points[c.i].QueryCtx(ctx, rex.Options{}, key)
		op.latency, op.err = time.Since(op.start), err
		if err == nil && !sameRows(res.Tuples, c.oracle.points[key]) {
			op.wrong = fmt.Sprintf("orderkey %d: got %v, want %v", key, res.Tuples, c.oracle.points[key])
		}
	case "agg":
		q := c.rng.Intn(len(aggQueries))
		res, err := sess.QueryCtx(ctx, aggQueries[q].text())
		op.latency, op.err = time.Since(op.start), err
		if err == nil && !sameRows(res.Tuples, c.oracle.aggs[q]) {
			op.wrong = fmt.Sprintf("%s: got %v, want %v", aggQueries[q].text(), res.Tuples, c.oracle.aggs[q])
		}
	case "ingest":
		for j := 0; j < serverIngestRows; j++ {
			ingested = append(ingested, ingestRow(c.oracle.maxKey, c.nextRow()))
		}
		op.err = sess.Insert("lineitem", ingested...)
		op.latency = time.Since(op.start)
		if op.err != nil {
			ingested = nil
		}
	}
	return op, ingested
}

// runServer drives an in-process rexd over paged stores with two client
// connections, each a closed loop of point lookups, aggregates and
// ingests.
func runServer(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	rows := datagen.LineItems(serverRows, cfg.seed)
	oracle := newServerOracle(rows)
	var (
		rig        *serverRig
		setupTimes []float64
		rowMu      sync.Mutex
		rowSeq     int
	)
	nextRow := func() int {
		rowMu.Lock()
		defer rowMu.Unlock()
		rowSeq++
		return rowSeq
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	newClients := func() []*serverClient {
		var cs []*serverClient
		for i := 0; i < serverClients; i++ {
			cs = append(cs, &serverClient{rig: rig, i: i, rng: rand.New(rand.NewSource(rng.Int63())), oracle: oracle, nextRow: nextRow})
		}
		return cs
	}
	var clients []*serverClient
	var ingested []types.Tuple
	for i := 0; i < setups; i++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("server%d", i))
		t0 := time.Now()
		r, err := openServerRig(ctx, dir, cfg.seed)
		if err != nil {
			return nil, err
		}
		rig = r
		// Warm-up: each client runs a point lookup, an aggregate and an
		// ingest, so plans are cached and every path has run once.
		ingested, rowSeq = nil, 0
		clients = newClients()
		for _, c := range clients {
			for _, class := range []string{"point", "agg", "ingest"} {
				op, ins := c.do(ctx, class)
				if op.err != nil || op.wrong != "" {
					rig.close()
					return nil, fmt.Errorf("warm-up %s: %v %s", class, op.err, op.wrong)
				}
				ingested = append(ingested, ins...)
			}
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer rig.close()
	rep.set("setup_s", median(setupTimes), len(setupTimes))

	// In a traced run the sampler goroutine owns before until sampled.Wait
	// returns: at the midpoint it snapshots the counters, switches the
	// span log on, then samples the admission queue every 20 ms.
	var (
		log    *spanLog
		before struct {
			mem    memSnap
			kern   exec.KernelStats
			stats  srvproto.ServerStats
			depths []float64
		}
		stopSample = make(chan struct{})
		sampled    sync.WaitGroup
	)
	mem := startMemSampler()
	start := time.Now()
	mid, end := start.Add(cfg.seconds/2), start.Add(cfg.seconds)
	if cfg.trace {
		log = newSpanLog()
		rep.spans = log
		if err := traceStores(rig.srv.Session().Engine(), log); err != nil {
			return nil, err
		}
		sampled.Add(1)
		go func() {
			defer sampled.Done()
			select {
			case <-stopSample:
				return
			case <-time.After(time.Until(mid)):
			}
			before.mem, before.kern, before.stats = readMem(), exec.ReadKernelStats(), rig.srv.Stats()
			log.on.Store(true)
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSample:
					return
				case <-tick.C:
					st := rig.srv.Stats()
					before.depths = append(before.depths, float64(st.Inflight+st.QueueDepth))
				}
			}
		}()
	}
	var (
		mu  sync.Mutex
		ops []serverOp
		wg  sync.WaitGroup
	)
	for _, c := range clients {
		wg.Add(1)
		go func(c *serverClient) {
			defer wg.Done()
			for time.Now().Before(end) {
				op, ins := c.do(ctx, c.next())
				mu.Lock()
				ops = append(ops, op)
				ingested = append(ingested, ins...)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	memMB := mem.stop()
	close(stopSample)
	sampled.Wait()
	if cfg.trace {
		log.on.Store(false)
	}

	var lat, untraced series
	byClass := map[string]*series{"point": {}, "agg": {}, "ingest": {}}
	refused, tracedOps, tracedWrites, tracedRefused := 0, 0, 0, 0
	for id, op := range ops {
		rep.attempted++
		isRefused := errors.Is(op.err, rex.ErrServerBusy) || errors.Is(op.err, rex.ErrTenantBusy)
		switch {
		case isRefused:
			refused++
			rep.failed++
		case op.err != nil:
			rep.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", op.class, op.err)
		case op.wrong != "":
			rep.mismatch("%s", op.wrong)
		}
		isTraced := cfg.trace && !op.start.Before(mid)
		if isTraced {
			tracedOps++
			if op.class == "ingest" {
				tracedWrites++
			}
			if isRefused {
				tracedRefused++
			}
			s := op.start.Sub(log.start).Nanoseconds()
			log.add(span{Name: "server." + op.class, Op: int64(id), Start: s, End: s + op.latency.Nanoseconds()})
		}
		if op.err != nil {
			continue
		}
		switch {
		case !cfg.trace:
			lat = append(lat, ms(op.latency))
			*byClass[op.class] = append(*byClass[op.class], ms(op.latency))
		case isTraced:
			lat = append(lat, ms(op.latency))
		default:
			untraced = append(untraced, ms(op.latency))
		}
	}
	for _, class := range []string{"point", "agg", "ingest"} {
		if l := *byClass[class]; len(l) > 0 {
			rep.note("%s_p50_ms %.4g %s_p90_ms %.4g (n=%d)", class, l.quantile(0.5), class, l.quantile(0.9), len(l))
		}
	}

	if cfg.trace {
		memAfter, kern, stat := readMem(), exec.ReadKernelStats(), rig.srv.Stats()
		nodes := float64(rig.srv.Session().Nodes())
		scans := float64(log.scan.calls.Load())
		rep.set("storage.scan_ms_per_read", ratio(nodes*float64(log.scan.ns.Load())/1e6, scans), int(scans))
		applies := log.layer("storage.apply").drain()
		rep.set("storage.apply_ms_per_write", ratio(float64(busy(applies))/1e6, float64(tracedWrites)), tracedWrites)
		hits, misses := stat.PoolHits-before.stats.PoolHits, stat.PoolMisses-before.stats.PoolMisses
		rep.set("storage.pool_hit_rate", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
		rep.set("storage.evictions_per_op", ratio(float64(stat.PoolEvictions-before.stats.PoolEvictions), float64(tracedOps)), tracedOps)
		rep.set("storage.spilled_bytes_per_op", ratio(float64(stat.PoolBytesSpilled-before.stats.PoolBytesSpilled), float64(tracedOps)), tracedOps)
		ch, cm := stat.PlanCacheHits-before.stats.PlanCacheHits, stat.PlanCacheMisses-before.stats.PlanCacheMisses
		rep.set("server.plan_cache_hit_rate", ratio(float64(ch), float64(ch+cm)), int(ch+cm))
		rep.set("server.compiles_per_op", ratio(float64(stat.Compiles-before.stats.Compiles), float64(tracedOps)), tracedOps)
		mean := 0.0
		for _, d := range before.depths {
			mean += d / float64(len(before.depths))
		}
		rep.set("server.queue_depth_mean", mean, len(before.depths))
		rep.set("server.refused_share", ratio(float64(tracedRefused), float64(tracedOps)), tracedOps)
		texts := []string{pointQuery}
		for _, a := range aggQueries {
			texts = append(texts, a.text())
		}
		us, err := compileMicros(texts, lineitemCatalog)
		if err != nil {
			return nil, err
		}
		rep.set("rql.compile_us", us, len(texts))
		rep.setKernelMetrics(before.kern, kern, tracedOps)
		rep.setGoMetrics(before.mem, memAfter, tracedOps)
		rep.setTraceOverhead(untraced, lat)
	} else {
		rep.setLatency(lat, elapsed)
		rep.set("mem_mb", memMB, mem.samples)
	}

	// Oracle over the ingested rows, outside the timed region: their
	// aggregate and a point lookup of the first and last ingested order.
	res, err := rig.clients[0].QueryCtx(ctx, ingestedCheck)
	if err != nil {
		return nil, fmt.Errorf("ingest check: %w", err)
	}
	want := aggregate(ingested, liReturnFlag, liQuantity, func(types.Tuple) bool { return true })
	if !sameRows(res.Tuples, want) {
		rep.mismatch("ingested rows: got %v, want %v", res.Tuples, want)
	}
	sort.Slice(ingested, func(i, j int) bool { return ingested[i][liOrderKey].(int64) < ingested[j][liOrderKey].(int64) })
	for _, t := range []types.Tuple{ingested[0], ingested[len(ingested)-1]} {
		key := t[liOrderKey].(int64)
		res, err := rig.points[0].QueryCtx(ctx, rex.Options{}, key)
		if err != nil {
			return nil, fmt.Errorf("ingested point check: %w", err)
		}
		want := []types.Tuple{types.NewTuple(t[liLineNumber], t[liQuantity], t[liPrice])}
		if !sameRows(res.Tuples, want) {
			rep.mismatch("ingested orderkey %d: got %v, want %v", key, res.Tuples, want)
		}
	}
	rep.note("%d rows ingested, %d refused ops", len(ingested), refused)
	return rep, nil
}

// lineitemCatalog declares the lineitem dataset's table.
func lineitemCatalog() (*catalog.Catalog, error) {
	cat := catalog.New()
	return cat, job.StageSchemas(cat, "lineitem", serverRows)
}
