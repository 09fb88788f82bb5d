package rex

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/job"
	"github.com/rex-data/rex/internal/rql"
	"github.com/rex-data/rex/internal/srvproto"
	"github.com/rex-data/rex/internal/storage"
	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/uda"
)

// config collects the functional-option state of Open.
type config struct {
	nodes       int
	inproc      bool // WithInProc called explicitly
	replication int
	vnodes      int

	// transport selection; exactly one of these shapes the session.
	peers     []string // WithTCPPeers
	autospawn int      // WithAutoSpawn
	spawnBin  string
	spawnArgs []string

	// staged dataset (required for RQL over TCP, optional in-process).
	dataset     string
	datasetSize int
	datasetSeed int64

	// handlers names a delta-handler bundle registered on every process.
	handlers string

	// spillDir backs in-process stores with paged spill-to-disk files;
	// poolPages sizes the buffer pool (also shipped in TCP job specs).
	spillDir  string
	poolPages int

	// serverAddr selects the rexd client transport (WithServer);
	// serverTenant is the session's default tenant id, announced in the
	// hello frame.
	serverAddr   string
	serverTenant string
}

// Option configures Open.
type Option func(*config)

// WithInProc selects the in-process transport with n worker nodes (the
// default, with n=4): every node is an event loop on a goroutine and links
// are mailboxes carrying encoded frames.
func WithInProc(n int) Option {
	return func(c *config) { c.nodes = n; c.inproc = true }
}

// WithTCPPeers selects the TCP transport over already-running rexnode
// worker daemons. The address order fixes node ids: addrs[0] is node 0.
func WithTCPPeers(addrs ...string) Option {
	return func(c *config) { c.peers = append([]string(nil), addrs...) }
}

// WithAutoSpawn selects the TCP transport and spawns n local worker-daemon
// child processes. By default the session re-executes the current binary
// with a "-node" flag — programs using it must run ServeNode when invoked
// that way (see examples/quickstart) — or name any binary that does via
// WithSpawnCommand. Close tears the children down.
func WithAutoSpawn(n int) Option {
	return func(c *config) { c.autospawn = n }
}

// WithSpawnCommand overrides the binary and arguments WithAutoSpawn
// launches for each worker daemon.
func WithSpawnCommand(bin string, args ...string) Option {
	return func(c *config) { c.spawnBin = bin; c.spawnArgs = append([]string(nil), args...) }
}

// WithReplication sets the storage/checkpoint replication factor
// (default 3).
func WithReplication(r int) Option {
	return func(c *config) { c.replication = r }
}

// WithVirtualNodes sets the virtual nodes per worker on the consistent-hash
// ring (default 64).
func WithVirtualNodes(v int) Option {
	return func(c *config) { c.vnodes = v }
}

// WithDataset stages one of the named deterministic datasets (dbpedia,
// twitter, lineitem, points) generated from (size, seed). On a TCP session
// this is how queries get data at all — every worker daemon regenerates
// its own partition from the same parameters, so no tuples cross the wire.
// On an in-process session it stages the identical tables, making results
// comparable across transports.
func WithDataset(name string, size int, seed int64) Option {
	return func(c *config) { c.dataset = name; c.datasetSize = size; c.datasetSeed = seed }
}

// WithServer connects the session to a running rexd query server
// (cmd/rexd) instead of owning an engine: Query/Stream/Prepare/Subscribe
// and the ingestion APIs route transparently over one multiplexed
// connection, and the server schedules the work on its shared worker
// pool alongside every other client session. The server owns the
// catalog, datasets, and handler bundles, so WithServer cannot be
// combined with the engine-shaping options (WithInProc, WithTCPPeers,
// WithAutoSpawn, WithDataset, WithHandlers). Admission rejections
// surface as ErrServerBusy.
func WithServer(addr string) Option {
	return func(c *config) { c.serverAddr = addr }
}

// WithServerTenant sets the session's default tenant id on a server
// session: it is announced in the connection handshake and every request
// the session issues schedules under that tenant's admission quota and
// fairness lane unless a per-query WithTenant overrides it. Requires
// WithServer.
func WithServerTenant(id string) Option {
	return func(c *config) { c.serverTenant = id }
}

// WithSpillDir backs the in-process session's stores with the paged
// storage subsystem under dir: table state lives in slotted page files,
// a buffer pool (see WithBufferPoolPages) keeps the hot working set in
// RAM, and datasets larger than memory spill to disk instead of growing
// the heap. Session.Close flushes dirty pages and seals a durable
// checkpoint image. In-process sessions only — TCP daemons place their
// paged stores under their own rexnode -data-dir.
func WithSpillDir(dir string) Option {
	return func(c *config) { c.spillDir = dir }
}

// WithBufferPoolPages sizes the paged-store buffer pool in 8 KiB pages
// (0 = the default). On an in-process session it takes effect with
// WithSpillDir; on a TCP session it crosses the wire in each job spec so
// one knob pins the working-set budget cluster-wide.
func WithBufferPoolPages(n int) Option {
	return func(c *config) { c.poolPages = n }
}

// WithHandlers registers a named delta-handler bundle ("pagerank",
// "sssp-inc") at Open. Go closures cannot cross process boundaries, so TCP
// sessions can only use handlers both sides know by name: the bundle name
// travels in each job spec and every rexnode daemon registers the same
// handlers before compiling the query. On an in-process session the same
// bundle is registered into the local catalog, keeping RQL text portable
// across transports.
func WithHandlers(bundle string) Option {
	return func(c *config) { c.handlers = bundle }
}

// Session is a running REX deployment: a catalog plus worker nodes with
// partitioned, replicated storage — in this process (WithInProc) or as
// rexnode daemons over TCP (WithTCPPeers, WithAutoSpawn). One session runs
// queries sequentially; concurrent calls serialize on an internal lock.
type Session struct {
	mu  sync.Mutex
	cfg config

	// in-process deployments
	cat *catalog.Catalog
	eng *exec.Engine

	// TCP deployments
	jc *job.Cluster
	// schemaCat mirrors the staged dataset's schemas (plus the handler
	// bundle) for driver-side validation — built once at Open; the daemons
	// rebuild their real catalogs per job.
	schemaCat *catalog.Catalog

	// server sessions (WithServer): the multiplexed rexd connection.
	srv *serverConn

	// streamMu guards stream and sub — whichever currently holds mu (see
	// unlockWhenDone / adoptStanding). Close cancels them so an abandoned
	// stream or subscription cannot park the session lock forever.
	streamMu sync.Mutex
	stream   *exec.ResultStream
	sub      *Subscription

	// logMu guards ingestLog, the TCP session's base-table change log:
	// every accepted Insert/Delete/LoadDeltas is appended and replayed into
	// each subsequent job spec, so daemons — which regenerate data per
	// job — rebuild the revised tables. The log is kept compacted: each
	// table's deltas fold to their net effect (insert+delete annihilation,
	// replace-chain folding) whenever a fold threshold of raw appends
	// accumulates, and again at snapshot time, so the log — and with it
	// every job spec — stays bounded by the net change under churn.
	logMu     sync.Mutex
	ingestLog map[string]*tableLog
	logOrder  []string

	closed bool
}

// tableLog is one table's slice of the session change log.
type tableLog struct {
	keyCol    int
	deltas    []types.Delta
	sinceFold int
}

// ingestLogFoldEvery is the raw-append count after which a table's log
// refolds. Folding is O(appends since last fold + live entries), so the
// amortized cost per append is O(1) while the retained length stays within
// one threshold of the net change.
const ingestLogFoldEvery = 64

// fold compacts the table's log to its net effect via the shuffle
// compactor's same-key rules.
func (tl *tableLog) fold() {
	key := tl.keyCol
	c := cluster.NewCompactor(func(t types.Tuple) types.Value {
		if key < len(t) {
			return t[key]
		}
		return nil
	}, nil)
	for _, d := range tl.deltas {
		c.Add(d)
	}
	tl.deltas = c.Drain()
	tl.sinceFold = 0
}

// Open boots a session. With no options it is an in-process 4-node
// cluster:
//
//	s, err := rex.Open(ctx, rex.WithInProc(4))
//	defer s.Close()
//
// With a TCP option the same session API drives worker processes over
// real sockets:
//
//	s, err := rex.Open(ctx, rex.WithTCPPeers("h1:7101", "h2:7101"),
//		rex.WithDataset("dbpedia", 2000, 1))
func Open(ctx context.Context, opts ...Option) (*Session, error) {
	cfg := config{nodes: 4, replication: 3, vnodes: 64}
	for _, o := range opts {
		o(&cfg)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(cfg.peers) > 0 && cfg.autospawn > 0 {
		return nil, fmt.Errorf("rex: WithTCPPeers and WithAutoSpawn are mutually exclusive")
	}
	if cfg.inproc && (len(cfg.peers) > 0 || cfg.autospawn > 0) {
		return nil, fmt.Errorf("rex: WithInProc cannot be combined with WithTCPPeers/WithAutoSpawn")
	}
	if cfg.serverAddr != "" && (cfg.inproc || len(cfg.peers) > 0 || cfg.autospawn > 0 || cfg.dataset != "" || cfg.handlers != "") {
		return nil, fmt.Errorf("rex: WithServer cannot be combined with engine options (the rexd server owns the pool, datasets, and handlers)")
	}
	if cfg.spawnBin != "" && cfg.autospawn == 0 {
		return nil, fmt.Errorf("rex: WithSpawnCommand requires WithAutoSpawn")
	}
	if cfg.serverTenant != "" && cfg.serverAddr == "" {
		return nil, fmt.Errorf("rex: WithServerTenant requires WithServer (tenancy is a rexd scheduling concept)")
	}
	if cfg.spillDir != "" && (cfg.serverAddr != "" || len(cfg.peers) > 0 || cfg.autospawn > 0) {
		return nil, fmt.Errorf("rex: WithSpillDir is in-process only (rexnode daemons page under their own -data-dir)")
	}
	if cfg.handlers != "" {
		// Validate the bundle name eagerly on every transport; TCP daemons
		// register it per job from the spec.
		if err := job.RegisterBundle(catalog.New(), cfg.handlers); err != nil {
			return nil, err
		}
	}
	s := &Session{cfg: cfg}
	switch {
	case cfg.serverAddr != "":
		srv, err := dialServer(ctx, cfg.serverAddr, cfg.serverTenant)
		if err != nil {
			return nil, err
		}
		s.srv = srv
	case len(cfg.peers) > 0:
		jc, err := job.Connect(cfg.peers)
		if err != nil {
			return nil, err
		}
		s.jc = jc
		if err := s.buildSchemaCat(); err != nil {
			jc.Close()
			return nil, err
		}
	case cfg.autospawn > 0:
		bin, args := cfg.spawnBin, cfg.spawnArgs
		if bin == "" {
			bin, args = os.Args[0], []string{"-node"}
		}
		jc, err := job.SpawnLocal(cfg.autospawn, bin, args)
		if err != nil {
			return nil, err
		}
		s.jc = jc
		if err := s.buildSchemaCat(); err != nil {
			jc.Close()
			return nil, err
		}
	default:
		if cfg.nodes <= 0 {
			cfg.nodes = 4
		}
		s.cfg = cfg
		s.cat = catalog.New()
		s.eng = exec.NewEngine(cfg.nodes, cfg.vnodes, cfg.replication, s.cat)
		if cfg.spillDir != "" {
			if err := s.eng.UseSpill(cfg.spillDir, cfg.poolPages); err != nil {
				return nil, err
			}
		}
		if cfg.handlers != "" {
			if err := job.RegisterBundle(s.cat, cfg.handlers); err != nil {
				return nil, err
			}
		}
		if cfg.dataset != "" {
			tables, err := job.StageDataset(s.cat, cfg.dataset, cfg.datasetSize, cfg.datasetSeed)
			if err != nil {
				return nil, err
			}
			for _, tb := range tables {
				if err := s.loadLocked(tb.Name, tb.Tuples); err != nil {
					return nil, err
				}
			}
		}
	}
	return s, nil
}

// Close tears the session down: in-process mailboxes are closed; TCP
// connections are shut and daemons the session spawned are terminated and
// reaped. Close waits for an in-flight query to finish; a live DeltaStream
// (consumed or abandoned) is cancelled first, so Close never deadlocks
// behind a stream nobody is draining.
func (s *Session) Close() error {
	// Win s.mu without ever parking on it: the lock is held for a
	// stream's whole life, and a Stream call racing us registers its
	// stream only after acquiring the lock, so blocking on Lock() could
	// wait forever behind a stream we looked for too early. Re-check and
	// cancel until TryLock succeeds — once it does, no stream is live.
	for {
		s.streamMu.Lock()
		st, sub := s.stream, s.sub
		s.streamMu.Unlock()
		if st != nil {
			st.Close() // cancel + drain + wait; releases s.mu via unlockWhenDone
			continue
		}
		if sub != nil {
			sub.Close() // tear the standing dataflow down; releases s.mu
			continue
		}
		if s.mu.TryLock() {
			break
		}
		time.Sleep(time.Millisecond) // a buffered query run; wait it out
	}
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	switch {
	case s.srv != nil:
		return s.srv.close()
	case s.jc != nil:
		s.jc.Close()
		return nil
	default:
		err := s.eng.Transport.Close()
		// Flush after the workers are gone: dirty pages are sealed into
		// each paged store's checkpoint image (no-op without WithSpillDir).
		if serr := s.eng.CloseStores(); err == nil {
			err = serr
		}
		return err
	}
}

// lock acquires the session for one query, rejecting closed sessions
// with ErrSessionClosed.
func (s *Session) lock() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSessionClosed
	}
	return nil
}

// Nodes reports the worker count (the server's pool size on a server
// session).
func (s *Session) Nodes() int {
	if s.srv != nil {
		return s.srv.nodes
	}
	if s.jc != nil {
		return len(s.jc.Addrs())
	}
	return s.cfg.nodes
}

// transport returns the session's cluster transport.
func (s *Session) transport() cluster.Transport {
	if s.jc != nil {
		return s.jc.Transport()
	}
	return s.eng.Transport
}

// Catalog exposes the catalog for registering user-defined functions,
// aggregators, and delta handlers. Nil on TCP sessions — remote daemons
// rebuild their catalogs from job specs, so Go closures registered here
// could never reach them.
func (s *Session) Catalog() *catalog.Catalog { return s.cat }

// Engine exposes the underlying executor of an in-process session (nil on
// TCP sessions).
func (s *Session) Engine() *exec.Engine { return s.eng }

// inprocOnly guards the APIs that need local storage and a local catalog.
func (s *Session) inprocOnly(what string) error {
	if s.srv != nil {
		return fmt.Errorf("rex: %s is not available on a server session (the rexd server owns the catalog and engine)", what)
	}
	if s.jc != nil {
		return fmt.Errorf("rex: %s is not available on a TCP session (workers rebuild state from job specs; stage data with WithDataset or run a Workload)", what)
	}
	return nil
}

// CreateTable declares a table hash-partitioned by the given column. On
// a server session the declaration lands in the server's shared catalog
// (and bumps its version, invalidating cached plans).
func (s *Session) CreateTable(name string, schema *types.Schema, partitionKey int) error {
	if s.srv != nil {
		fields := make([]string, schema.Len())
		for i, f := range schema.Fields {
			fields[i] = f.Name + ":" + f.Kind.String()
		}
		_, err := s.srv.roundTrip(context.Background(), srvproto.Request{
			Op: srvproto.OpCreateTable, Table: name, Fields: fields, Key: partitionKey,
		})
		return err
	}
	if err := s.inprocOnly("CreateTable"); err != nil {
		return err
	}
	return s.cat.AddTable(&catalog.Table{Name: name, Schema: schema, PartitionKey: partitionKey})
}

// CatalogVersion reports the session's schema version: the catalog's on
// an in-process session, the staged schema catalog's over TCP, 0 on a
// server session (the server tracks its own; see ServerStats). Plan
// caches key on it.
func (s *Session) CatalogVersion() int64 {
	switch {
	case s.cat != nil:
		return s.cat.Version()
	case s.schemaCat != nil:
		return s.schemaCat.Version()
	default:
		return 0
	}
}

// Load distributes tuples into the table's replicated partitions. It works
// on every transport: in-process the tuples go straight to the replicated
// stores; on a TCP session the load joins the session's change log, which
// every subsequent job replays into the daemons' regenerated tables; with
// a live subscription the load runs as an incremental ingestion round.
func (s *Session) Load(table string, tuples []Tuple) error {
	if s.jc == nil && s.srv == nil && s.liveSub() == nil {
		if err := s.lock(); err != nil {
			return err
		}
		defer s.mu.Unlock()
		return s.loadLocked(table, tuples)
	}
	return s.LoadDeltas(table, types.Inserts(tuples...))
}

// Insert ingests tuples as base-table insertions — delta-mode Load. A thin
// synchronous wrapper over IngestAsync: with a live subscription the
// change joins the next (possibly coalesced) incremental round and the
// call returns when that round's fixpoint completes; round statistics are
// on Subscription.Rounds.
func (s *Session) Insert(table string, tuples ...Tuple) error {
	return s.LoadDeltas(table, types.Inserts(tuples...))
}

// Delete ingests base-table deletions (see Insert). Deletions are exact
// for invertible operators (count/sum aggregates, set-semantics joins);
// min/max-style monotone recursions need insert-only churn — the same
// contract every incremental view-maintenance system carries.
func (s *Session) Delete(table string, tuples ...Tuple) error {
	deltas := make([]Delta, len(tuples))
	for i, t := range tuples {
		deltas[i] = Delete(t)
	}
	return s.LoadDeltas(table, deltas)
}

// LoadDeltas ingests an arbitrary base-table delta batch (insertions,
// deletions, replacements) — the general form of Insert/Delete, and the
// synchronous wrapper over IngestAsync: it blocks until the covering
// round completes (a no-op wait when no subscription is live).
func (s *Session) LoadDeltas(table string, deltas []Delta) error {
	if len(deltas) == 0 {
		return nil
	}
	ack, err := s.IngestAsync(table, deltas)
	if err != nil {
		return err
	}
	_, err = ack.Wait(context.Background())
	return err
}

// IngestAsync ingests a base-table delta batch without blocking on the
// covering round. With a live subscription the batch enqueues on the
// resident dataflow's ingestion pipeline: requests queued while a round is
// running coalesce — same-key deltas fold through the shuffle compactor —
// into a single follow-up round, and the returned ack resolves when that
// round's fixpoint completes (its output deltas are on the subscription
// stream by then). Without a subscription the change applies synchronously
// (store revision in-process, change-log append over TCP) and the ack is
// already resolved. Safe for concurrent callers.
func (s *Session) IngestAsync(table string, deltas []Delta) (*IngestAck, error) {
	return s.Ingests(map[string][]Delta{table: deltas})
}

// Ingests is the multi-table batched form of IngestAsync: every table's
// deltas ride the same covering round (or the same synchronous apply).
func (s *Session) Ingests(batches map[string][]Delta) (*IngestAck, error) {
	names := make([]string, 0, len(batches))
	total := 0
	for table, deltas := range batches {
		if len(deltas) == 0 {
			continue
		}
		names = append(names, table)
		total += len(deltas)
	}
	if total == 0 {
		return exec.ResolvedAck(nil, nil), nil
	}
	sort.Strings(names)
	if s.srv != nil {
		// Server sessions ship every ingest over the wire — the server
		// applies it to the shared pool, fans it out to standing queries,
		// and replies once every covering round completed, so the returned
		// ack is already resolved (with the requester's own covering round
		// stats when it holds a subscription).
		m := make(map[string][]types.Delta, len(names))
		for _, table := range names {
			m[table] = batches[table]
		}
		tr, err := s.srv.ingest(context.Background(), m)
		if err != nil {
			return nil, err
		}
		return exec.ResolvedAck(tr.Round, nil), nil
	}
	if sub := s.liveSub(); sub != nil {
		m := make(map[string][]types.Delta, len(names))
		for _, table := range names {
			m[table] = batches[table]
		}
		return sub.sq.IngestAsync(m)
	}
	if s.jc != nil {
		for _, table := range names {
			if err := s.validateIngest(table, batches[table]); err != nil {
				return nil, err
			}
		}
		// Serialize on the session lock like the in-process path: a closed
		// session must reject the change, not silently log it.
		if err := s.lock(); err != nil {
			return nil, err
		}
		defer s.mu.Unlock()
		for _, table := range names {
			s.appendIngestLog(table, batches[table])
		}
		return exec.ResolvedAck(nil, nil), nil
	}
	if err := s.lock(); err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	// Validate every table before touching any store so a bad batch cannot
	// apply partially.
	for _, table := range names {
		tab, err := s.cat.Table(table)
		if err != nil {
			return nil, err
		}
		if err := checkDeltaArity(table, tab.Schema.Len(), batches[table]); err != nil {
			return nil, err
		}
	}
	loader := &storage.Loader{Ring: s.eng.Ring, Stores: s.eng.Stores}
	for _, table := range names {
		tab, _ := s.cat.Table(table)
		if err := loader.Apply(table, tab.PartitionKey, batches[table]); err != nil {
			return nil, err
		}
		s.bumpStats(table, batches[table])
	}
	return exec.ResolvedAck(nil, nil), nil
}

func checkDeltaArity(table string, arity int, deltas []Delta) error {
	for _, d := range deltas {
		if len(d.Tup) != arity || (d.Op == types.OpReplace && len(d.Old) != arity) {
			return fmt.Errorf("rex: ingest into %s: tuple %v does not match the %d-column schema", table, d.Tup, arity)
		}
	}
	return nil
}

// buildSchemaCat stages the dataset's schemas (and the handler bundle)
// into a driver-side validation catalog, once per session.
func (s *Session) buildSchemaCat() error {
	if s.cfg.dataset == "" {
		return nil
	}
	cat := catalog.New()
	if err := job.StageSchemas(cat, s.cfg.dataset, s.cfg.datasetSize); err != nil {
		return err
	}
	if s.cfg.handlers != "" {
		if err := job.RegisterBundle(cat, s.cfg.handlers); err != nil {
			return err
		}
	}
	s.schemaCat = cat
	return nil
}

// validateIngest checks a TCP-session ingest against the staged dataset's
// schemas before it enters the replayed change log.
func (s *Session) validateIngest(table string, deltas []Delta) error {
	if s.schemaCat == nil {
		return fmt.Errorf("rex: TCP sessions need WithDataset before ingesting (tables are staged from it)")
	}
	tab, err := s.schemaCat.Table(table)
	if err != nil {
		return err
	}
	return checkDeltaArity(table, tab.Schema.Len(), deltas)
}

// appendIngestLog records an accepted change for replay into future jobs,
// refolding the table's slice whenever the fold threshold of raw appends
// accumulates so the retained log tracks the net change, not the churn.
func (s *Session) appendIngestLog(table string, deltas []Delta) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.ingestLog == nil {
		s.ingestLog = map[string]*tableLog{}
	}
	tl := s.ingestLog[table]
	if tl == nil {
		keyCol := 0
		if s.schemaCat != nil {
			if tab, err := s.schemaCat.Table(table); err == nil {
				keyCol = tab.PartitionKey
			}
		}
		tl = &tableLog{keyCol: keyCol}
		s.ingestLog[table] = tl
		s.logOrder = append(s.logOrder, table)
	}
	tl.deltas = append(tl.deltas, deltas...)
	tl.sinceFold += len(deltas)
	if tl.sinceFold >= ingestLogFoldEvery {
		tl.fold()
	}
}

// ingestSnapshot folds and encodes the change log for a job spec: at most
// one entry per table (first-touch order), carrying the net effect of
// every accepted change.
func (s *Session) ingestSnapshot() ([]job.IngestedTable, error) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	var out []job.IngestedTable
	for _, table := range s.logOrder {
		tl := s.ingestLog[table]
		if tl.sinceFold > 0 {
			tl.fold()
		}
		if len(tl.deltas) == 0 {
			continue
		}
		enc, err := cluster.EncodeDeltas(tl.deltas)
		if err != nil {
			return nil, err
		}
		out = append(out, job.IngestedTable{Table: table, Deltas: enc})
	}
	return out, nil
}

// ingestLogLen reports the change log's retained delta count (tests assert
// boundedness under churn).
func (s *Session) ingestLogLen() int {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	n := 0
	for _, tl := range s.ingestLog {
		n += len(tl.deltas)
	}
	return n
}

// bumpStats revises the catalog's row-count estimate after an ingest (the
// estimate steers costing, never correctness).
func (s *Session) bumpStats(table string, deltas []Delta) {
	if s.cat == nil {
		return
	}
	tab, err := s.cat.Table(table)
	if err != nil {
		return
	}
	var net int64
	for _, d := range deltas {
		switch d.Op {
		case types.OpInsert, types.OpUpdate:
			net++
		case types.OpDelete:
			net--
		}
	}
	stats := tab.Stats
	stats.RowCount += net
	if stats.RowCount < 0 {
		stats.RowCount = 0
	}
	_ = s.cat.SetStats(table, stats)
}

func (s *Session) loadLocked(table string, tuples []Tuple) error {
	tab, err := s.cat.Table(table)
	if err != nil {
		return err
	}
	stats := tab.Stats
	stats.RowCount += int64(len(tuples))
	if err := s.eng.Load(table, tab.PartitionKey, tuples); err != nil {
		return err
	}
	return s.cat.SetStats(table, stats)
}

// RegisterFunc registers a scalar UDF callable from RQL.
func (s *Session) RegisterFunc(name string, argKinds []types.Kind, ret types.Kind,
	deterministic bool, fn func(args []Value) (Value, error)) error {
	if err := s.inprocOnly("RegisterFunc"); err != nil {
		return err
	}
	return s.cat.RegisterFunc(&catalog.FuncDef{
		Name: name, ArgKinds: argKinds, RetKind: ret,
		Fn: expr.ScalarFn(fn), Deterministic: deterministic,
	})
}

// JoinHandler registers a join-state delta handler (§3.3): called with the
// join buckets for a delta's key; revises them and returns output deltas.
func (s *Session) JoinHandler(name string, out *types.Schema,
	fn func(left, right *TupleSet, d Delta, fromLeft bool) ([]Delta, error)) error {
	if err := s.inprocOnly("JoinHandler"); err != nil {
		return err
	}
	return s.cat.RegisterJoinHandler(&uda.FuncJoinHandler{HName: name, Out: out, Fn: fn})
}

// WhileHandler registers a while-state delta handler (§3.3): called by the
// fixpoint with the state bucket for a delta's key; returns the Δ set to
// feed the next stratum.
func (s *Session) WhileHandler(name string,
	fn func(rel *TupleSet, d Delta) ([]Delta, error)) error {
	if err := s.inprocOnly("WhileHandler"); err != nil {
		return err
	}
	return s.cat.RegisterWhileHandler(&uda.FuncWhileHandler{HName: name, Fn: fn})
}

// QueryCtx compiles and executes an RQL query under a context: cancelling
// it (or hitting its deadline) aborts the query between strata with
// context.Canceled / DeadlineExceeded, and the session stays usable for
// the next query. When no failure recovery is requested the execution
// streams internally — per-stratum delta batches are folded as they
// arrive instead of the full result set buffering in the requestor. It is
// the canonical query entry point on every transport; on a server session
// the text ships to the rexd server, which executes it from its shared
// plan cache. Per-query knobs are QueryOptions:
//
//	s.QueryCtx(ctx, src, rex.WithTenant("acme"), rex.WithPriority(rex.PriorityHigh))
func (s *Session) QueryCtx(ctx context.Context, src string, qopts ...QueryOption) (*Result, error) {
	opts := buildOptions(qopts)
	if s.srv != nil {
		return s.serverQuery(ctx, src, nil, opts)
	}
	if s.jc != nil {
		spec, err := s.rqlSpec(src, opts)
		if err != nil {
			return nil, err
		}
		return s.runTCP(ctx, spec, driverTune(opts))
	}
	plan, err := rql.Compile(src, s.cat, s.cfg.nodes)
	if err != nil {
		return nil, err
	}
	if err := s.lock(); err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	return s.runInProcLocked(ctx, plan, opts)
}

// RunPlan executes a hand-built physical plan (the plan-level API used by
// the algorithm library and benchmarks) on an in-process session.
func (s *Session) RunPlan(ctx context.Context, plan *exec.PlanSpec, opts Options) (*Result, error) {
	if err := s.inprocOnly("RunPlan"); err != nil {
		return nil, err
	}
	if err := s.lock(); err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	return s.eng.RunCtx(ctx, plan, opts)
}

// Stream compiles src and executes it in streaming-result mode: the
// returned DeltaStream yields each stratum's state-change batch as
// punctuation closes the stratum on every node, instead of buffering the
// full result set. Works on both transports. The stream must be consumed
// or Closed; QueryCtx is the convenience wrapper that drains it.
func (s *Session) Stream(ctx context.Context, src string, qopts ...QueryOption) (*DeltaStream, error) {
	opts := buildOptions(qopts)
	if s.srv != nil {
		return s.serverStream(ctx, src, nil, opts)
	}
	if s.jc != nil {
		spec, err := s.rqlSpec(src, opts)
		if err != nil {
			return nil, err
		}
		if err := s.lock(); err != nil {
			return nil, err
		}
		st, err := s.jc.StreamCtx(ctx, spec, driverTune(opts))
		return s.unlockWhenDone(st, err)
	}
	plan, err := rql.Compile(src, s.cat, s.cfg.nodes)
	if err != nil {
		return nil, err
	}
	if err := s.lock(); err != nil {
		return nil, err
	}
	st, err := s.eng.Stream(ctx, plan, opts)
	return s.unlockWhenDone(st, err)
}

// StreamPlan is Stream for a hand-built physical plan (in-process only).
func (s *Session) StreamPlan(ctx context.Context, plan *exec.PlanSpec, opts Options) (*DeltaStream, error) {
	if err := s.inprocOnly("StreamPlan"); err != nil {
		return nil, err
	}
	if err := s.lock(); err != nil {
		return nil, err
	}
	st, err := s.eng.Stream(ctx, plan, opts)
	return s.unlockWhenDone(st, err)
}

// RunWorkload executes a self-contained workload description. On a TCP
// session this is the full multi-process path: the spec ships to every
// daemon, each rebuilds the identical catalog, plan, and data partition,
// and the session process coordinates the query. On an in-process session
// the same spec runs on a fresh single-process engine, so results are
// directly comparable across transports. tune, when non-nil, adjusts the
// driver-side options (recovery strategy, stratum hooks) before the run.
func (s *Session) RunWorkload(ctx context.Context, w *Workload, tune func(*Options)) (*Result, error) {
	if s.srv != nil {
		return nil, fmt.Errorf("rex: RunWorkload is not available on a server session (submit RQL; the server owns the pool)")
	}
	if err := s.lock(); err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	if s.jc != nil {
		return s.jc.RunCtx(ctx, w, tune)
	}
	clone := *w // the runner normalizes its copy; keep the caller's spec pristine
	return job.RunInProcCtx(ctx, &clone, tune)
}

// StreamWorkload is RunWorkload in streaming-result mode.
func (s *Session) StreamWorkload(ctx context.Context, w *Workload, tune func(*Options)) (*DeltaStream, error) {
	if s.srv != nil {
		return nil, fmt.Errorf("rex: StreamWorkload is not available on a server session (submit RQL; the server owns the pool)")
	}
	if err := s.lock(); err != nil {
		return nil, err
	}
	if s.jc != nil {
		st, err := s.jc.StreamCtx(ctx, w, tune)
		return s.unlockWhenDone(st, err)
	}
	st, err := job.StreamInProc(ctx, w, tune)
	return s.unlockWhenDone(st, err)
}

// Kill injects a node failure (for testing recovery). On TCP sessions the
// remote daemon is told to drop traffic and pushes a final stats frame so
// the dead node's traffic stays in the byte accounting.
func (s *Session) Kill(node int) error {
	if s.srv != nil {
		return fmt.Errorf("rex: Kill is not available on a server session")
	}
	if node < 0 || node >= s.Nodes() {
		return fmt.Errorf("rex: no node %d (cluster has %d)", node, s.Nodes())
	}
	s.transport().Kill(cluster.NodeID(node))
	return nil
}

// Revive restores a killed node so successive runs can reuse the session.
func (s *Session) Revive(node int) error {
	if s.srv != nil {
		return fmt.Errorf("rex: Revive is not available on a server session")
	}
	if node < 0 || node >= s.Nodes() {
		return fmt.Errorf("rex: no node %d (cluster has %d)", node, s.Nodes())
	}
	s.transport().Revive(cluster.NodeID(node))
	return nil
}

// BytesShipped reports the total bytes sent between workers — measured
// wire bytes on both transports (socket bytes over TCP, after the
// end-of-run metrics sync).
func (s *Session) BytesShipped() int64 {
	if s.srv != nil {
		return 0 // the server's pool does the shipping; see ServerStats
	}
	return s.transport().Metrics().TotalBytesSent()
}

// runInProcLocked executes a compiled plan, streaming internally when the
// options allow it (recovery needs the buffered requestor path).
func (s *Session) runInProcLocked(ctx context.Context, plan *exec.PlanSpec, opts Options) (*Result, error) {
	if opts.Recovery != RecoveryNone {
		return s.eng.RunCtx(ctx, plan, opts)
	}
	st, err := s.eng.Stream(ctx, plan, opts)
	if err != nil {
		return nil, err
	}
	return st.Drain()
}

// runTCP executes a job spec over the session's daemon cluster, streaming
// internally when the options allow it.
func (s *Session) runTCP(ctx context.Context, spec *job.Spec, tune func(*Options)) (*Result, error) {
	if err := s.lock(); err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	if hasRecovery(tune) {
		return s.jc.RunCtx(ctx, spec, tune)
	}
	st, err := s.jc.StreamCtx(ctx, spec, tune)
	if err != nil {
		return nil, err
	}
	return st.Drain()
}

// hasRecovery reports whether tune installs a recovery strategy.
func hasRecovery(tune func(*Options)) bool {
	if tune == nil {
		return false
	}
	var o Options
	tune(&o)
	return o.Recovery != RecoveryNone
}

// rqlSpec shapes an RQL query as a job spec for the daemon cluster.
func (s *Session) rqlSpec(src string, opts Options) (*job.Spec, error) {
	if s.cfg.dataset == "" {
		return nil, fmt.Errorf("rex: TCP sessions need WithDataset to stage data for RQL queries (or run a self-contained Workload)")
	}
	ingest, err := s.ingestSnapshot()
	if err != nil {
		return nil, err
	}
	return &job.Spec{
		Workload: "rql",
		Dataset:  s.cfg.dataset, Size: s.cfg.datasetSize, Seed: s.cfg.datasetSeed,
		Query:  src,
		VNodes: s.cfg.vnodes, Replication: s.cfg.replication,
		BatchSize: opts.BatchSize, Compaction: opts.Compaction,
		Checkpoint: opts.Checkpoint, CompactionHighWater: opts.CompactionHighWater,
		MaxStrata:       opts.MaxStrata,
		Handlers:        s.cfg.handlers,
		Ingest:          ingest,
		BufferPoolPages: s.cfg.poolPages,
	}, nil
}

// driverTune carries the driver-side (non-wire) options into a TCP run.
func driverTune(opts Options) func(*Options) {
	return func(o *Options) {
		o.Recovery = opts.Recovery
		o.TermFn = opts.TermFn
		o.OnStratum = opts.OnStratum
	}
}

// unlockWhenDone hands the session lock to a running stream: it is
// released when the stream's query fully tears down. The stream is
// recorded so Close can cancel it if the caller abandons it.
func (s *Session) unlockWhenDone(st *exec.ResultStream, err error) (*DeltaStream, error) {
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.streamMu.Lock()
	s.stream = st
	s.streamMu.Unlock()
	go func() {
		<-st.Done()
		s.streamMu.Lock()
		if s.stream == st {
			s.stream = nil
		}
		s.streamMu.Unlock()
		s.mu.Unlock()
	}()
	return st, nil
}
