package exec

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/pagestore"
	"github.com/rex-data/rex/internal/storage"
	"github.com/rex-data/rex/internal/types"
)

// RecoveryStrategy selects how the requestor reacts to a node failure.
type RecoveryStrategy uint8

const (
	// RecoveryNone aborts the query on failure.
	RecoveryNone RecoveryStrategy = iota
	// RecoveryRestart re-runs the query from scratch on the survivors —
	// the "Restart" baseline of §6.6.
	RecoveryRestart
	// RecoveryIncremental resumes from the last completed stratum using
	// the replicated Δᵢ checkpoints — the paper's hybrid scheme (§4.3).
	RecoveryIncremental
)

// Option defaults shared by Engine.Run and NewWorker (a remote worker
// must normalize the same way the engine does, or the two sides of a
// query would batch differently).
const (
	defaultBatchSize = 1024
	defaultHighWater = 64
)

// Options tune one query execution.
type Options struct {
	// BatchSize is the transport batching granularity (default 1024).
	BatchSize int
	// MaxStrata caps recursion depth (default: plan's setting).
	MaxStrata int
	// Recovery selects the failure-handling strategy.
	Recovery RecoveryStrategy
	// Checkpoint enables per-stratum Δᵢ replication (required for
	// RecoveryIncremental; adds measurable but small overhead otherwise).
	Checkpoint bool
	// Compaction enables delta-batch compaction in the shuffle path:
	// per-(edge, destination) buffers coalesce same-key deltas
	// (insert+delete annihilation, replace-chain folding, and
	// aggregate-delta merging where the plan declares merge functions)
	// before encoding, shrinking wire volume at the cost of cross-key
	// reordering inside a batch (sound for keyed consumers).
	Compaction bool
	// CompactionHighWater is the destination-mailbox depth above which a
	// compacting sender defers its flush — holding deltas back for
	// further coalescing instead of flooding a backlogged peer
	// (default 64; soft backpressure, punctuation always flushes).
	CompactionHighWater int
	// Stream switches the run to streaming-result mode: instead of the
	// fixpoint flushing its entire final relation at termination, every
	// stratum's state changes are shipped to the requestor as a delta
	// batch when that stratum closes, and the final flush is suppressed
	// (the concatenated per-stratum batches fold to the same relation).
	// Both sides of a multi-process run must agree on this field — it
	// changes worker behavior — so it travels in the job spec.
	// Streaming runs do not support failure recovery.
	Stream bool
	// TermFn, when set, is an explicit termination condition evaluated by
	// the requestor after each stratum over the global new-tuple count
	// (§3.4). Returning true terminates the query.
	TermFn func(stratum, newTuples int) bool
	// OnStratum, when set, observes each completed stratum (used by the
	// experiment harness, e.g. to inject failures at iteration k).
	OnStratum func(stratum, newTuples int)
	// Recover, when set, enables standing-query crash recovery: on a node
	// failure the pump aborts in-flight work, calls Recover(node) to bring
	// the node back (respawn its daemon, or revive its in-process mailbox),
	// rebuilds the dataflow from the survivors' and the recovered node's
	// committed stores, and replays the interrupted round. Requires every
	// local store to be storage.Durable (see Engine.UseSpill).
	Recover func(node cluster.NodeID) error
	// SpillDir and BufferPoolPages configure paged spill-to-disk storage
	// when a job spec materializes its engine (session/daemon layers call
	// Engine.UseSpill directly). SpillDir is a local path and never
	// travels on the wire; BufferPoolPages does, so every process in a
	// TCP job agrees on pool sizing.
	SpillDir        string
	BufferPoolPages int
	// Tenant and Priority are scheduling metadata, not execution knobs:
	// the engine ignores them, but a server session forwards them so the
	// rexd admission scheduler can enforce per-tenant inflight quotas and
	// order its runnable queue. Priority is -1 low / 0 normal / +1 high.
	Tenant   string
	Priority int
}

// StratumStats records one stratum of a recursive execution.
type StratumStats struct {
	Stratum int
	// NewTuples is the global Δᵢ set size (sum of fixpoint votes).
	NewTuples int
	Duration  time.Duration
}

// Result is a completed query execution.
type Result struct {
	Tuples   []types.Tuple
	Strata   []StratumStats
	Duration time.Duration
	// BytesSent is the measured wire volume of the run: encoded frame
	// bytes shipped between workers (loopback excluded). Over TCP this
	// is measured socket bytes, length prefixes included.
	BytesSent int64
	// CompactIn/CompactOut count deltas entering and leaving the shuffle
	// compactors (both zero when Options.Compaction is off); their ratio
	// is the compaction win.
	CompactIn, CompactOut int64
	// Recoveries counts failures survived during the run.
	Recoveries int
}

// Engine executes physical plans on a REX cluster. It talks to the
// workers only through the cluster.Transport interface, so the same
// engine drives the in-process fabric (every node a goroutine in this
// process) and real multi-process deployments (a TCP driver transport
// with zero local nodes, the workers living in rexnode daemons). One
// Engine can run many queries sequentially; it owns no per-query state.
type Engine struct {
	Transport cluster.Transport
	Ring      *cluster.Ring
	// Stores/Ckpts are indexed by node; entries are nil for nodes whose
	// event loops run in other processes. Stores are in-memory
	// storage.Store by default; UseSpill swaps in paged spill-to-disk
	// stores (storage.Durable) behind the same interface.
	Stores  []storage.Backend
	Ckpts   []*storage.CheckpointStore
	Catalog *catalog.Catalog

	queryCounter atomic.Int64
}

// NewEngine assembles an engine over n in-process worker nodes.
func NewEngine(n, vnodes, replication int, cat *catalog.Catalog) *Engine {
	return NewEngineOn(cluster.NewInProcTransport(n), vnodes, replication, cat)
}

// NewEngineOn assembles an engine over an existing transport. Storage is
// allocated only for the transport's local nodes; remote nodes own their
// storage in their own processes.
func NewEngineOn(tr cluster.Transport, vnodes, replication int, cat *catalog.Catalog) *Engine {
	n := tr.N()
	e := &Engine{
		Transport: tr,
		Ring:      cluster.NewRing(n, vnodes, replication),
		Stores:    make([]storage.Backend, n),
		Ckpts:     make([]*storage.CheckpointStore, n),
		Catalog:   cat,
	}
	for _, i := range tr.LocalNodes() {
		e.Stores[i] = storage.NewStore(i)
		e.Ckpts[i] = storage.NewCheckpointStore()
	}
	return e
}

// UseSpill replaces every local node's in-memory store with a paged
// spill-to-disk store under dir (one subdirectory per node), each with a
// poolPages-frame buffer pool. Call before loading data. Directories with
// existing durable state recover it — that is how a respawned daemon
// rejoins with its committed rounds intact.
func (e *Engine) UseSpill(dir string, poolPages int) error {
	for _, i := range e.Transport.LocalNodes() {
		nodeDir := filepath.Join(dir, fmt.Sprintf("node%d", i))
		s, err := pagestore.Open(nodeDir, i, poolPages)
		if err != nil {
			return fmt.Errorf("exec: spill store for node %d: %w", i, err)
		}
		e.Stores[i] = s
		// Checkpoints ride along: the §4.3 Δ-set checkpoints persist to an
		// append-only log next to the page files, so a restarted node can
		// resume incremental recovery from its last checkpointed stratum.
		if err := e.Ckpts[i].UseDir(filepath.Join(nodeDir, "ckpt")); err != nil {
			return fmt.Errorf("exec: checkpoint log for node %d: %w", i, err)
		}
	}
	return nil
}

// CloseStores flushes and closes every local durable store (graceful
// shutdown: dirty state is sealed into a checkpoint image). In-memory
// stores are untouched.
func (e *Engine) CloseStores() error {
	var first error
	for _, s := range e.Stores {
		if d, ok := s.(storage.Durable); ok {
			if err := d.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	for _, c := range e.Ckpts {
		if c != nil {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// PoolStats aggregates buffer-pool traffic across the local nodes' paged
// stores (all-zero when spill is not in use).
func (e *Engine) PoolStats() storage.PoolStats {
	var total storage.PoolStats
	for _, s := range e.Stores {
		if ps, ok := s.(storage.PoolStatter); ok {
			total.Add(ps.PoolStats())
		}
	}
	return total
}

// Load distributes a dataset to the local workers' replicated storage.
// Partitions owned by remote nodes are skipped — their daemons load the
// same deterministic dataset themselves from the job description.
func (e *Engine) Load(table string, keyCol int, tuples []types.Tuple) error {
	l := &storage.Loader{Ring: e.Ring, Stores: e.Stores}
	return l.Load(table, keyCol, tuples)
}

// Run executes the plan to completion, handling failures per opts.
func (e *Engine) Run(spec *PlanSpec, opts Options) (*Result, error) {
	return e.RunCtx(context.Background(), spec, opts)
}

// RunCtx is Run honoring a context: cancellation or deadline expiry aborts
// the query between strata. The requestor stops issuing stratum decisions,
// broadcasts an abort punctuation so workers drop per-query state and
// drain their mailboxes, and tears the run down with stores and
// checkpoints consistent — the next query on the same engine works. The
// returned error is ctx.Err().
func (e *Engine) RunCtx(ctx context.Context, spec *PlanSpec, opts Options) (*Result, error) {
	return e.run(ctx, spec, opts, nil)
}

// run is the shared body of RunCtx and Stream; sink, when non-nil, receives
// each completed stratum's result-delta batch (streaming mode).
func (e *Engine) run(ctx context.Context, spec *PlanSpec, opts Options, sink func(stratum int, batch []types.Delta)) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.Stream && opts.Recovery != RecoveryNone {
		return nil, fmt.Errorf("exec: streaming runs do not support failure recovery")
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = defaultBatchSize
	}
	if opts.CompactionHighWater <= 0 {
		opts.CompactionHighWater = defaultHighWater
	}
	maxStrata := spec.MaxStrata
	if opts.MaxStrata > 0 {
		maxStrata = opts.MaxStrata
	}
	queryID := fmt.Sprintf("q%d", e.queryCounter.Add(1))

	alive := e.Transport.AliveNodes()
	if len(alive) == 0 {
		return nil, fmt.Errorf("exec: no alive nodes")
	}
	bytesBefore := e.Transport.Metrics().TotalBytesSent()
	compactInBefore, compactOutBefore := e.Transport.Metrics().TotalCompaction()
	start := time.Now()

	// Spawn one worker loop per alive node hosted in this process;
	// remote nodes run their loops in their own daemons. In-process
	// inboxes persist across queries on one transport, so drain the
	// debris of any abandoned prior run first: its frames carry the same
	// epoch numbering as this query's and would otherwise be held by the
	// fresh worker as "early" frames and replayed into the wrong plan.
	// No frame of THIS query can exist yet — MsgStart has not been
	// broadcast — and TCP daemons get a fresh inbox from Configure, so
	// the drain only ever removes dead frames.
	var wg sync.WaitGroup
	for _, n := range alive {
		if e.Stores[n] == nil {
			continue
		}
		if ib := e.Transport.Inbox(n); ib != nil {
			ib.Drain()
		}
		w := NewWorker(WorkerConfig{
			Node: n, Transport: e.Transport, Store: e.Stores[n],
			Checkpoints: e.Ckpts[n], Catalog: e.Catalog, Ring: e.Ring,
			Plan: spec, QueryID: queryID, Options: opts,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Loop()
		}()
	}

	// Cancellation watcher: a context expiry unblocks the coordinate loop
	// by injecting the local MsgCancel sentinel into the requestor
	// mailbox. The sentinel never crosses the wire; coordinate verifies
	// ctx.Err() before acting on it, so a stale sentinel (context
	// cancelled just as the query finished) is ignored by the next run.
	stopWatch := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		select {
		case <-ctx.Done():
			e.Transport.Requestor().Put(cluster.Message{Kind: cluster.MsgCancel})
		case <-stopWatch:
		}
	}()

	res, err := e.coordinate(ctx, spec, opts, queryID, maxStrata, sink)
	// Join the watcher before the teardown drain below: its sentinel (if
	// any) must be in the mailbox by then, or it would leak into the next
	// run's requestor traffic.
	close(stopWatch)
	<-watchDone

	// Teardown: on an abort, punctuate it so workers discard per-query
	// operator state and drain cheaply; then stop workers and drop the
	// query's checkpoints.
	if err != nil && ctx.Err() != nil {
		e.Transport.Broadcast(cluster.Message{From: -1, Kind: cluster.MsgAbort})
	}
	e.Transport.Broadcast(cluster.Message{From: -1, Kind: cluster.MsgShutdown})
	wg.Wait()
	// Every local producer has exited; clear requestor debris (stale
	// votes and result frames of an aborted run) so the next query on
	// this engine starts from an empty queue. Multi-process stragglers
	// are handled by the transport's job-generation stamping instead.
	e.Transport.Requestor().Drain()
	for _, c := range e.Ckpts {
		if c != nil {
			c.Drop(queryID)
		}
	}
	if err != nil {
		return nil, err
	}
	// Multi-process transports count wire bytes where they are sent;
	// pull the remote counters over before reading totals.
	if ms, ok := e.Transport.(cluster.MetricsSyncer); ok {
		if serr := ms.SyncMetrics(); serr != nil {
			return nil, serr
		}
	}
	res.Duration = time.Since(start)
	res.BytesSent = e.Transport.Metrics().TotalBytesSent() - bytesBefore
	compactIn, compactOut := e.Transport.Metrics().TotalCompaction()
	res.CompactIn = compactIn - compactInBefore
	res.CompactOut = compactOut - compactOutBefore
	return res, nil
}

// coordinate is the query-requestor loop of §4.2: it aggregates fixpoint
// votes, decides stratum advancement or termination, collects results, and
// orchestrates recovery (§4.3). In streaming mode (sink non-nil) result
// deltas are not accumulated; each stratum's batch is handed to the sink
// when the stratum's votes complete, and non-recursive result batches are
// forwarded as they arrive.
func (e *Engine) coordinate(ctx context.Context, spec *PlanSpec, opts Options, queryID string, maxStrata int, sink func(stratum int, batch []types.Delta)) (*Result, error) {
	res := &Result{}
	acc := newResultSet()
	// sbuf holds streaming batches per not-yet-closed stratum.
	sbuf := map[int][]types.Delta{}
	epoch := 0
	resume := 0
	incremental := false
	completed := -1 // last globally completed stratum

	alive := e.Transport.AliveNodes()
	broadcastStart := func() {
		mode := startFresh
		if incremental {
			mode = startIncremental
		}
		payload := encodeNodeList(alive)
		for _, n := range alive {
			e.Transport.Send(cluster.Message{
				From: -1, To: n, Kind: cluster.MsgStart,
				Epoch: epoch, Stratum: resume, Count: mode, Payload: payload,
			})
		}
	}
	broadcastStart()

	votes := map[int]map[cluster.NodeID]int{}
	done := map[cluster.NodeID]bool{}
	stratumStart := time.Now()
	req := e.Transport.Requestor()

	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		msg, ok := req.Get()
		if !ok {
			return nil, fmt.Errorf("exec: requestor mailbox closed")
		}
		switch msg.Kind {
		case cluster.MsgCancel:
			// Injected by the cancellation watcher (or a stale sentinel
			// from a prior timed wait — ignore unless our context really
			// expired).
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		case cluster.MsgError:
			if msg.Epoch != epoch {
				continue // stale epoch: the failed attempt's debris
			}
			return nil, fmt.Errorf("exec: node %d: %s", msg.From, msg.Table)
		case cluster.MsgFailure:
			if opts.Recovery == RecoveryNone {
				return nil, fmt.Errorf("exec: node %d failed and recovery is disabled", msg.From)
			}
			res.Recoveries++
			epoch++
			alive = e.Transport.AliveNodes()
			if len(alive) == 0 {
				return nil, fmt.Errorf("exec: all nodes failed")
			}
			votes = map[int]map[cluster.NodeID]int{}
			done = map[cluster.NodeID]bool{}
			acc = newResultSet()
			if opts.Recovery == RecoveryIncremental && spec.Recursive() && opts.Checkpoint && completed >= 0 {
				incremental = true
				resume = completed
			} else {
				incremental = false
				resume = 0
				completed = -1
				res.Strata = nil
			}
			stratumStart = time.Now()
			broadcastStart()
		case cluster.MsgVote:
			if msg.Epoch != epoch {
				continue
			}
			s := msg.Stratum
			if votes[s] == nil {
				votes[s] = map[cluster.NodeID]int{}
			}
			votes[s][msg.From] = msg.Count
			if len(votes[s]) < len(alive) {
				continue
			}
			total := 0
			for _, c := range votes[s] {
				total += c
			}
			completed = s
			if !(incremental && s == resume) {
				// A re-voted restored stratum keeps its original stats.
				res.Strata = append(res.Strata, StratumStats{
					Stratum: s, NewTuples: total, Duration: time.Since(stratumStart),
				})
			}
			stratumStart = time.Now()
			if opts.OnStratum != nil {
				opts.OnStratum(s, total)
			}
			if sink != nil {
				// Every node ships its stream batch before its vote on the
				// same ordered channel, so vote completion means stratum
				// s's deltas are all buffered: the stratum is closed, emit.
				if batch := sbuf[s]; len(batch) > 0 {
					sink(s, batch)
				}
				delete(sbuf, s)
			}
			terminate := total == 0 || s+1 >= maxStrata
			if opts.TermFn != nil && opts.TermFn(s, total) {
				terminate = true
			}
			e.broadcastDecision(alive, epoch, s+1, terminate)
		case cluster.MsgData:
			if msg.Epoch != epoch || msg.Edge != resultEdge {
				continue
			}
			batch, err := cluster.DecodeDeltas(msg.Payload)
			if err != nil {
				return nil, err
			}
			switch {
			case sink == nil:
				acc.apply(batch)
			case spec.Recursive():
				sbuf[msg.Stratum] = append(sbuf[msg.Stratum], batch...)
			default:
				// Non-recursive plans have no strata to align on: forward
				// result batches as they arrive, all under stratum 0.
				sink(0, batch)
			}
		case cluster.MsgPunct:
			if msg.Epoch != epoch || msg.Edge != resultEdge {
				continue
			}
			done[msg.From] = true
			if len(done) == len(alive) {
				if sink != nil {
					// Flush any strata still buffered (a terminal stratum
					// whose decision carried Terminate votes no follow-up),
					// in stratum order.
					flushStreamBuf(sbuf, sink)
					return res, nil
				}
				res.Tuples = acc.materialize()
				return res, nil
			}
		}
	}
}

// flushStreamBuf emits leftover buffered stream batches in stratum order.
func flushStreamBuf(sbuf map[int][]types.Delta, sink func(int, []types.Delta)) {
	strata := make([]int, 0, len(sbuf))
	for s := range sbuf {
		strata = append(strata, s)
	}
	sort.Ints(strata)
	for _, s := range strata {
		if batch := sbuf[s]; len(batch) > 0 {
			sink(s, batch)
		}
	}
}

func (e *Engine) broadcastDecision(alive []cluster.NodeID, epoch, next int, terminate bool) {
	for _, n := range alive {
		e.Transport.Send(cluster.Message{
			From: -1, To: n, Kind: cluster.MsgDecision,
			Epoch: epoch, Stratum: next, Terminate: terminate,
		})
	}
}

// resultSet accumulates result deltas. Final flushes are insert-only, so
// the insert path is a bare append; deletions and replacements (possible
// in non-recursive pipelines) are resolved through a lazily built
// hash-of-tuple index, keeping large result folds O(n) instead of the
// O(n²) rescan a per-delta linear search would cost.
type resultSet struct {
	tuples []types.Tuple // append-ordered; nil entries are tombstones
	index  map[uint64][]int
	dead   int
	cols   []int // cached 0..n-1 column index for whole-tuple hashing
}

func newResultSet() *resultSet {
	return &resultSet{}
}

func (rs *resultSet) hash(t types.Tuple) uint64 {
	for len(rs.cols) < len(t) {
		rs.cols = append(rs.cols, len(rs.cols))
	}
	return t.HashKey(rs.cols[:len(t)])
}

// ensureIndex builds the tuple-hash index on first delete/replace.
func (rs *resultSet) ensureIndex() {
	if rs.index != nil {
		return
	}
	rs.index = make(map[uint64][]int, len(rs.tuples))
	for i, t := range rs.tuples {
		if t != nil {
			h := rs.hash(t)
			rs.index[h] = append(rs.index[h], i)
		}
	}
}

func (rs *resultSet) insert(t types.Tuple) {
	rs.tuples = append(rs.tuples, t)
	if rs.index != nil {
		h := rs.hash(t)
		rs.index[h] = append(rs.index[h], len(rs.tuples)-1)
	}
}

// find locates a live entry equal to t, returning its position in the
// hash bucket and the tuple index.
func (rs *resultSet) find(t types.Tuple) (bucketPos, idx int, ok bool) {
	h := rs.hash(t)
	for bi, ti := range rs.index[h] {
		if rs.tuples[ti] != nil && rs.tuples[ti].Equal(t) {
			return bi, ti, true
		}
	}
	return 0, 0, false
}

func (rs *resultSet) apply(batch []types.Delta) {
	for _, d := range batch {
		switch d.Op {
		case types.OpInsert, types.OpUpdate:
			rs.insert(d.Tup)
		case types.OpDelete:
			rs.ensureIndex()
			if bi, ti, ok := rs.find(d.Tup); ok {
				h := rs.hash(d.Tup)
				rs.tuples[ti] = nil
				rs.dead++
				bucket := rs.index[h]
				rs.index[h] = append(bucket[:bi], bucket[bi+1:]...)
			}
		case types.OpReplace:
			rs.ensureIndex()
			if bi, ti, ok := rs.find(d.Old); ok {
				oldH := rs.hash(d.Old)
				bucket := rs.index[oldH]
				rs.index[oldH] = append(bucket[:bi], bucket[bi+1:]...)
				rs.tuples[ti] = d.Tup
				newH := rs.hash(d.Tup)
				rs.index[newH] = append(rs.index[newH], ti)
			} else {
				rs.insert(d.Tup)
			}
		}
	}
}

// materialize returns the live tuples in insertion order.
func (rs *resultSet) materialize() []types.Tuple {
	if rs.dead == 0 {
		return rs.tuples
	}
	out := make([]types.Tuple, 0, len(rs.tuples)-rs.dead)
	for _, t := range rs.tuples {
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}
