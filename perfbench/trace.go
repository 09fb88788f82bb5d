package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/storage"
	"github.com/rex-data/rex/internal/types"
)

// spanLog is the traced run's record: spans around the benchmark's calls
// into each layer, plus the intervals of every call through a decorated
// transport or store. Everything stays in memory until the run ends.
type spanLog struct {
	start time.Time
	// on gates recording: decorators installed for the untraced half of
	// a traced run pass calls straight through.
	on     atomic.Bool
	mu     sync.Mutex
	spans  []span
	layers map[string]*intervalLog
	scan   scanCounter
}

// span is one timed call. Op groups the spans of one benchmark op; Calls
// and Busy summarise a decorated layer's calls inside the op (how many,
// and the length of the union of their intervals).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"`
	Busy   int64  `json:"busy_ns,omitempty"`
}

func newSpanLog() *spanLog {
	return &spanLog{start: time.Now(), layers: map[string]*intervalLog{}}
}

// now is the log's clock: nanoseconds since the log was made.
func (l *spanLog) now() int64 { return int64(time.Since(l.start)) }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// layer returns the interval log of a decorated layer, sharded so that
// concurrent callers (one per worker node) rarely share a lock.
func (l *spanLog) layer(name string) *intervalLog {
	l.mu.Lock()
	defer l.mu.Unlock()
	il := l.layers[name]
	if il == nil {
		il = &intervalLog{log: l, shards: make([]ivShard, 16)}
		l.layers[name] = il
	}
	return il
}

// writeFile writes the spans as JSON lines.
func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return nil
}

type interval struct{ start, end int64 }

type intervalLog struct {
	log    *spanLog
	shards []ivShard
}

type ivShard struct {
	mu sync.Mutex
	iv []interval
}

// record appends the interval from start to now to the shard's list.
func (il *intervalLog) record(shard int, start int64) {
	end := il.log.now()
	s := &il.shards[(shard+len(il.shards))%len(il.shards)]
	s.mu.Lock()
	s.iv = append(s.iv, interval{start, end})
	s.mu.Unlock()
}

// drain returns and forgets every interval recorded so far.
func (il *intervalLog) drain() []interval {
	var out []interval
	for i := range il.shards {
		s := &il.shards[i]
		s.mu.Lock()
		out = append(out, s.iv...)
		s.iv = s.iv[:0]
		s.mu.Unlock()
	}
	return out
}

// union merges intervals clipped to [lo, hi] and returns the merged
// length: the wall time during which at least one call was in progress.
func union(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.start, lo), min(iv.end, hi)
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curA, curB int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curA, curB, open = iv.start, iv.end, true
		case iv.start <= curB:
			curB = max(curB, iv.end)
		default:
			total += curB - curA
			curA, curB = iv.start, iv.end
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// busy sums the interval lengths: call time summed across concurrent
// callers.
func busy(ivs []interval) int64 {
	var t int64
	for _, iv := range ivs {
		t += iv.end - iv.start
	}
	return t
}

// tracedTransport times every send through a cluster.Transport: Send,
// SendData, Broadcast and SendToRequestor. In-process those calls include
// encoding and the receiver-side decode.
type tracedTransport struct {
	cluster.Transport
	log *spanLog
	iv  *intervalLog
}

// tracedSyncTransport keeps the wrapped transport's MetricsSyncer, so the
// engine syncs remote counters exactly as it does undecorated.
type tracedSyncTransport struct{ *tracedTransport }

func (t tracedSyncTransport) SyncMetrics() error {
	return t.Transport.(cluster.MetricsSyncer).SyncMetrics()
}

// traceTransport decorates eng's transport; the engine reads the field at
// every run, so the next query goes through the decorator.
func traceTransport(eng *exec.Engine, log *spanLog) {
	t := &tracedTransport{Transport: eng.Transport, log: log, iv: log.layer("cluster")}
	if _, ok := eng.Transport.(cluster.MetricsSyncer); ok {
		eng.Transport = tracedSyncTransport{t}
		return
	}
	eng.Transport = t
}

func (t *tracedTransport) Send(msg cluster.Message) {
	if !t.log.on.Load() {
		t.Transport.Send(msg)
		return
	}
	start := t.log.now()
	t.Transport.Send(msg)
	t.iv.record(int(msg.From)+1, start)
}

func (t *tracedTransport) SendData(from, to cluster.NodeID, edge, stratum, epoch int, batch []types.Delta) int {
	if !t.log.on.Load() {
		return t.Transport.SendData(from, to, edge, stratum, epoch, batch)
	}
	start := t.log.now()
	n := t.Transport.SendData(from, to, edge, stratum, epoch, batch)
	t.iv.record(int(from)+1, start)
	return n
}

func (t *tracedTransport) SendToRequestor(msg cluster.Message) {
	if !t.log.on.Load() {
		t.Transport.SendToRequestor(msg)
		return
	}
	start := t.log.now()
	t.Transport.SendToRequestor(msg)
	t.iv.record(int(msg.From)+1, start)
}

func (t *tracedTransport) Broadcast(msg cluster.Message) {
	if !t.log.on.Load() {
		t.Transport.Broadcast(msg)
		return
	}
	start := t.log.now()
	t.Transport.Broadcast(msg)
	t.iv.record(0, start)
}

// tracedStore times a storage.Backend. Writes (Insert, Delete,
// ApplyDelta) are recorded as intervals of the "storage.apply" layer.
// Reads (ScanOwned, CountOwned) add their own time to the log's scan
// counter: a scan's emit callback runs the rest of the plan, so the time
// spent inside emit is excluded and stays with exec.
type tracedStore struct {
	storage.Backend
	log   *spanLog
	apply *intervalLog
	scan  *scanCounter
	shard int
}

// scanCounter totals store read time (emit callbacks excluded) and calls.
type scanCounter struct{ ns, calls atomic.Int64 }

// tracedPagedStore keeps a paged store's optional interfaces: Durable
// (the standing-query commit protocol and CloseStores assert it) and
// PoolStatter (buffer-pool counters).
type tracedPagedStore struct {
	*tracedStore
	d storage.Durable
}

func (t tracedPagedStore) Commit(round int64) error     { return t.d.Commit(round) }
func (t tracedPagedStore) CommittedRound() int64        { return t.d.CommittedRound() }
func (t tracedPagedStore) Checkpoint() error            { return t.d.Checkpoint() }
func (t tracedPagedStore) Rollback() error              { return t.d.Rollback() }
func (t tracedPagedStore) Restored() bool               { return t.d.Restored() }
func (t tracedPagedStore) Close() error                 { return t.d.Close() }
func (t tracedPagedStore) PoolStats() storage.PoolStats { return t.d.(storage.PoolStatter).PoolStats() }

// traceStores decorates every local store of eng. A store that is Durable
// must also be a PoolStatter (the paged store is both); any other mix of
// optional interfaces is refused rather than silently changed.
func traceStores(eng *exec.Engine, log *spanLog) error {
	for i, s := range eng.Stores {
		if s == nil {
			continue
		}
		t := &tracedStore{Backend: s, log: log, apply: log.layer("storage.apply"), scan: &log.scan, shard: i}
		d, durable := s.(storage.Durable)
		_, pooled := s.(storage.PoolStatter)
		switch {
		case durable && pooled:
			eng.Stores[i] = tracedPagedStore{t, d}
		case !durable && !pooled:
			eng.Stores[i] = t
		default:
			return fmt.Errorf("trace: store %d has an unsupported mix of optional interfaces", i)
		}
	}
	return nil
}

func (t *tracedStore) Insert(table string, tup types.Tuple) error {
	if !t.log.on.Load() {
		return t.Backend.Insert(table, tup)
	}
	start := t.log.now()
	err := t.Backend.Insert(table, tup)
	t.apply.record(t.shard, start)
	return err
}

func (t *tracedStore) Delete(table string, tup types.Tuple) bool {
	if !t.log.on.Load() {
		return t.Backend.Delete(table, tup)
	}
	start := t.log.now()
	ok := t.Backend.Delete(table, tup)
	t.apply.record(t.shard, start)
	return ok
}

func (t *tracedStore) ApplyDelta(table string, d types.Delta) error {
	if !t.log.on.Load() {
		return t.Backend.ApplyDelta(table, d)
	}
	start := t.log.now()
	err := t.Backend.ApplyDelta(table, d)
	t.apply.record(t.shard, start)
	return err
}

func (t *tracedStore) ScanOwned(table string, snap *cluster.Snapshot, emit func(types.Tuple) error) error {
	if !t.log.on.Load() {
		return t.Backend.ScanOwned(table, snap, emit)
	}
	start := time.Now()
	var inEmit time.Duration
	err := t.Backend.ScanOwned(table, snap, func(tup types.Tuple) error {
		s := time.Now()
		err := emit(tup)
		inEmit += time.Since(s)
		return err
	})
	t.scan.ns.Add(int64(time.Since(start) - inEmit))
	t.scan.calls.Add(1)
	return err
}

func (t *tracedStore) CountOwned(table string, snap *cluster.Snapshot) (int, error) {
	if !t.log.on.Load() {
		return t.Backend.CountOwned(table, snap)
	}
	start := time.Now()
	n, err := t.Backend.CountOwned(table, snap)
	t.scan.ns.Add(int64(time.Since(start)))
	t.scan.calls.Add(1)
	return n, err
}
