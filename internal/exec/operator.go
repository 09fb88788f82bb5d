package exec

import (
	"fmt"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/storage"
	"github.com/rex-data/rex/internal/types"
)

// Operator is a push-based physical operator instance on one worker node.
// Operators run on the node's single event-loop goroutine, so they are
// free of locks.
type Operator interface {
	// Push processes a batch of deltas arriving on the given input port.
	Push(port int, batch []types.Delta) error
	// Punct signals the end of the current stratum on the given port.
	// closed marks the port's final punctuation: no data will ever arrive
	// on it again (base-case inputs close after stratum 0).
	Punct(port, stratum int, closed bool) error
}

// BatchOperator is implemented by operators with a columnar fast path:
// PushBatch consumes a whole types.DeltaBatch without materializing its
// rows as []types.Delta first. The worker and upstream operators probe for
// it with a type assertion and fall back to Push for everything else, so
// implementing it is purely an optimization — semantics must be identical
// to Push(port, b.Deltas()).
//
// Ownership: a pushed batch is borrowed for the duration of the call. An
// implementation must not retain the batch or any slice derived from it
// (decoded batches alias transport frame buffers); anything kept past the
// call must be materialized via Delta/Row/Value, which always yield fresh
// tuples.
type BatchOperator interface {
	Operator
	PushBatch(port int, b *types.DeltaBatch) error
}

// starter is implemented by source operators that produce data when the
// query (or a recovery re-run) starts.
type starter interface {
	Start() error
}

// resetter clears operator state for a recovery re-run.
type resetter interface {
	Reset()
}

// roundReopener is implemented by operators whose punctuation trackers
// treat "closed" as final. A standing query reopens them at the start of
// every ingestion round: base edges close again each round, while all
// accumulated operator state (join buckets, aggregate groups, the fixpoint
// relation) stays resident — that is what makes the re-run incremental.
type roundReopener interface {
	ReopenRound()
}

// checkpointer is implemented by stateful operators participating in
// incremental recovery (§4.3): after every stratum the worker collects the
// state entries dirtied during that stratum and replicates them; on
// recovery, the takeover node restores them in stratum order.
type checkpointer interface {
	// DirtyState drains the entries changed in the current stratum. Each
	// entry is a tuple whose first field is the int64 partition-key hash
	// used for replica placement; the rest is operator-specific.
	DirtyState() []types.Tuple
	// Restore applies checkpointed entries; strata[i] holds the entries
	// of stratum i, applied in ascending order.
	Restore(strata [][]types.Tuple) error
}

// Context carries the per-node runtime a worker exposes to its operators.
type Context struct {
	Node      cluster.NodeID
	Snap      *cluster.Snapshot
	Transport cluster.Transport
	Store     storage.Backend
	Catalog   *catalog.Catalog
	QueryID   string
	Epoch     int
	// BatchSize is the rehash message batching granularity (§4.1:
	// "query processing passes batched messages").
	BatchSize int
	// Compaction enables delta-batch compaction in rehash send buffers.
	Compaction bool
	// CompactionHighWater is the destination-mailbox depth above which
	// compacting senders defer flushes (soft backpressure). It is also the
	// cold-start fallback for adaptive credit windows before the drain
	// meter has a measurement.
	CompactionHighWater int
	// Stratum is the stratum currently executing on this node.
	Stratum int
	// Drain is this node's delta drain-rate meter; credit grants are sized
	// from it (Drain.Window) instead of the static high-water constant.
	Drain *cluster.DrainMeter
}

// output is a wired edge to a consumer within the same node.
type output struct {
	op   Operator
	port int
}

// outputs is the fan-out of one operator to its local consumers.
type outputs []output

// send pushes a batch to every consumer.
func (o outputs) send(batch []types.Delta) error {
	if len(batch) == 0 {
		return nil
	}
	for _, out := range o {
		if err := out.op.Push(out.port, batch); err != nil {
			return err
		}
	}
	return nil
}

// sendBatch pushes a columnar batch to every consumer, using the
// vectorized path for consumers that implement it and materializing the
// batch's rows at most once for those that do not. The batch is borrowed:
// consumers must not retain it past their call.
func (o outputs) sendBatch(b *types.DeltaBatch) error {
	if b == nil || b.Len() == 0 {
		return nil
	}
	var rows []types.Delta
	for _, out := range o {
		if bo, ok := out.op.(BatchOperator); ok {
			if err := bo.PushBatch(out.port, b); err != nil {
				return err
			}
			continue
		}
		if rows == nil {
			rows = b.Deltas()
		}
		if err := out.op.Push(out.port, rows); err != nil {
			return err
		}
	}
	return nil
}

// punct forwards punctuation to every consumer.
func (o outputs) punct(stratum int, closed bool) error {
	for _, out := range o {
		if err := out.op.Punct(out.port, stratum, closed); err != nil {
			return err
		}
	}
	return nil
}

// portTracker aligns punctuation across an operator's input ports: an
// n-ary operator forwards punctuation only once every open port has seen
// the current stratum's marker (§4.2: "n-ary operators such as a join or
// rehash wait until all inputs have received appropriate punctuation").
type portTracker struct {
	punctAt []int // last punctuated stratum per port, -1 initially
	closed  []bool
}

func newPortTracker(n int) *portTracker {
	t := &portTracker{punctAt: make([]int, n), closed: make([]bool, n)}
	for i := range t.punctAt {
		t.punctAt[i] = -1
	}
	return t
}

// mark records punctuation and reports whether the stratum is complete on
// all ports.
func (t *portTracker) mark(port, stratum int, closed bool) (bool, error) {
	if port < 0 || port >= len(t.punctAt) {
		return false, fmt.Errorf("exec: punct on invalid port %d", port)
	}
	if t.closed[port] {
		return false, fmt.Errorf("exec: punct on closed port %d", port)
	}
	t.punctAt[port] = stratum
	if closed {
		t.closed[port] = true
	}
	return t.aligned(stratum), nil
}

// aligned reports whether all ports are punctuated at stratum or closed.
func (t *portTracker) aligned(stratum int) bool {
	for i := range t.punctAt {
		if t.closed[i] {
			continue
		}
		if t.punctAt[i] < stratum {
			return false
		}
	}
	return true
}

// allClosed reports whether every port is closed.
func (t *portTracker) allClosed() bool {
	for _, c := range t.closed {
		if !c {
			return false
		}
	}
	return true
}

func (t *portTracker) reset() {
	for i := range t.punctAt {
		t.punctAt[i] = -1
		t.closed[i] = false
	}
}

// reopen clears the closed flags while keeping the per-port stratum
// watermarks: a standing query's ingestion round re-punctuates base edges
// (closing them again for the round) at strata past every previous one, so
// watermarks must survive the reopen for alignment to stay monotonic.
func (t *portTracker) reopen() {
	for i := range t.closed {
		t.closed[i] = false
	}
}
