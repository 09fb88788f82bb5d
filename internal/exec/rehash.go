package exec

import (
	"fmt"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/types"
)

// rehashOp re-partitions a delta stream across worker nodes by key hash
// (§3.2: "a physical level operator called rehash that is responsible for
// shipping state from one node to another by key"). The send side (port 0)
// buffers batched messages per destination; the receive side (port 1) is
// fed by the worker loop from the transport and aligns punctuation from
// all alive senders before forwarding downstream (§4.2).
//
// Every shipment leaves from a per-destination pooled columnar batch as a
// columnar wire frame. With Options.Compaction on, deltas first coalesce
// per destination in cluster.Compactors, which drain into those batches,
// and flushes observe a credit-based flow-control rule: every shipped batch
// spends one credit from the sender's window to that destination, and a
// flush with an exhausted window is deferred — deltas keep coalescing
// locally instead of flooding a backlogged peer. Receivers size the
// windows from their own inbox depth and piggyback the grants on the
// punctuation frames they already send every stratum, so the same signal
// works in-process and across sockets (where a peer's queue depth is
// unobservable). Punctuation always flushes, and a hard cap bounds
// deferral.
//
// OpBroadcast is the same operator with every batch delivered to every
// node (used when one side of a computation — e.g. K-means centroids —
// must be visible cluster-wide).
type rehashOp struct {
	spec *OpSpec
	ctx  *Context
	outs outputs

	broadcast  bool
	compactors map[cluster.NodeID]*cluster.Compactor
	mergeFn    cluster.MergeFunc
	allCols    []int // cached 0..n-1 index for keyless (broadcast) edges
	// vecBuffers are the per-destination pending batches every frame
	// ships from: rows accumulate column-wise in pooled batches, so the
	// uncompacted shuffle hot loop never materializes row deltas.
	// Row-form pushes and compactor drains append into vecBuffers too,
	// preserving same-key delta order.
	vecBuffers map[cluster.NodeID]*types.DeltaBatch
	scratch    types.Tuple // reused by multi-column HashKeyAt calls
	// flushedIn tracks each compactor's cumulative added-count at its
	// last flush, so CompactIn/CompactOut metrics are accounted together
	// at flush time (deltas a Reset discards count toward neither).
	flushedIn map[cluster.NodeID]int

	// receive-side punctuation alignment
	punctCount  map[int]int
	closedCount map[int]int
	nSenders    int
	closedFwd   bool
}

// compactionOverflow bounds backpressure deferral: once a compactor holds
// this many batches' worth of deltas it flushes regardless of the
// destination's mailbox depth.
const compactionOverflow = 8

func newRehashOp(spec *OpSpec, ctx *Context, broadcast bool) *rehashOp {
	r := &rehashOp{
		spec:        spec,
		ctx:         ctx,
		broadcast:   broadcast,
		punctCount:  map[int]int{},
		closedCount: map[int]int{},
		nSenders:    len(ctx.Snap.AliveNodes()),
		vecBuffers:  map[cluster.NodeID]*types.DeltaBatch{},
	}
	if ctx.Compaction {
		r.compactors = map[cluster.NodeID]*cluster.Compactor{}
		r.flushedIn = map[cluster.NodeID]int{}
		r.mergeFn = compactMergeFn(spec)
	}
	return r
}

// vec reports whether this rehash routes batches column-wise, i.e.
// compaction is off. The compactor coalesces same-key deltas row-wise, so
// a compacting rehash routes rows and ships the drained result.
func (r *rehashOp) vec() bool { return r.compactors == nil }

func (r *rehashOp) Push(port int, batch []types.Delta) error {
	switch port {
	case 0:
		return r.route(batch)
	case 1:
		// Batch received from a peer (or loopback): hand downstream.
		return r.outs.send(batch)
	default:
		return fmt.Errorf("exec: rehash port %d out of range", port)
	}
}

// PushBatch is the columnar rehash path. Send side: rows are routed by
// key hash computed straight off the typed vectors (no boxing) and copied
// column-wise into per-destination pending batches. Receive side: the
// batch passes downstream as-is. With compaction on, the send side
// materializes rows once and takes the compactor path.
func (r *rehashOp) PushBatch(port int, b *types.DeltaBatch) error {
	switch port {
	case 0:
		if !r.vec() {
			return r.route(b.Deltas())
		}
		return r.routeBatch(b)
	case 1:
		return r.outs.sendBatch(b)
	default:
		return fmt.Errorf("exec: rehash port %d out of range", port)
	}
}

func (r *rehashOp) routeBatch(b *types.DeltaBatch) error {
	if cap(r.scratch) < b.NumCols() {
		r.scratch = make(types.Tuple, 0, b.NumCols())
	}
	for i := 0; i < b.Len(); i++ {
		if r.broadcast {
			for _, n := range r.ctx.Snap.AliveNodes() {
				if err := r.enqueueVecRow(n, b, i); err != nil {
					return err
				}
			}
			continue
		}
		h := b.HashKeyAt(i, r.spec.HashKey, r.scratch)
		dest, err := r.ctx.Snap.Primary(h)
		if err != nil {
			return err
		}
		if b.Op(i) == types.OpReplace && b.HasOld() {
			oh := b.OldHashKeyAt(i, r.spec.HashKey, r.scratch)
			oldDest, err := r.ctx.Snap.Primary(oh)
			if err != nil {
				return err
			}
			if oldDest != dest {
				// Cross-partition replace: split into a deletion at the
				// old home and an insertion at the new one. The scratch
				// rows are copied value-wise by enqueueVecDelta, never
				// retained.
				r.scratch = b.OldRow(i, r.scratch)
				if err := r.enqueueVecDelta(oldDest, types.Delete(r.scratch)); err != nil {
					return err
				}
				r.scratch = b.Row(i, r.scratch)
				if err := r.enqueueVecDelta(dest, types.Insert(r.scratch)); err != nil {
					return err
				}
				continue
			}
		}
		if err := r.enqueueVecRow(dest, b, i); err != nil {
			return err
		}
	}
	return nil
}

// enqueueVecRow appends row i of src to dest's pending columnar batch,
// flushing first when the batch is full or the row's arity diverges.
func (r *rehashOp) enqueueVecRow(dest cluster.NodeID, src *types.DeltaBatch, i int) error {
	vb := r.vecBuffer(dest)
	if !vb.CanAppendRowFrom(src, i) {
		if err := r.flushVec(dest); err != nil {
			return err
		}
	}
	vb.AppendRowFrom(src, i)
	if vb.Len() >= r.ctx.BatchSize {
		return r.flushVec(dest)
	}
	return nil
}

// enqueueVecDelta is enqueueVecRow for a row-form delta (the vec-mode
// landing point of Push and of the replace split).
func (r *rehashOp) enqueueVecDelta(dest cluster.NodeID, d types.Delta) error {
	vb := r.vecBuffer(dest)
	if !vb.CanAppend(d) {
		if err := r.flushVec(dest); err != nil {
			return err
		}
	}
	vb.Append(d)
	if vb.Len() >= r.ctx.BatchSize {
		return r.flushVec(dest)
	}
	return nil
}

func (r *rehashOp) vecBuffer(dest cluster.NodeID) *types.DeltaBatch {
	vb := r.vecBuffers[dest]
	if vb == nil {
		vb = types.GetBatch()
		r.vecBuffers[dest] = vb
	}
	return vb
}

// flushVec ships dest's pending columnar batch, the one send path of the
// rehash: loopback hands it straight downstream; remote destinations
// encode the columnar wire format into a pooled payload buffer (returned
// to the pool once Send has copied it into the frame) and keep the batch
// for reuse.
func (r *rehashOp) flushVec(dest cluster.NodeID) error {
	vb := r.vecBuffers[dest]
	if vb == nil || vb.Len() == 0 {
		return nil
	}
	if dest == r.ctx.Node {
		err := r.outs.sendBatch(vb)
		vb.Reset()
		return err
	}
	buf := cluster.GetPayloadBuf()
	payload := cluster.EncodeDeltaBatch(buf, vb)
	r.ctx.Transport.Send(cluster.Message{
		From: r.ctx.Node, To: dest, Edge: edgeID(r.spec.ID, 1),
		Stratum: r.ctx.Stratum, Kind: cluster.MsgData,
		Payload: payload, Count: vb.Len(), Epoch: r.ctx.Epoch,
	})
	cluster.PutPayloadBuf(payload)
	vb.Reset()
	return nil
}

func (r *rehashOp) route(batch []types.Delta) error {
	for _, d := range batch {
		if r.broadcast {
			for _, n := range r.ctx.Snap.AliveNodes() {
				if err := r.enqueue(n, d); err != nil {
					return err
				}
			}
			continue
		}
		dest, err := r.destFor(d.Tup)
		if err != nil {
			return err
		}
		if d.Op == types.OpReplace {
			oldDest, err := r.destFor(d.Old)
			if err != nil {
				return err
			}
			if oldDest != dest {
				// The replacement moves the tuple across partitions:
				// split into a deletion at the old home and an insertion
				// at the new one.
				if err := r.enqueue(oldDest, types.Delete(d.Old)); err != nil {
					return err
				}
				if err := r.enqueue(dest, types.Insert(d.Tup)); err != nil {
					return err
				}
				continue
			}
		}
		if err := r.enqueue(dest, d); err != nil {
			return err
		}
	}
	return nil
}

func (r *rehashOp) destFor(t types.Tuple) (cluster.NodeID, error) {
	h := t.HashKey(r.spec.HashKey)
	return r.ctx.Snap.Primary(h)
}

// routingKey is the compactor's same-key test: the rehash key columns, or
// the whole tuple for broadcast edges (which have no hash key).
func (r *rehashOp) routingKey(t types.Tuple) types.Value {
	if len(r.spec.HashKey) > 0 {
		return t.Key(r.spec.HashKey)
	}
	for len(r.allCols) < len(t) {
		r.allCols = append(r.allCols, len(r.allCols))
	}
	return t.Key(r.allCols[:len(t)])
}

func (r *rehashOp) enqueue(dest cluster.NodeID, d types.Delta) error {
	if r.vec() {
		// Row-form deltas reaching a columnar rehash (a row-only
		// upstream, or the replace split) land in the same per-dest
		// columnar batches so same-key delta order is preserved.
		return r.enqueueVecDelta(dest, d)
	}
	c := r.compactors[dest]
	if c == nil {
		c = cluster.NewCompactor(r.routingKey, r.mergeFn)
		r.compactors[dest] = c
	}
	c.Add(d)
	// Probe the flush condition only when the buffer crosses a batch
	// boundary: under backpressure deferral the buffer sits above
	// BatchSize for a while, and per-delta credit probes would serialize
	// every sender on the credit-book mutex.
	if b := c.Buffered(); b >= r.ctx.BatchSize && b%r.ctx.BatchSize == 0 && r.shouldFlush(dest, b) {
		return r.flush(dest)
	}
	return nil
}

// shouldFlush is the flow-control rule: a full buffer flushes while the
// sender still holds send credits for the destination; with the window
// exhausted it holds back (coalescing more) until the next grant or the
// hard cap.
func (r *rehashOp) shouldFlush(dest cluster.NodeID, buffered int) bool {
	if dest == r.ctx.Node {
		return true // loopback: no flow control
	}
	if buffered >= r.ctx.BatchSize*compactionOverflow {
		return true
	}
	return r.ctx.Transport.Credits(r.ctx.Node, dest) > 0
}

// flush ships dest's compacted pending deltas.
func (r *rehashOp) flush(dest cluster.NodeID) error {
	c := r.compactors[dest]
	if c == nil {
		return nil
	}
	batch := c.Drain()
	added, _, _ := c.Stats()
	m := r.ctx.Transport.Metrics()
	m.CompactIn[r.ctx.Node].Add(int64(added - r.flushedIn[dest]))
	m.CompactOut[r.ctx.Node].Add(int64(len(batch)))
	r.flushedIn[dest] = added
	if len(batch) == 0 {
		return nil
	}
	if dest != r.ctx.Node {
		// Every shipped batch spends one credit from this sender's
		// window to the destination (an overflow-forced flush may
		// overdraw to zero). Only compacting senders gate on credits,
		// so the uncompacted path skips the book entirely.
		r.ctx.Transport.SpendCredits(r.ctx.Node, dest, 1)
	}
	// The drain ships as one frame through the columnar send path.
	vb := r.vecBuffer(dest)
	for _, d := range batch {
		if !vb.CanAppend(d) {
			if err := r.flushVec(dest); err != nil {
				return err
			}
		}
		vb.Append(d)
	}
	return r.flushVec(dest)
}

func (r *rehashOp) flushAll() error {
	for dest := range r.compactors {
		if err := r.flush(dest); err != nil {
			return err
		}
	}
	for dest := range r.vecBuffers {
		if err := r.flushVec(dest); err != nil {
			return err
		}
	}
	return nil
}

func (r *rehashOp) Punct(port, stratum int, closed bool) error {
	switch port {
	case 0:
		// Local upstream finished the stratum: flush everything, then tell
		// every peer (and ourselves) so receivers can align. When
		// compaction is on — the only mode whose senders consult credits —
		// each outgoing punctuation piggybacks a grant sized from this
		// node's OWN inbox depth: a drained inbox re-arms the peer's full
		// window, a backlogged one shrinks it toward zero, and the peer's
		// sender defers flushes (coalescing more) until the window
		// refreshes.
		if err := r.flushAll(); err != nil {
			return err
		}
		grant := 0
		if r.ctx.Compaction {
			// Adaptive window: size the grant from this node's measured
			// drain rate (how many batches it expects to absorb over the
			// next horizon), falling back to the static high-water constant
			// until the meter has a sample, then subtract the backlog
			// already sitting in the inbox.
			window := r.ctx.CompactionHighWater
			if r.ctx.Drain != nil {
				window = r.ctx.Drain.Window(r.ctx.BatchSize, r.ctx.CompactionHighWater)
			}
			grant = window - r.ctx.Transport.InboxLen(r.ctx.Node)
			if grant < 0 {
				grant = 0
			}
		}
		for _, n := range r.ctx.Snap.AliveNodes() {
			if n == r.ctx.Node {
				if err := r.Punct(1, stratum, closed); err != nil {
					return err
				}
				continue
			}
			r.ctx.Transport.Send(cluster.Message{
				From: r.ctx.Node, To: n,
				Edge: edgeID(r.spec.ID, 1), Kind: cluster.MsgPunct,
				Stratum: stratum, Closed: closed, Epoch: r.ctx.Epoch,
				CreditGrant: r.ctx.Compaction, Credits: grant,
			})
		}
		return nil
	case 1:
		r.punctCount[stratum]++
		if closed {
			r.closedCount[stratum]++
		}
		if r.punctCount[stratum] < r.nSenders {
			return nil
		}
		allClosed := r.closedCount[stratum] == r.nSenders
		delete(r.punctCount, stratum)
		delete(r.closedCount, stratum)
		return r.outs.punct(stratum, allClosed)
	default:
		return fmt.Errorf("exec: rehash punct port %d out of range", port)
	}
}

func (r *rehashOp) Reset() {
	if r.ctx.Compaction {
		r.compactors = map[cluster.NodeID]*cluster.Compactor{}
		r.flushedIn = map[cluster.NodeID]int{}
	}
	for _, vb := range r.vecBuffers {
		types.PutBatch(vb)
	}
	r.vecBuffers = map[cluster.NodeID]*types.DeltaBatch{}
	r.punctCount = map[int]int{}
	r.closedCount = map[int]int{}
	r.nSenders = len(r.ctx.Snap.AliveNodes())
	r.closedFwd = false
}

// compactMergeFn builds the compactor's δ-merge function from the spec's
// CompactMerge declarations, or nil when none are declared.
func compactMergeFn(spec *OpSpec) cluster.MergeFunc {
	if len(spec.CompactMerge) == 0 {
		return nil
	}
	isKey := map[int]bool{}
	for _, c := range spec.HashKey {
		isKey[c] = true
	}
	return func(a, b types.Delta) (types.Delta, bool) {
		if len(a.Tup) != len(b.Tup) {
			return a, false
		}
		out := a.Tup.Clone()
		for i := range out {
			if isKey[i] {
				continue // same routing key by construction
			}
			fn, declared := spec.CompactMerge[i]
			if !declared {
				if !types.ValueEq(a.Tup[i], b.Tup[i]) {
					return a, false
				}
				continue
			}
			m, ok := mergeColumn(fn, a.Tup[i], b.Tup[i])
			if !ok {
				return a, false
			}
			out[i] = m
		}
		return types.Update(out), true
	}
}

// mergeColumn folds two column values with the declared aggregate.
func mergeColumn(fn string, a, b types.Value) (types.Value, bool) {
	switch fn {
	case "sum":
		if ai, ok := a.(int64); ok {
			if bi, ok := b.(int64); ok {
				return ai + bi, true
			}
		}
		af, aok := types.AsFloat(a)
		bf, bok := types.AsFloat(b)
		if !aok || !bok {
			return nil, false
		}
		return af + bf, true
	case "min":
		if types.ValueCompare(a, b) <= 0 {
			return a, true
		}
		return b, true
	case "max":
		if types.ValueCompare(a, b) >= 0 {
			return a, true
		}
		return b, true
	default:
		return nil, false
	}
}
