package exec

import (
	"fmt"
	"strings"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/types"
)

// scanOp streams this node's primary partition of a base table, then emits
// a closed punctuation: base data never changes during a query, so scans
// participate only in stratum 0.
type scanOp struct {
	ctx   *Context
	id    int
	table string
	outs  outputs
	batch int
}

// Start scans the partition on the columnar path: it fills one pooled
// batch per BatchSize rows and hands it downstream as a unit, so a
// vectorized pipeline runs the whole base stratum without materializing
// per-row deltas.
func (s *scanOp) Start() error {
	b := types.GetBatch()
	defer types.PutBatch(b)
	flush := func() error {
		err := s.outs.sendBatch(b)
		b.Reset()
		return err
	}
	err := s.ctx.Store.ScanOwned(s.table, s.ctx.Snap, func(t types.Tuple) error {
		b.AppendInsert(t)
		if b.Len() >= s.batch {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	return s.outs.punct(0, true)
}

// Inject feeds a base-table delta batch through this scan's edge during a
// standing query's ingestion round: the deltas enter the dataflow exactly
// where a fresh scan of the revised table would have emitted them, so every
// downstream operator revises resident state instead of recomputing. The
// round's punctuation is sent separately (punctRound) once every scan on
// the node has injected, preserving the data-before-punctuation discipline
// across tables.
func (s *scanOp) Inject(batch []types.Delta) error {
	b := types.GetBatch()
	defer types.PutBatch(b)
	for _, d := range batch {
		if !b.CanAppend(d) || b.Len() >= s.batch {
			if err := s.outs.sendBatch(b); err != nil {
				return err
			}
			b.Reset()
		}
		b.Append(d)
	}
	return s.outs.sendBatch(b)
}

// punctRound closes this scan's contribution to an ingestion round's base
// stratum. Closed is per-round: standing consumers reopen their trackers at
// every round start.
func (s *scanOp) punctRound(stratum int) error {
	return s.outs.punct(stratum, true)
}

func (s *scanOp) Push(int, []types.Delta) error { return fmt.Errorf("exec: scan has no inputs") }
func (s *scanOp) Punct(int, int, bool) error    { return fmt.Errorf("exec: scan has no inputs") }

// filterOp applies a predicate with proper delta semantics: a replacement
// whose old and new tuples fall on different sides of the predicate
// degrades into a bare insertion or deletion. When the predicate compiles
// to a column kernel, whole batches are evaluated with typed loops and
// survivors copied via the selection vector; batches the kernel declines
// (and predicates that never compiled) bridge through scratch tuples.
type filterOp struct {
	pred expr.Expr
	kern *expr.Kernel
	outs outputs

	// kernel scratch: per-row verdicts over new and old images, and the
	// replace-row selection, reused across batches.
	selNew  []bool
	selOld  []bool
	oldRows []int32
}

// newFilterOp builds the operator and compiles the predicate kernel when
// the expression shape allows it (schema may be nil when the plan did
// not record the input schema).
func newFilterOp(pred expr.Expr, schema []types.Kind) *filterOp {
	f := &filterOp{pred: pred}
	if k, ok := expr.Compile(pred, schema); ok {
		f.kern = k
		kernelCompiled.Add(1)
	}
	return f
}

func (f *filterOp) Push(port int, batch []types.Delta) error {
	out := make([]types.Delta, 0, len(batch))
	for _, d := range batch {
		switch d.Op {
		case types.OpReplace:
			oldOK, err := expr.EvalBool(f.pred, d.Old)
			if err != nil {
				return err
			}
			newOK, err := expr.EvalBool(f.pred, d.Tup)
			if err != nil {
				return err
			}
			switch {
			case oldOK && newOK:
				out = append(out, d)
			case oldOK:
				out = append(out, types.Delete(d.Old))
			case newOK:
				out = append(out, types.Insert(d.Tup))
			}
		default:
			ok, err := expr.EvalBool(f.pred, d.Tup)
			if err != nil {
				return err
			}
			if ok {
				out = append(out, d)
			}
		}
	}
	return f.outs.send(out)
}

// PushBatch is the columnar filter path. With a compiled kernel the
// predicate runs column-wise over the whole batch (one pass for new
// images, one over the old images of replace rows); without one — or
// when the kernel declines the batch — rows bridge through the scratch-
// tuple row path below, which is the semantic ground truth.
func (f *filterOp) PushBatch(port int, b *types.DeltaBatch) error {
	if b.Len() > 0 {
		if f.kern != nil {
			if done, err := f.pushKernel(b); done {
				return err
			}
			kernelFallbackEvals.Add(1)
		} else {
			kernelBridgedBatches.Add(1)
		}
	}
	return f.pushBridged(b)
}

// pushKernel evaluates the predicate kernel over the batch and emits
// survivors via selection-vector copy — no per-row scratch tuples except
// for degraded replaces. done=false declines to the bridged path without
// having emitted anything.
func (f *filterOp) pushKernel(b *types.DeltaBatch) (bool, error) {
	n := b.Len()
	rows := f.kern.AllRows(n)
	f.selNew = growBools(f.selNew, n)
	if !f.kern.EvalBools(b, false, rows, f.selNew) {
		return false, nil
	}
	hasOld := b.HasOld()
	if hasOld {
		f.oldRows = f.oldRows[:0]
		for i := 0; i < n; i++ {
			if b.Op(i) == types.OpReplace {
				f.oldRows = append(f.oldRows, int32(i))
			}
		}
		if len(f.oldRows) > 0 {
			f.selOld = growBools(f.selOld, n)
			if !f.kern.EvalBools(b, true, f.oldRows, f.selOld) {
				return false, nil
			}
		}
	}
	kernelVectorBatches.Add(1)
	out := types.GetBatch()
	defer types.PutBatch(out)
	var scratch types.Tuple
	for i := 0; i < n; i++ {
		if b.Op(i) == types.OpReplace && hasOld {
			oldOK, newOK := f.selOld[i], f.selNew[i]
			switch {
			case oldOK && newOK:
				if !out.CanAppendRowFrom(b, i) {
					if err := f.flushVec(out); err != nil {
						return true, err
					}
				}
				out.AppendRowFrom(b, i)
			case oldOK:
				scratch = b.OldRow(i, scratch)
				d := types.Delete(scratch)
				if !out.CanAppend(d) {
					if err := f.flushVec(out); err != nil {
						return true, err
					}
				}
				out.Append(d)
			case newOK:
				scratch = b.Row(i, scratch)
				d := types.Insert(scratch)
				if !out.CanAppend(d) {
					if err := f.flushVec(out); err != nil {
						return true, err
					}
				}
				out.Append(d)
			}
			continue
		}
		if f.selNew[i] {
			if !out.CanAppendRowFrom(b, i) {
				if err := f.flushVec(out); err != nil {
					return true, err
				}
			}
			out.AppendRowFrom(b, i)
		}
	}
	return true, f.outs.sendBatch(out)
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// pushBridged is the scratch-tuple bridge: rows are evaluated against a
// reused scratch tuple (no per-row allocation) and survivors are copied
// column-wise into a pooled output batch, so typed vectors never round-
// trip through boxed deltas. Replace degradation matches Push exactly.
// This is a documented expr.EvalBool fallback site.
func (f *filterOp) pushBridged(b *types.DeltaBatch) error {
	out := types.GetBatch()
	defer types.PutBatch(out)
	var scratch, oldScratch types.Tuple
	for i := 0; i < b.Len(); i++ {
		if b.Op(i) == types.OpReplace && b.HasOld() {
			oldScratch = b.OldRow(i, oldScratch)
			scratch = b.Row(i, scratch)
			oldOK, err := expr.EvalBool(f.pred, oldScratch)
			if err != nil {
				return err
			}
			newOK, err := expr.EvalBool(f.pred, scratch)
			if err != nil {
				return err
			}
			switch {
			case oldOK && newOK:
				if !out.CanAppendRowFrom(b, i) {
					if err := f.flushVec(out); err != nil {
						return err
					}
				}
				out.AppendRowFrom(b, i)
			case oldOK:
				d := types.Delete(oldScratch)
				if !out.CanAppend(d) {
					if err := f.flushVec(out); err != nil {
						return err
					}
				}
				out.Append(d)
			case newOK:
				d := types.Insert(scratch)
				if !out.CanAppend(d) {
					if err := f.flushVec(out); err != nil {
						return err
					}
				}
				out.Append(d)
			}
			continue
		}
		scratch = b.Row(i, scratch)
		ok, err := expr.EvalBool(f.pred, scratch)
		if err != nil {
			return err
		}
		if ok {
			if !out.CanAppendRowFrom(b, i) {
				if err := f.flushVec(out); err != nil {
					return err
				}
			}
			out.AppendRowFrom(b, i)
		}
	}
	return f.outs.sendBatch(out)
}

func (f *filterOp) flushVec(out *types.DeltaBatch) error {
	if err := f.outs.sendBatch(out); err != nil {
		return err
	}
	out.Reset()
	return nil
}

func (f *filterOp) Punct(port, stratum int, closed bool) error {
	return f.outs.punct(stratum, closed)
}

// projectOp is applyFunction/projection: one expression per output column,
// annotations propagated unchanged (§3.3, stateless operators). Replacement
// deltas map both tuples; no-op replacements are dropped. Deterministic
// UDF calls are memoized (§5.1 "Caching"), and when UDFArgKinds is set the
// operator typechecks boxed arguments per batch — the Go stand-in for the
// paper's Java reflection overhead, amortized by input batching (§4.2).
type projectOp struct {
	exprs    []expr.Expr
	outs     outputs
	memo     map[string]types.Tuple
	memoable bool
	argKinds [][]types.Kind

	// kerns holds one compiled kernel per output expression; nil unless
	// every expression compiled and no per-batch UDF machinery (memo,
	// typecheck) needs the row path.
	kerns   []*expr.Kernel
	newVecs []*types.Vec
	oldVecs []*types.Vec
	oldRows []int32
}

func newProjectOp(exprs []expr.Expr, argKinds [][]types.Kind, schema []types.Kind) *projectOp {
	p := &projectOp{exprs: exprs, argKinds: argKinds}
	p.memoable = true
	for _, e := range exprs {
		if c, ok := e.(*expr.Call); ok && !c.Deterministic {
			p.memoable = false
		}
	}
	hasCall := false
	for _, e := range exprs {
		if _, ok := e.(*expr.Call); ok {
			hasCall = true
		}
	}
	if hasCall && p.memoable {
		p.memo = map[string]types.Tuple{}
	}
	// Kernels apply only to pure column expressions: a UDF anywhere (it
	// would not compile, and memoization/typechecking live on the row
	// path) keeps the whole operator bridged.
	if p.memo == nil && p.argKinds == nil && !hasCall {
		kerns := make([]*expr.Kernel, len(exprs))
		all := true
		for i, e := range exprs {
			k, ok := expr.Compile(e, schema)
			if !ok {
				all = false
				break
			}
			kerns[i] = k
		}
		if all && len(kerns) > 0 {
			p.kerns = kerns
			kernelCompiled.Add(int64(len(kerns)))
		}
	}
	return p
}

func (p *projectOp) apply(t types.Tuple) (types.Tuple, error) {
	if p.memo != nil {
		key := t.String()
		if out, ok := p.memo[key]; ok {
			return out, nil
		}
		out, err := p.eval(t)
		if err != nil {
			return nil, err
		}
		if len(p.memo) < 1<<16 { // bounded cache
			p.memo[key] = out
		}
		return out, nil
	}
	return p.eval(t)
}

func (p *projectOp) eval(t types.Tuple) (types.Tuple, error) {
	out := make(types.Tuple, len(p.exprs))
	for i, e := range p.exprs {
		v, err := e.Eval(t)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// typecheck simulates the reflection-driven argument validation REX
// performs when invoking user code; batching lets the engine do it once
// per batch rather than per tuple.
func (p *projectOp) typecheck(t types.Tuple) error {
	for i, kinds := range p.argKinds {
		if kinds == nil {
			continue
		}
		cols := expr.Columns(p.exprs[i])
		for j, c := range cols {
			if j >= len(kinds) {
				break
			}
			if c < len(t) && t[c] != nil && types.KindOf(t[c]) != kinds[j] {
				return fmt.Errorf("exec: UDF argument %d: got %v want %v", j, types.KindOf(t[c]), kinds[j])
			}
		}
	}
	return nil
}

func (p *projectOp) Push(port int, batch []types.Delta) error {
	if p.argKinds != nil && len(batch) > 0 {
		if err := p.typecheck(batch[0].Tup); err != nil {
			return err
		}
	}
	out := make([]types.Delta, 0, len(batch))
	for _, d := range batch {
		nt, err := p.apply(d.Tup)
		if err != nil {
			return err
		}
		nd := d.WithTuple(nt)
		if d.Op == types.OpReplace {
			ot, err := p.apply(d.Old)
			if err != nil {
				return err
			}
			if nt.Equal(ot) {
				continue // replacement invisible after projection
			}
			nd.Old = ot
		}
		out = append(out, nd)
	}
	return p.outs.send(out)
}

// PushBatch is the columnar projection path: output batches are built
// column-at-a-time from kernel result vectors (new images in one pass,
// old images of replace rows in a second), with no-op replacements
// dropped by a typed row-equality check. Batches the kernels decline —
// and operators whose expressions never compiled — materialize rows and
// run the Push path, the semantic ground truth.
func (p *projectOp) PushBatch(port int, b *types.DeltaBatch) error {
	if b.Len() > 0 {
		if p.kerns != nil {
			if done, err := p.pushKernel(b); done {
				return err
			}
			kernelFallbackEvals.Add(1)
		} else {
			kernelBridgedBatches.Add(1)
		}
	}
	return p.Push(port, b.Deltas())
}

func (p *projectOp) pushKernel(b *types.DeltaBatch) (bool, error) {
	n := b.Len()
	p.oldRows = p.oldRows[:0]
	for i := 0; i < n; i++ {
		if b.Op(i) == types.OpReplace {
			p.oldRows = append(p.oldRows, int32(i))
		}
	}
	if len(p.oldRows) > 0 && !b.HasOld() {
		return false, nil // degenerate replace without old images: row path arbitrates
	}
	if p.newVecs == nil {
		p.newVecs = make([]*types.Vec, len(p.kerns))
		p.oldVecs = make([]*types.Vec, len(p.kerns))
		for j := range p.kerns {
			p.newVecs[j] = new(types.Vec)
			p.oldVecs[j] = new(types.Vec)
		}
	}
	rows := p.kerns[0].AllRows(n)
	for j, k := range p.kerns {
		if !k.EvalInto(b, false, rows, p.newVecs[j]) {
			return false, nil
		}
	}
	if len(p.oldRows) > 0 {
		for j, k := range p.kerns {
			if !k.EvalInto(b, true, p.oldRows, p.oldVecs[j]) {
				return false, nil
			}
		}
	}
	kernelVectorBatches.Add(1)
	out := types.GetBatch()
	defer types.PutBatch(out)
	for i := 0; i < n; i++ {
		op := b.Op(i)
		if op == types.OpReplace {
			if types.VecRowEq(p.newVecs, p.oldVecs, i) {
				continue // replacement invisible after projection
			}
			out.AppendVecRow(op, p.newVecs, p.oldVecs, i)
			continue
		}
		out.AppendVecRow(op, p.newVecs, nil, i)
	}
	return true, p.outs.sendBatch(out)
}

func (p *projectOp) Punct(port, stratum int, closed bool) error {
	return p.outs.punct(stratum, closed)
}

// tvfOp is the dependent-join operator: each input delta is passed to a
// table-valued function whose results are emitted (§4.2). TVFs may create
// or manipulate annotations arbitrarily, like applyFunction.
type tvfOp struct {
	fn   *catalog.TVFDef
	outs outputs
}

func (o *tvfOp) Push(port int, batch []types.Delta) error {
	var out []types.Delta
	for _, d := range batch {
		res, err := o.fn.Fn(d)
		if err != nil {
			return fmt.Errorf("exec: TVF %s: %w", o.fn.Name, err)
		}
		out = append(out, res...)
	}
	return o.outs.send(out)
}

func (o *tvfOp) Punct(port, stratum int, closed bool) error {
	return o.outs.punct(stratum, closed)
}

// outputOp forwards result deltas to the query requestor and reports
// completion when its input closes. Result frames use the reserved edge.
type outputOp struct {
	ctx *Context
}

// resultEdge is the reserved transport edge for result traffic.
const resultEdge = -1

func (o *outputOp) Push(port int, batch []types.Delta) error {
	payload := cluster.EncodeDeltas(batch)
	o.ctx.Transport.SendToRequestor(cluster.Message{
		From: o.ctx.Node, Kind: cluster.MsgData, Edge: resultEdge,
		Payload: payload, Count: len(batch), Epoch: o.ctx.Epoch,
	})
	return nil
}

// PushBatch ships a result batch in the columnar wire format without
// materializing rows. The payload buffer is freshly allocated, not pooled:
// requestor-bound messages are delivered by reference in-process, so the
// payload outlives this call.
func (o *outputOp) PushBatch(port int, b *types.DeltaBatch) error {
	payload := cluster.EncodeDeltaBatch(nil, b)
	o.ctx.Transport.SendToRequestor(cluster.Message{
		From: o.ctx.Node, Kind: cluster.MsgData, Edge: resultEdge,
		Payload: payload, Count: b.Len(), Epoch: o.ctx.Epoch,
	})
	return nil
}

func (o *outputOp) Punct(port, stratum int, closed bool) error {
	if closed {
		o.ctx.Transport.SendToRequestor(cluster.Message{
			From: o.ctx.Node, Kind: cluster.MsgPunct, Edge: resultEdge,
			Stratum: stratum, Epoch: o.ctx.Epoch,
		})
	}
	return nil
}

// describeExprs renders expressions for EXPLAIN.
func describeExprs(es []expr.Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}
