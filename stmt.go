package rex

import (
	"context"
	"fmt"

	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/rql"
	"github.com/rex-data/rex/internal/srvproto"
)

// Stmt is a prepared RQL statement: the query is parsed, bound, and
// planned once at Prepare time, and executed many times with $1-style
// parameter values bound per run — serving workloads skip the
// reparse/replan entirely. Parameter types are inferred from context
// during binding (comparison partner, arithmetic partner, UDF signature);
// integer values coerce to float where a float was inferred.
//
// On a TCP session plans cannot ship across the wire (every daemon
// recompiles from the job spec), so Prepare validates and plans once
// driver-side and each execution binds the values into the query text as
// literals instead. On a server session the statement compiles into the
// rexd server's shared plan cache, and executions ship the text plus the
// bound argument values — the cached plan is keyed by the text alone, so
// every execution of the statement, whatever its arguments, reuses it.
type Stmt struct {
	sess *Session
	src  string

	// plan is the compiled plan (in-process sessions only; a TCP
	// session's daemons recompile from the job spec). prep carries the
	// inferred parameter kinds on both paths, so argument type errors
	// surface driver-side before anything executes.
	plan *exec.PlanSpec
	prep *rql.Prepared

	// remote marks a server-session statement; nparams is the parameter
	// count the server reported at Prepare (argument kinds are checked
	// server-side at bind time).
	remote  bool
	nparams int

	// def carries the statement's Prepare-time default options; an
	// execution passing a zero Options value inherits them.
	def Options
}

// Prepare compiles an RQL statement with $N placeholders for repeated
// execution. QueryOptions become the statement's defaults: executions
// that pass a zero Options value inherit them (a non-zero per-execution
// Options replaces them wholesale).
func (s *Session) Prepare(src string, qopts ...QueryOption) (*Stmt, error) {
	def := buildOptions(qopts)
	if s.srv != nil {
		tr, err := s.srv.roundTrip(context.Background(), srvproto.Request{Op: srvproto.OpPrepare, Src: src})
		if err != nil {
			return nil, err
		}
		return &Stmt{sess: s, src: src, remote: true, nparams: tr.NumParams, def: def}, nil
	}
	if s.jc != nil {
		// Validate against the session's schema catalog, staged at Open
		// like the daemons' (dataset schemas plus the handler bundle).
		if s.schemaCat == nil {
			return nil, fmt.Errorf("rex: TCP sessions need WithDataset to stage data for RQL queries")
		}
		_, prep, err := rql.CompileStmt(src, s.schemaCat, s.Nodes())
		if err != nil {
			return nil, err
		}
		return &Stmt{sess: s, src: src, prep: prep, def: def}, nil
	}
	plan, prep, err := rql.CompileStmt(src, s.cat, s.cfg.nodes)
	if err != nil {
		return nil, err
	}
	return &Stmt{sess: s, src: src, plan: plan, prep: prep, def: def}, nil
}

// effOpts resolves one execution's options: a zero per-call Options
// falls back to the statement's Prepare-time defaults.
func (st *Stmt) effOpts(opts Options) Options {
	if isZeroOpts(opts) {
		return st.def
	}
	return opts
}

// isZeroOpts reports whether o is the zero Options value (Options holds
// func fields, so it is not comparable with ==).
func isZeroOpts(o Options) bool {
	return o.BatchSize == 0 && o.MaxStrata == 0 && o.Recovery == RecoveryNone &&
		!o.Checkpoint && !o.Compaction && o.CompactionHighWater == 0 &&
		!o.Stream && o.TermFn == nil && o.OnStratum == nil &&
		o.Recover == nil && o.SpillDir == "" && o.BufferPoolPages == 0 &&
		o.Tenant == "" && o.Priority == 0
}

// NumParams reports the statement's placeholder count.
func (st *Stmt) NumParams() int {
	if st.remote {
		return st.nparams
	}
	return st.prep.NumParams()
}

// QueryCtx executes the statement under a context with the given options
// and parameter values. A zero Options inherits the Prepare-time
// defaults (see Prepare's QueryOptions).
func (st *Stmt) QueryCtx(ctx context.Context, opts Options, args ...Value) (*Result, error) {
	s := st.sess
	opts = st.effOpts(opts)
	if st.remote {
		if err := st.checkRemoteArgs(args); err != nil {
			return nil, err
		}
		return s.serverQuery(ctx, st.src, args, opts)
	}
	if s.jc != nil {
		src, err := st.bindText(args)
		if err != nil {
			return nil, err
		}
		spec, err := s.rqlSpec(src, opts)
		if err != nil {
			return nil, err
		}
		return s.runTCP(ctx, spec, driverTune(opts))
	}
	if err := s.lock(); err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	if err := st.prep.Bind(args); err != nil {
		return nil, err
	}
	return s.runInProcLocked(ctx, st.plan, opts)
}

// StreamCtx executes the statement in streaming-result mode (see
// Session.Stream). A zero Options inherits the Prepare-time defaults.
func (st *Stmt) StreamCtx(ctx context.Context, opts Options, args ...Value) (*DeltaStream, error) {
	s := st.sess
	opts = st.effOpts(opts)
	if st.remote {
		if err := st.checkRemoteArgs(args); err != nil {
			return nil, err
		}
		return s.serverStream(ctx, st.src, args, opts)
	}
	if s.jc != nil {
		src, err := st.bindText(args)
		if err != nil {
			return nil, err
		}
		spec, err := s.rqlSpec(src, opts)
		if err != nil {
			return nil, err
		}
		if err := s.lock(); err != nil {
			return nil, err
		}
		stream, err := s.jc.StreamCtx(ctx, spec, driverTune(opts))
		return s.unlockWhenDone(stream, err)
	}
	if err := s.lock(); err != nil {
		return nil, err
	}
	if err := st.prep.Bind(args); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	stream, err := s.eng.Stream(ctx, st.plan, opts)
	return s.unlockWhenDone(stream, err)
}

// checkRemoteArgs enforces the arity the server reported; value kinds
// are checked server-side when the cached plan binds them.
func (st *Stmt) checkRemoteArgs(args []Value) error {
	if len(args) != st.nparams {
		return fmt.Errorf("rex: statement wants %d parameters, got %d", st.nparams, len(args))
	}
	return nil
}

// bindText typechecks args against the inferred parameter kinds and
// renders the coerced values into the statement text for the wire (TCP
// path) — an int bound where a float was inferred ships as a float
// literal, matching what the in-process path would execute.
func (st *Stmt) bindText(args []Value) (string, error) {
	vals, err := st.prep.Check(args)
	if err != nil {
		return "", err
	}
	return rql.BindText(st.src, vals)
}
