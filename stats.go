package rex

import (
	"context"
	"fmt"

	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/srvproto"
)

// KernelStats snapshots the expression-kernel counters: kernels compiled
// at operator instantiation, batches evaluated column-wise, batches
// bridged row-by-row through scratch tuples, and batches a compiled
// kernel declined back to the row interpreter.
type KernelStats = exec.KernelStats

// Stats is the unified session snapshot: one call covers the server
// counters, the buffer-pool counters, and the live subscription's rounds.
// Fields that do not apply to
// the session's transport are zero — an in-process session has no
// Server block, a server session's pool counters live inside it.
type Stats struct {
	// Transport names the session's backend: "inproc", "tcp", or
	// "server". Nodes is the worker count (the server pool's size on a
	// server session).
	Transport string
	Nodes     int
	// Pool aggregates buffer-pool traffic across an in-process session's
	// paged stores (WithSpillDir); all-zero otherwise. A rexd server's
	// pool counters are inside Server.
	Pool PoolStats
	// BytesShipped is the measured inter-worker wire volume (zero on a
	// server session — the server's pool does the shipping).
	BytesShipped int64
	// Kernel is the process-wide expression-kernel counter snapshot for
	// local (inproc/tcp) sessions. On a server session the server's own
	// kernel counters travel inside Server instead.
	Kernel KernelStats
	// Server is the rexd server's counter snapshot on server sessions —
	// admission, plan cache, scheduler (sub-pools, inflight, queue
	// depth), and the per-tenant quota counters. Nil otherwise.
	Server *ServerStats
	// SubscriptionRounds is the live subscription's per-round history
	// (initial fixpoint included); nil when no subscription is live.
	SubscriptionRounds []RoundStats
}

// Stats reports the session's unified statistics snapshot. On a server
// session it round-trips to the server for the scheduler and plan-cache
// counters; elsewhere it assembles locally and the error is always nil.
func (s *Session) Stats(ctx context.Context) (*Stats, error) {
	st := &Stats{Nodes: s.Nodes()}
	switch {
	case s.srv != nil:
		st.Transport = "server"
		tr, err := s.srv.roundTrip(ctx, srvproto.Request{Op: srvproto.OpStats})
		if err != nil {
			return nil, err
		}
		if tr.Stats == nil {
			return nil, fmt.Errorf("rex: server sent a stats reply without stats")
		}
		st.Server = tr.Stats
	case s.jc != nil:
		st.Transport = "tcp"
		st.BytesShipped = s.BytesShipped()
		st.Kernel = exec.ReadKernelStats()
	default:
		st.Transport = "inproc"
		st.Pool = s.eng.PoolStats()
		st.BytesShipped = s.BytesShipped()
		st.Kernel = exec.ReadKernelStats()
	}
	if sub := s.liveSub(); sub != nil {
		st.SubscriptionRounds = sub.Rounds()
	}
	return st, nil
}
