package job_test

// Columnar equivalence over real sockets: with compaction off the shuffle
// actually ships columnar frames, so these runs exercise the
// near-zero-copy wire path end to end across OS-process boundaries. The
// result hash must match the in-process run of the same spec.

import (
	"testing"

	"github.com/rex-data/rex/internal/bench"
	"github.com/rex-data/rex/internal/job"
)

func TestVectorizeTCPEquivalence(t *testing.T) {
	const nodes = 3
	cl := startCluster(t, nodes)
	specs := []*job.Spec{
		{Workload: "sssp", Nodes: nodes, Seed: 1, Size: 300, Source: 0,
			Delta: true, MaxIterations: 300},
		{Workload: "pagerank", Nodes: nodes, Seed: 1, Size: 250, Epsilon: 0.001,
			Delta: true, MaxIterations: 60},
	}
	for _, spec := range specs {
		inRes, err := job.RunInProc(clone(spec), nil)
		if err != nil {
			t.Fatalf("inproc %s: %v", spec.Workload, err)
		}
		want := bench.ResultHash(inRes.Tuples)

		vecRes, err := cl.Run(clone(spec), nil)
		if err != nil {
			t.Fatalf("tcp %s: %v", spec.Workload, err)
		}
		if got := bench.ResultHash(vecRes.Tuples); got != want {
			t.Errorf("%s: tcp hash %s != inproc %s", spec.Workload, got, want)
		}
	}
}
