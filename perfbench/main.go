// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed time from a seed and prints, as the last line of
// standard output, one JSON object with the run's correctness verdict, its
// op counts and its metrics:
//
//	bash perfbench/run.sh --workload pagerank-batch --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end set of BENCHMARK.json,
// measured with no instrumentation installed. With --trace 1 they are the
// per-layer set: the first half of the measured time runs untraced, the
// second half with spans and decorators on, and the difference between
// the halves' median op latency is reported as the tracing overhead.
// README.md in this directory says why each workload exists and which
// end-to-end metric each per-layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"github.com/rex-data/rex"
)

// metricDef names one metric of BENCHMARK.json and its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in its
// order; every workload reports all of them (the self-test checks the two
// lists against the file). A per-layer metric whose layer a workload does
// not reach reads 0 with a sample count of 0. A unit starting with
// "exact" marks a count that repeats exactly on a fixed seed.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"}, {"op_p50_ms", "ms"}, {"op_p90_ms", "ms"}, {"ops_per_s", "1/s"}, {"mem_mb", "MB"},
	}
	perLayer = []metricDef{
		{"exec.self_ms_per_op", "ms"}, {"exec.load_ms_per_op", "ms"}, {"job.build_ms_per_op", "ms"},
		{"exec.strata_per_op", "exact/op"}, {"exec.new_tuples_per_op", "exact/op"}, {"exec.stratum_ms_p50", "ms"},
		{"exec.round_ms_p50", "ms"}, {"exec.round_wait_ms_p50", "ms"}, {"exec.ingests_per_round", "count"},
		{"exec.coalesce_ratio", "ratio"},
		{"cluster.send_ms_per_op", "ms"}, {"cluster.messages_per_op", "count/op"}, {"cluster.wire_bytes_per_op", "B/op"},
		{"cluster.bytes_per_delta", "B"}, {"cluster.compact_ratio", "ratio"}, {"cluster.ingest_bytes_per_op", "B/op"},
		{"expr.kernel_batch_share", "ratio"}, {"expr.fallback_evals_per_op", "count/op"},
		{"storage.scan_ms_per_read", "ms"}, {"storage.apply_ms_per_write", "ms"}, {"storage.pool_hit_rate", "ratio"},
		{"storage.evictions_per_op", "count/op"}, {"storage.spilled_bytes_per_op", "B/op"},
		{"server.plan_cache_hit_rate", "ratio"}, {"server.compiles_per_op", "count/op"},
		{"server.queue_depth_mean", "count"}, {"server.refused_share", "ratio"},
		{"rql.compile_us", "us"}, {"go.alloc_bytes_per_op", "B/op"}, {"go.gc_pause_ms_per_op", "ms"},
		{"trace.op_p50_ms", "ms"}, {"trace.overhead_ms", "ms"},
	}
)

// setups is how many times a run sets its workload up; setup_s is their
// median and the last set-up is measured.
const setups = 3

// config is one run's parameters.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// workDir holds files a workload writes (paged stores); it is
	// removed when the run ends.
	workDir string
}

type workload struct {
	name string
	run  func(ctx context.Context, cfg config) (*report, error)
}

var workloads = []workload{
	{"pagerank-batch", runPageRank},
	{"sssp-standing", runSSSP},
	{"server-mixed", runServer},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run parses args, runs the workload or daemon they name and returns the
// process exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	node := fs.Bool("node", false, "serve as a rexnode worker daemon (sssp-standing spawns this binary so)")
	listen := fs.String("listen", "127.0.0.1:0", "daemon listen address, with -node")
	memDir := fs.String("mem-dir", "", "with -node, write the daemon's median memory in MB into this directory on exit")
	name := fs.String("workload", "", "workload to run: pagerank-batch | sssp-standing | server-mixed")
	seed := fs.Int64("seed", 1, "seed from which the workload's inputs are generated")
	seconds := fs.Int("seconds", 30, "measured time in seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics from a traced run, 0 the end-to-end metrics")
	workDir := fs.String("workdir", ".bench_build/work", "directory for files the run writes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
		return 1
	}

	if *node {
		mem := startMemSampler()
		err := rex.ServeNode(*listen, os.Stderr)
		mb := mem.stop()
		if err == nil && *memDir != "" {
			err = os.WriteFile(filepath.Join(*memDir, fmt.Sprintf("node-%d.mb", os.Getpid())), []byte(strconv.FormatFloat(mb, 'g', -1, 64)), 0o644)
		}
		if err != nil {
			return fail("node: %v", err)
		}
		return 0
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of pagerank-batch, sssp-standing, server-mixed), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(*workDir, fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		return fail("work directory: %v", err)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, workDir: dir}
	rep, err := w.run(context.Background(), cfg)
	os.RemoveAll(dir)
	if err != nil {
		return fail("%s: %v", w.name, err)
	}
	if cfg.trace {
		out := filepath.Join(*workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		if err := rep.spans.writeFile(out); err != nil {
			return fail("%v", err)
		}
	}
	line, err := rep.print(stdout, cfg.trace)
	if err != nil {
		return fail("%s: %v", w.name, err)
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// value is one measured metric with the number of samples behind it.
type value struct {
	v float64
	n int
}

// report is what a workload run measured and whether its outputs were
// right.
type report struct {
	correct           bool
	attempted, failed int
	values            map[string]value
	// notes are informational lines printed before the result (result
	// hashes, exact counts, per-class series).
	notes []string
	spans *spanLog
}

func newReport() *report { return &report{correct: true, values: map[string]value{}} }

func (r *report) set(name string, v float64, n int) { r.values[name] = value{v, n} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// mismatch records an oracle failure: the run is reported incorrect.
func (r *report) mismatch(format string, args ...any) {
	r.correct = false
	r.note("MISMATCH: "+format, args...)
}

// print writes the notes and one line per metric of the end-to-end or,
// with layers, the per-layer set (value, unit, sample count), and returns
// the final JSON result line.
func (r *report) print(w io.Writer, layers bool) (string, error) {
	defs := endToEnd
	if layers {
		defs = perLayer
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]metric{}}
	for _, m := range defs {
		v, ok := r.values[m.name]
		if !ok {
			if !layers {
				return "", fmt.Errorf("metric %s was not measured", m.name)
			}
			v = value{} // the workload does not reach this layer
		}
		fmt.Fprintf(w, "# %-28s %16.6g %-8s n=%d\n", m.name, v.v, m.unit, v.n)
		out.Metrics[m.name] = metric{v.v, m.unit}
	}
	if out.Attempted < 1 {
		return "", fmt.Errorf("no op was attempted")
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[int64]V) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
