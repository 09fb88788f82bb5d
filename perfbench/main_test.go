package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"github.com/rex-data/rex/internal/algos"
	"github.com/rex-data/rex/internal/datagen"
	"github.com/rex-data/rex/internal/types"
)

// TestMain lets the test binary serve as the sssp-standing daemons, which
// the workload spawns from os.Executable with -node.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-node" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMetricListsMatchBenchmarkFile keeps the program's metric and
// workload lists equal to BENCHMARK.json.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	check := func(kind string, file []struct{ Name, Unit string }, prog []metricDef) {
		if len(file) != len(prog) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(file), len(prog))
		}
		for i := range file {
			if file[i].Name != prog[i].name || file[i].Unit != prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, file[i].Name, file[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i := range workloads {
		if f.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, f.Workloads[i].Name, workloads[i].name)
		}
	}
}

var metricLine = regexp.MustCompile(`^# (\S+) +(\S+) +(\S+) +n=(\d+)$`)

// runShort runs one workload briefly and checks its output: a final JSON
// line with exactly the contract's keys, a correct verdict, and one
// "name value unit n=samples" line per metric of the mode's set, with the
// unit BENCHMARK.json gives it.
func runShort(t *testing.T, workload, seconds string, trace bool) string {
	t.Helper()
	mode, defs := "0", endToEnd
	if trace {
		mode, defs = "1", perLayer
	}
	var out bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "7", "--seconds", seconds, "--trace", mode, "--workdir", t.TempDir()}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if code != 0 {
		t.Fatalf("%s trace=%s exited %d:\n%s", workload, mode, code, out.String())
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", workload, err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("%s: result keys %v", workload, res)
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if string(res["correct"]) != "true" || len(metrics) != len(defs) {
		t.Fatalf("%s: correct=%s with %d metrics:\n%s", workload, res["correct"], len(metrics), out.String())
	}
	printed := map[string]string{}
	for _, l := range lines {
		if m := metricLine.FindStringSubmatch(l); m != nil {
			printed[m[1]] = m[3]
		}
	}
	for _, d := range defs {
		if metrics[d.name].Unit != d.unit || printed[d.name] != d.unit {
			t.Errorf("%s: metric %s has unit %q in the result and %q printed, want %q",
				workload, d.name, metrics[d.name].Unit, printed[d.name], d.unit)
		}
		if !trace && metrics[d.name].Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", workload, d.name, metrics[d.name].Value)
		}
	}
	return out.String()
}

// note returns the value of the "# <key> ..." line in out.
func note(out, key string) string {
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "# "+key+" ") {
			return strings.TrimPrefix(l, "# "+key+" ")
		}
	}
	return ""
}

// TestWorkloadsShort runs every workload untraced and traced for a short
// time. Each run checks its own oracle; on pagerank-batch, whose result
// does not depend on how many ops ran, tracing must also leave the result
// hashes and exact counts unchanged.
func TestWorkloadsShort(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload twice")
	}
	for _, w := range []struct{ name, seconds string }{
		{"pagerank-batch", "4"}, {"sssp-standing", "2"}, {"server-mixed", "2"},
	} {
		t.Run(w.name, func(t *testing.T) {
			plain := runShort(t, w.name, w.seconds, false)
			traced := runShort(t, w.name, w.seconds, true)
			if w.name != "pagerank-batch" {
				return
			}
			for _, key := range []string{"result_hash", "exact"} {
				if a, b := note(plain, key), note(traced, key); a == "" || a != b {
					t.Errorf("%s differs with tracing: %q untraced, %q traced", key, a, b)
				}
			}
		})
	}
}

// TestListing1Ref pins the pagerank-batch oracle to Listing 1's semantics:
// a vertex without an in-edge keeps its base rank 1.0, its out-neighbours
// are refreshed from that rank, and on a graph where every vertex has an
// in-edge the oracle is textbook PageRank.
func TestListing1Ref(t *testing.T) {
	edge := func(s, d int64) types.Tuple { return types.NewTuple(s, d) }
	// 0 has no in-edge; 1 → 2 → 1 is a cycle fed by 0.
	g := &datagen.Graph{NumVertices: 3, Edges: []types.Tuple{edge(0, 1), edge(1, 2), edge(2, 1)}}
	got, unrefreshed := listing1Ref(g, 1e-12, 1000)
	if unrefreshed != 1 || got[0] != 1.0 {
		t.Fatalf("vertex 0: rank %v, %d unrefreshed; want 1.0 and 1", got[0], unrefreshed)
	}
	// pr1 = 0.15 + 0.85·(pr0 + pr2), pr2 = 0.15 + 0.85·pr1 with pr0 = 1.
	pr1 := (0.15 + 0.85*1.0 + 0.85*0.15) / (1 - 0.85*0.85)
	if math.Abs(got[1]-pr1) > 1e-9 || math.Abs(got[2]-(0.15+0.85*pr1)) > 1e-9 {
		t.Fatalf("ranks %v, want %v and %v for vertices 1 and 2", got, pr1, 0.15+0.85*pr1)
	}

	full := datagen.DBPediaGraph(400, 7)
	want, _ := algos.PageRankRef(full, 1e-9, 500)
	got, unrefreshed = listing1Ref(full, 1e-9, 500)
	if unrefreshed != 0 {
		t.Fatalf("graph has %d vertices without an in-edge; the check needs none", unrefreshed)
	}
	if d := maxRelDiff(got, want); d != 0 {
		t.Fatalf("differs from algos.PageRankRef by %v on a graph where every vertex has an in-edge", d)
	}
}
