// Command rexbench regenerates the tables and figures of the REX paper's
// evaluation section (§6), plus a transport suite that runs PageRank,
// SSSP, and K-means on a selectable transport backend. Each experiment
// prints the same rows/series the paper plots; see EXPERIMENTS.md for
// paper-vs-measured commentary.
//
// Usage:
//
//	rexbench -exp all            # every figure at the default scale
//	rexbench -exp fig6,fig12     # selected figures
//	rexbench -exp fig6 -scale 4  # 4× the default dataset sizes
//
//	rexbench -transport tcp                      # spawn rexnode children, run over sockets
//	rexbench -transport tcp -peers h1:7101,...   # drive already-running rexnode daemons
//
// With -transport tcp the figure experiments are skipped (they measure
// the simulated substrate) and the transport suite runs across real OS
// processes; its JSON record carries result hashes comparable against an
// inproc run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/rex-data/rex"
	"github.com/rex-data/rex/internal/bench"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/job"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids (fig2..fig12) or 'all'")
	scale := flag.Float64("scale", 1.0, "dataset scale multiplier")
	nodes := flag.Int("nodes", 0, "override cluster size")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonPath := flag.String("json", "", "write a machine-readable summary (experiment timings plus wire-traffic benchmarks) to this file")
	transport := flag.String("transport", "inproc", "transport backend: inproc (goroutine nodes) | tcp (one OS process per node)")
	peers := flag.String("peers", "", "comma-separated rexnode addresses for -transport tcp; spawns local daemons when empty")
	nodeMode := flag.Bool("node", false, "run as a rexnode worker daemon (internal: used by -transport tcp auto-spawn)")
	listen := flag.String("listen", "127.0.0.1:0", "daemon listen address (with -node)")
	flag.Parse()

	if *nodeMode {
		if err := rex.ServeNode(*listen, os.Stderr); err != nil {
			fatalf("%v", err)
		}
		return
	}

	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
		return
	}

	sc := bench.DefaultScale().Scaled(*scale)
	if *nodes > 0 {
		sc.Nodes = *nodes
	}

	record := &bench.CIRecord{
		SchemaVersion: bench.CISchemaVersion,
		GoVersion:     runtime.Version(),
		Commit:        commitID(),
		Scale:         *scale, Nodes: sc.Nodes, Transport: *transport,
	}
	if err := run(sc, record, *transport, *peers, *exp, *jsonPath); err != nil {
		fatalf("%v", err)
	}
}

// commitID identifies the built revision so JSON artifacts are comparable
// across runs: the VCS stamp when the binary was built inside a checkout,
// else the CI-provided SHA, else "unknown".
func commitID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	return "unknown"
}

func run(sc bench.Scale, record *bench.CIRecord, transport, peers, exp, jsonPath string) error {
	// Pick the transport suite's runner: the in-process engine, or a
	// session over rexnode worker processes (the public rex.Open path).
	var runner bench.Runner
	switch transport {
	case "inproc":
		runner = job.RunInProc
	case "tcp":
		var sess *rex.Session
		var err error
		if peers != "" {
			sess, err = rex.Open(context.Background(), rex.WithTCPPeers(job.ParsePeers(peers)...))
		} else {
			fmt.Printf("spawning %d local rexnode daemons\n", sc.Nodes)
			sess, err = rex.Open(context.Background(), rex.WithAutoSpawn(sc.Nodes))
		}
		if err != nil {
			return err
		}
		defer sess.Close()
		// The peer list, not the default scale, decides the cluster
		// size: keep the suite specs and the JSON record honest.
		sc.Nodes = sess.Nodes()
		record.Nodes = sc.Nodes
		runner = func(spec *job.Spec, tune func(*exec.Options)) (*exec.Result, error) {
			return sess.RunWorkload(context.Background(), spec, tune)
		}
	default:
		return fmt.Errorf("unknown transport %q (inproc | tcp)", transport)
	}

	// Figure experiments measure the simulated substrate; they run only
	// in-process. "-exp none" skips them entirely (the bench-trend CI job
	// wants just the transport + standing suites).
	if transport == "inproc" && exp != "none" {
		want := map[string]bool{}
		for _, id := range strings.Split(exp, ",") {
			want[strings.TrimSpace(id)] = true
		}
		ran := 0
		for _, e := range bench.Experiments {
			if !want["all"] && !want[e.ID] {
				continue
			}
			ran++
			start := time.Now()
			if err := e.Run(os.Stdout, sc); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			dur := time.Since(start)
			record.Experiments = append(record.Experiments, bench.CIExperiment{
				ID: e.ID, Millis: float64(dur) / float64(time.Millisecond),
			})
			fmt.Printf("\n[%s completed in %v]\n", e.ID, dur.Round(time.Millisecond))
		}
		if ran == 0 {
			return fmt.Errorf("no experiment matches %q (use -list)", exp)
		}
	}

	// The transport suite runs on every backend: identical plans and
	// seeds, so its result hashes are comparable across transports.
	suite, err := bench.TransportSuite(os.Stdout, sc, transport, runner)
	if err != nil {
		return err
	}
	record.Suite = suite

	// Shuffle inner-loop benchmark: row vs columnar decode→route→encode.
	// Pure CPU work, identical on every backend — measured once, on the
	// inproc record.
	if transport == "inproc" {
		inner, err := bench.InnerLoopBench(os.Stdout)
		if err != nil {
			return fmt.Errorf("inner-loop benchmark: %w", err)
		}
		record.InnerLoop = inner

		// Expression-kernel microloop: the filter inner loop with compiled
		// column kernels vs the scratch-tuple bridge.
		kern, err := bench.KernelBench(os.Stdout)
		if err != nil {
			return fmt.Errorf("kernel benchmark: %w", err)
		}
		record.Kernel = kern

		// Spill workload: the SSSP suite spec through paged stores whose
		// buffer pool is far smaller than the dataset, gated against the
		// in-RAM hash.
		spill, err := bench.SpillBench(os.Stdout, sc)
		if err != nil {
			return fmt.Errorf("spill benchmark: %w", err)
		}
		record.Spill = spill
	}

	// Standing-query suite: resident dataflow + incremental ingestion vs
	// from-scratch recompute, on the same backend. It opens its own
	// session (auto-spawning fresh daemons when no peers were given — this
	// binary serves -node).
	standing, err := standingSuite(os.Stdout, sc, transport, peers)
	if err != nil {
		return err
	}
	record.Standing = standing

	if jsonPath != "" {
		if transport == "inproc" {
			wire, err := bench.WireBench(sc)
			if err != nil {
				return fmt.Errorf("wire benchmark: %w", err)
			}
			record.Wire = wire
		}
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		werr := record.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("write %s: %w", jsonPath, werr)
		}
		fmt.Printf("\n[summary written to %s]\n", jsonPath)
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rexbench: "+format+"\n", args...)
	os.Exit(1)
}
