// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§6). Each Fig* function runs the
// corresponding experiment at a configurable scale and renders the same
// rows/series the paper plots. Absolute numbers differ from the authors'
// 28-machine cluster (the substrate here is a simulated cluster); the
// comparisons — who wins, by what factor, where crossovers fall — are the
// reproduction target (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/rex-data/rex/internal/algos"
	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/datagen"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/mapred"
	"github.com/rex-data/rex/internal/types"
)

// Scale sizes the experiments. Defaults reproduce every figure in
// seconds-to-minutes on a laptop; raise the knobs to stress-test.
type Scale struct {
	// Nodes is the simulated cluster size for REX.
	Nodes int
	// Workers is the Hadoop slot count (paper: 4 tasks × 28 machines).
	Workers int
	// DBPediaVertices sizes the DBPedia-like graph (paper: 3.3M).
	DBPediaVertices int
	// TwitterVertices sizes the Twitter-like graph (paper: 41M).
	TwitterVertices int
	// GeoBasePoints sizes the K-means base dataset (paper: 328K).
	GeoBasePoints int
	// LineItemRows sizes the TPC-H table (paper: 60M).
	LineItemRows int
	// HadoopStartup is the per-job startup charge. The paper identifies
	// Hadoop's "substantial startup and tear-down overhead" (§6.7) as a
	// dominant cost for iteration; scaled to our runtimes.
	HadoopStartup time.Duration
	// Epsilon is the PageRank convergence threshold (paper: 1%).
	Epsilon float64
}

// DefaultScale is the laptop-sized configuration.
func DefaultScale() Scale {
	return Scale{
		Nodes:           4,
		Workers:         4,
		DBPediaVertices: 4000,
		TwitterVertices: 6000,
		GeoBasePoints:   400,
		LineItemRows:    60000,
		HadoopStartup:   30 * time.Millisecond,
		Epsilon:         0.001,
	}
}

// Scaled multiplies the dataset sizes by f (rexbench -scale); node and
// worker counts are unchanged.
func (s Scale) Scaled(f float64) Scale {
	s.DBPediaVertices = int(float64(s.DBPediaVertices) * f)
	s.TwitterVertices = int(float64(s.TwitterVertices) * f)
	s.GeoBasePoints = int(float64(s.GeoBasePoints) * f)
	s.LineItemRows = int(float64(s.LineItemRows) * f)
	return s
}

// Report is one experiment's tabular output.
type Report struct {
	Title   string
	Notes   string
	Headers []string
	Rows    [][]string
}

// Print renders the report as an aligned text table.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", r.Title)
	if r.Notes != "" {
		fmt.Fprintf(w, "%s\n", r.Notes)
	}
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(r.Headers)
	sep := make([]string, len(r.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

// graphCatalog builds a catalog with the standard experiment tables.
func graphCatalog() *catalog.Catalog {
	cat := catalog.New()
	_ = cat.AddTable(&catalog.Table{Name: "graph", Schema: types.MustSchema("srcId:Integer", "destId:Integer"), PartitionKey: 0})
	_ = cat.AddTable(&catalog.Table{Name: "spseed", Schema: types.MustSchema("srcId:Integer", "dist:Double"), PartitionKey: 0})
	_ = cat.AddTable(&catalog.Table{Name: "points", Schema: types.MustSchema("id:Integer", "x:Double", "y:Double"), PartitionKey: 0})
	_ = cat.AddTable(&catalog.Table{Name: "kmseed", Schema: types.MustSchema("cid:Integer", "x:Double", "y:Double"), PartitionKey: 0})
	_ = cat.AddTable(&catalog.Table{Name: "lineitem", Schema: types.MustSchema(datagen.LineItemSchema...), PartitionKey: 0})
	_ = cat.AddTable(&catalog.Table{Name: "mrstate", Schema: types.MustSchema("k:Integer", "v:String"), PartitionKey: 0})
	return cat
}

// runRexPageRank executes PageRank on a fresh REX engine, returning the
// result and the engine (for metrics).
func runRexPageRank(g *datagen.Graph, nodes int, cfg algos.PageRankConfig, opts exec.Options) (*exec.Result, *exec.Engine, error) {
	cat := graphCatalog()
	jn, wn, err := algos.RegisterPageRank(cat, cfg)
	if err != nil {
		return nil, nil, err
	}
	eng := exec.NewEngine(nodes, 32, 3, cat)
	if err := eng.Load("graph", 0, g.Edges); err != nil {
		return nil, nil, err
	}
	res, err := eng.Run(algos.PageRankPlan(cfg, jn, wn), opts)
	return res, eng, err
}

// runRexSSSP executes shortest path on a fresh REX engine.
func runRexSSSP(g *datagen.Graph, nodes int, cfg algos.SSSPConfig, opts exec.Options) (*exec.Result, *exec.Engine, error) {
	cat := graphCatalog()
	jn, wn, err := algos.RegisterSSSP(cat, cfg)
	if err != nil {
		return nil, nil, err
	}
	eng := exec.NewEngine(nodes, 32, 3, cat)
	if err := eng.Load("graph", 0, g.Edges); err != nil {
		return nil, nil, err
	}
	if err := eng.Load("spseed", 0, algos.SSSPSeed(cfg)); err != nil {
		return nil, nil, err
	}
	res, err := eng.Run(algos.SSSPPlan(cfg, jn, wn), opts)
	return res, eng, err
}

// cum accumulates per-iteration durations into a cumulative series.
func cum(per []time.Duration) []time.Duration {
	out := make([]time.Duration, len(per))
	var total time.Duration
	for i, d := range per {
		total += d
		out[i] = total
	}
	return out
}

// strataDurations extracts per-iteration durations, skipping stratum 0
// (the base-case load) so series align with the paper's iteration axes.
func strataDurations(res *exec.Result) []time.Duration {
	var out []time.Duration
	for _, s := range res.Strata {
		out = append(out, s.Duration)
	}
	return out
}

// padSeries renders iteration series of differing lengths into rows.
func padSeries(n int, series map[string][]time.Duration, order []string) ([][]string, []string) {
	headers := append([]string{"iter"}, order...)
	var rows [][]string
	for i := 0; i < n; i++ {
		row := []string{fmt.Sprintf("%d", i+1)}
		for _, name := range order {
			s := series[name]
			if i < len(s) {
				row = append(row, ms(s[i]))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	return rows, headers
}

func mrEngine(sc Scale) (*mapred.Engine, *mapred.Metrics) {
	m := &mapred.Metrics{}
	return mapred.NewEngine(mapred.Config{Workers: sc.Workers, StartupOverhead: sc.HadoopStartup, Metrics: m}), m
}
