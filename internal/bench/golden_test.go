package bench

// Golden-hash oracle: every workload of the transport suite must produce
// the result hash committed in bench/baseline.json, with the shuffle
// compactor on and off. The hashes were recorded when a separate row mode
// still existed and agreed with the columnar path, so they pin the
// columnar operators and wire path to those results.

import (
	"encoding/json"
	"os"
	"testing"

	"github.com/rex-data/rex/internal/job"
)

func TestSuiteHashesMatchGolden(t *testing.T) {
	raw, err := os.ReadFile("../../bench/baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base struct {
		Golden struct {
			Scale float64           `json:"scale"`
			Suite map[string]string `json:"suite"`
		} `json:"golden_hashes"`
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	specs := SuiteSpecs(DefaultScale().Scaled(base.Golden.Scale))
	if len(base.Golden.Suite) != len(specs) {
		t.Fatalf("baseline has %d golden hashes for %d suite workloads", len(base.Golden.Suite), len(specs))
	}
	for _, spec := range specs {
		want, ok := base.Golden.Suite[spec.Workload]
		if !ok {
			t.Fatalf("%s: no golden hash in bench/baseline.json", spec.Workload)
		}
		for _, compaction := range []bool{false, true} {
			s := *spec
			s.Compaction = compaction
			res, err := job.RunInProc(&s, nil)
			if err != nil {
				t.Fatalf("%s compaction=%v: %v", spec.Workload, compaction, err)
			}
			if got := ResultHash(res.Tuples); got != want {
				t.Errorf("%s compaction=%v: hash %s, golden %s", spec.Workload, compaction, got, want)
			}
		}
	}
}
