package bench

import (
	"encoding/json"
	"os"
	"testing"
)

// TestCommittedCrossoverAutoOnLowerCurve reads the committed
// BENCH_crossover.json: at every point the planner's plan costs no more than
// any of the three methods forced. The file is recorded at 100k rows on a
// pool a fraction of the table, so it holds the planner to the curves of a
// pool that evicts.
func TestCommittedCrossoverAutoOnLowerCurve(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_crossover.json")
	if err != nil {
		t.Fatal(err)
	}
	var e experimentJSON
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	series := map[string][]pointJSON{}
	for _, s := range e.Series {
		series[s.Label] = s.Points
	}
	auto := series["auto (planner)"]
	if len(auto) == 0 || len(series) != 4 {
		t.Fatalf("want auto beside three forced series, have %d series, %d auto points", len(series), len(auto))
	}
	for label, forced := range series {
		if len(forced) != len(auto) {
			t.Fatalf("%s has %d points, auto %d", label, len(forced), len(auto))
		}
		for i, a := range auto {
			if a.SimUS > forced[i].SimUS {
				t.Errorf("%s: auto (%s) %d µs, over %s's %d µs", a.X, a.Method, a.SimUS, label, forced[i].SimUS)
			}
		}
	}
}
