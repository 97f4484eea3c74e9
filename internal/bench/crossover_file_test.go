package bench

import (
	"encoding/json"
	"os"
	"testing"
)

// TestCommittedCrossoverAutoOnLowerCurve reads the committed
// BENCH_crossover.json: at every point the planner's plan costs no more than
// the all-pass and the all-probe plan. The file is recorded at 100k rows on a
// pool a fraction of the table, so it holds the planner to the curves of a
// pool that evicts; core's 40k-row crossover test barely does.
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
	pass, probe, auto := series["sort/merge (passes)"], series["probe"], series["auto (planner)"]
	if len(auto) == 0 || len(pass) != len(auto) || len(probe) != len(auto) {
		t.Fatalf("series lengths: pass %d, probe %d, auto %d", len(pass), len(probe), len(auto))
	}
	for i, a := range auto {
		if a.SimUS > min(pass[i].SimUS, probe[i].SimUS) {
			t.Errorf("%s: auto (%s) %d µs, over the cheaper of pass %d µs and probe %d µs",
				a.X, a.Method, a.SimUS, pass[i].SimUS, probe[i].SimUS)
		}
	}
}
