// BenchmarkExperiments regenerates every table and figure of the paper's
// evaluation plus the ablations — one sub-benchmark per row of bench.Specs.
// Each iteration builds a fresh database per point at 1/50 of the paper's
// scale (with the memory budget scaled along) and executes one statement
// there; every point is reported as a `sim-min` metric, the simulated
// statement time in minutes — the paper's unit and the number to compare
// against its plots. Run `cmd/bulkbench -rows 1000000` for the full-scale
// reproduction.
//
//	go test -run '^$' -bench Experiments .
package bulkdel_test

import (
	"strings"
	"testing"

	"bulkdel/internal/bench"
)

func BenchmarkExperiments(b *testing.B) {
	for _, s := range bench.Specs {
		b.Run(s.Name(), func(b *testing.B) {
			var e bench.Experiment
			for i := 0; i < b.N; i++ {
				var err error
				if e, err = (&bench.Runner{Rows: 20000, Seed: 1}).Run(s); err != nil {
					b.Fatal(err)
				}
			}
			for _, ser := range e.Series {
				for _, p := range ser.Points {
					unit := strings.Join(strings.Fields(ser.Label+" @"+p.X+" sim-min"), "_")
					b.ReportMetric(p.Result.Minutes, unit)
				}
			}
		})
	}
}
