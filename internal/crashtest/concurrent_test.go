package crashtest

import (
	"testing"

	"bulkdel"
)

// concurrentCfg routes the index passes through the scheduler (devices +
// parallel), whose channel operations give the two statement goroutines
// real interleaving points — on a single spindle they tend to serialize in
// wall-clock time and the crash only ever lands inside one statement.
func concurrentCfg() Config {
	return Config{Rows: 24, Method: bulkdel.SortMerge, Devices: 3, Parallel: 2}
}

// TestConcurrentSweep crashes a two-statement batch at a spread of I/O
// ordinals and checks the per-table recovery invariants. Stride keeps the
// sweep fast; the full range runs in CI via cmd/crashtest -concurrent.
func TestConcurrentSweep(t *testing.T) {
	cfg := concurrentCfg()
	cfg.Stride = 7
	sw := mustRun(t, "concurrent", cfg)
	t.Logf("concurrent sweep: %d I/Os, ran %d, failed %d", sw.TotalIOs, sw.Ran, sw.Failed)
}

// TestConcurrentRollForwardBothStatements looks for an ordinal whose crash
// leaves BOTH statements unfinished in the shared WAL and checks that
// recovery rolled both forward (wal.AnalyzeBulks routing the interleaved
// records per transaction). Which ordinals interrupt both is scheduling-
// dependent, so the test sweeps the whole range looking for one; with the
// scheduler in play roughly half the range qualifies.
func TestConcurrentRollForwardBothStatements(t *testing.T) {
	for _, r := range mustRun(t, "concurrent", concurrentCfg()).Ordinals {
		if r.Field("statements") == int64(2) {
			t.Logf("ordinal %d interrupted both statements; rolled forward %d records", r.Ordinal, r.Field("rolled-forward"))
			return
		}
	}
	t.Fatal("no ordinal interrupted both statements: the batch never overlapped")
}
