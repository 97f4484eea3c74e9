package bulkdel

import (
	"strings"
	"testing"
)

// TestBulkDeleteObservability drives one bulk delete end to end and checks
// the whole observability surface: the trace, EXPLAIN ANALYZE, the stable
// JSON, and the engine-wide observer aggregation.
func TestBulkDeleteObservability(t *testing.T) {
	db, tbl := newBenchDB(t, 3000, Options{})
	victims := make([]int64, 0, 200)
	for v := int64(100); v < 300; v++ {
		victims = append(victims, v)
	}
	res, err := tbl.BulkDelete(0, victims, BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if res.Trace == nil {
		t.Fatal("BulkResult.Trace is nil")
	}
	for _, phase := range []string{"collect-rids", "access-pass", "heap-pass", "index-pass", "wal-commit"} {
		if res.Trace.Find(phase) == nil {
			t.Errorf("trace lacks phase %q:\n%s", phase, res.Trace.Format())
		}
	}
	if d := res.Trace.Find("heap-pass").Delta(); d.Elapsed <= 0 {
		t.Errorf("heap-pass has no elapsed time: %+v", d)
	}
	if root := res.Trace.Root(); root.IO.WALBytes == 0 {
		t.Errorf("logged statement recorded no WAL bytes")
	}

	out := res.ExplainAnalyze()
	for _, want := range []string{
		"EXPLAIN ANALYZE  method=",
		"planner estimates:",
		"(*=chosen)",
		"↳ actual: deleted=200 victims=200",
		"(estimated=",
		"structure",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ExplainAnalyze missing %q:\n%s", want, out)
		}
	}

	j1, err := res.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := res.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Errorf("MetricsJSON not stable")
	}
	for _, want := range []string{`"method"`, `"estimates"`, `"structures"`, `"trace"`, `"wal_bytes"`} {
		if !strings.Contains(string(j1), want) {
			t.Errorf("MetricsJSON missing %q", want)
		}
	}

	obs := db.Observer()
	if obs.LastTrace() != res.Trace {
		t.Errorf("observer did not keep the statement trace")
	}
	if got := obs.Registry().Counter("statements_traced").Value(); got != 1 {
		t.Errorf("statements_traced = %d, want 1", got)
	}
	if got := obs.Registry().Counter("pages_written").Value(); got == 0 {
		t.Errorf("pages_written = 0, want > 0")
	}
}

// TestMetricsSnapshotAndPoolStats checks DB.Metrics diffing and the
// PoolStats/ResetPoolStats symmetry with DiskStats/ResetDiskStats.
func TestMetricsSnapshotAndPoolStats(t *testing.T) {
	db, tbl := newBenchDB(t, 2000, Options{})
	before := db.Metrics()
	if _, err := tbl.BulkDelete(0, []int64{10, 20, 30, 40}, BulkOptions{}); err != nil {
		t.Fatal(err)
	}
	d := db.Metrics().Sub(before)
	if d.Elapsed <= 0 || d.Reads == 0 && d.Writes == 0 {
		t.Errorf("metrics diff shows no work: %+v", d)
	}
	if d.WALBytes == 0 {
		t.Errorf("metrics diff shows no WAL bytes for a logged delete")
	}

	if db.PoolStats().Hits == 0 {
		t.Errorf("pool recorded no hits")
	}
	db.ResetPoolStats()
	if s := db.PoolStats(); s.Hits != 0 || s.Misses != 0 {
		t.Errorf("ResetPoolStats left %+v", s)
	}
	db.ResetDiskStats()
	if s := db.DiskStats(); s.Reads != 0 {
		t.Errorf("ResetDiskStats left %+v", s)
	}
}

// TestObserverOption checks that a caller-supplied observer receives the
// traces (several statements accumulate).
func TestObserverOption(t *testing.T) {
	shared := NewObserver()
	db, tbl := newBenchDB(t, 2000, Options{Observer: shared})
	if db.Observer() != shared {
		t.Fatal("DB did not adopt the supplied observer")
	}
	for i := 0; i < 3; i++ {
		lo := int64(100 * (i + 1))
		if _, err := tbl.BulkDelete(0, []int64{lo, lo + 1, lo + 2}, BulkOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := shared.Registry().Counter("statements_traced").Value(); got != 3 {
		t.Errorf("statements_traced = %d, want 3", got)
	}
	if got := len(shared.Traces()); got != 3 {
		t.Errorf("kept %d traces, want 3", got)
	}
}
