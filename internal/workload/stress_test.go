package workload

import (
	"context"
	"testing"
	"time"
)

// TestStress is the -race target for the DB-level lock manager: workers
// hammer independent tables with bulk deletes, lookups, and inserts, and
// the shadow model must match the engine exactly at the end. The CI seed
// matrix re-runs this via cmd/stress.
func TestStress(t *testing.T) {
	cases := []struct {
		name string
		spec StressSpec
	}{
		{"serial-protocol", StressSpec{Seed: 1}},
		{"concurrent-protocol", StressSpec{Seed: 2, Concurrent: true}},
		{"device-array", StressSpec{Seed: 3, Devices: 4, Parallel: 3, Concurrent: true}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			stats, err := Stress(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if stats.BulkDeletes == 0 || stats.RowsInserted == 0 {
				t.Fatalf("degenerate run: %+v", stats)
			}
			t.Logf("deletes=%d deleted=%d inserted=%d lookups=%d lockWaits=%d makespan=%v serial=%v",
				stats.BulkDeletes, stats.RowsDeleted, stats.RowsInserted, stats.Lookups,
				stats.LockWaits, stats.Makespan, stats.SerialEquivalent)
		})
	}
}

// TestStressChaos turns on every disruption knob at once: random
// cancellations, tiny statement deadlines and tiny lock-wait budgets. The
// run must still end with an exact model match and no leaked statements or
// locks — cancelled deletes
// abort to consistency (zero or full effect, never torn) and refused ones
// are retried.
func TestStressChaos(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec StressSpec
	}{
		{"serial", StressSpec{Seed: 11, CancelPct: 25, DeadlinePct: 25, LockWaitPct: 30}},
		{"concurrent-array", StressSpec{Seed: 12, Devices: 4, Parallel: 3,
			Concurrent: true, CancelPct: 20, DeadlinePct: 20, LockWaitPct: 25}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			stats, err := Stress(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if stats.BulkDeletes == 0 {
				t.Fatalf("degenerate run: %+v", stats)
			}
			t.Logf("deletes=%d cancelled=%d full-aborts=%d zero-aborts=%d lock-timeouts=%d retries=%d",
				stats.BulkDeletes, stats.Cancelled, stats.FullAborts, stats.ZeroAborts,
				stats.LockTimeouts, stats.Retries)
			if tc.spec.CancelPct > 0 && stats.Cancelled == 0 {
				t.Error("chaos never cancelled a statement")
			}
		})
	}
}

// TestStressSQL routes a fraction of the workload through the SQL wire
// front door: the same shadow model validates the lowered statements, so
// a SQL INSERT/SELECT/DELETE that binds to the wrong field, drops a
// victim, or miscounts its result set fails the run exactly like a broken
// Go-API call would.
func TestStressSQL(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec StressSpec
	}{
		{"serial", StressSpec{Seed: 21, SQLPct: 40, Workers: 6, Ops: 60}},
		{"concurrent-array", StressSpec{Seed: 22, SQLPct: 30, Devices: 4, Parallel: 3,
			Concurrent: true, Workers: 6, Ops: 60}},
		{"sql-with-chaos-elsewhere", StressSpec{Seed: 23, SQLPct: 35, CancelPct: 20,
			DeadlinePct: 20, Workers: 6, Ops: 60}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			stats, err := Stress(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if stats.SQLStmts == 0 {
				t.Fatalf("no statements went through the SQL front door: %+v", stats)
			}
			t.Logf("sql-stmts=%d deletes=%d inserted=%d lookups=%d",
				stats.SQLStmts, stats.BulkDeletes, stats.RowsInserted, stats.Lookups)
		})
	}
}

// TestStressInterrupt cancels the run context mid-flight: the workers must
// drain instead of erroring out, the final verification must still run, and
// the stats must report the interruption.
func TestStressInterrupt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	stats, err := Stress(StressSpec{Seed: 14, Workers: 4, Ops: 10_000, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Interrupted {
		t.Fatal("run was cancelled mid-flight but Interrupted is false")
	}
}

// TestStressReplay asserts generator determinism: the same seed issues the
// same operation mix (same totals in a single-worker run, where no
// interleaving can perturb outcomes).
func TestStressReplay(t *testing.T) {
	spec := StressSpec{Seed: 7, Workers: 1, Ops: 60}
	a, err := Stress(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Stress(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.BulkDeletes != b.BulkDeletes || a.RowsDeleted != b.RowsDeleted ||
		a.RowsInserted != b.RowsInserted || a.Lookups != b.Lookups {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
}
