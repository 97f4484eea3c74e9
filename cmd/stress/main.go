// Command stress runs the concurrent workload generator against the
// DB-level lock manager: N worker goroutines issue randomized bulk
// deletes, indexed lookups, and inserts across M independent tables while
// a shadow model tracks what must survive. The run fails (exit 1) if any
// per-statement invariant, the final heap↔index consistency check, or the
// exact scan↔model comparison breaks.
//
// Usage:
//
//	stress                                  # defaults: 4 tables, 4 workers
//	stress -seed 3 -devices 4 -parallel 3 -concurrent
//	stress -workers 8 -ops 200 -rows 1000
//	stress -chaos-cancel 20 -chaos-deadline 20 -chaos-lockwait 25
//	stress -sql 30                          # 30% of ops via the SQL wire front door
//	stress -top                             # live in-flight/lock view
//	stress -bench-json BENCH_stress.json    # latency percentiles + waits
//	stress -trace trace.json                # open in chrome://tracing
//	stress -events events.jsonl             # statement event log
//
// SIGINT/SIGTERM interrupt the run gracefully: the workers finish their
// in-flight statement and drain, the final model verification still runs,
// and the report (including -bench-json/-trace/-events exports) is still
// produced. A second signal kills the process.
//
// The generator is deterministic in (seed, worker): a failing seed replays
// the same operation streams, so CI failures reproduce locally with the
// same flags.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bulkdel"
	"bulkdel/internal/workload"
)

// benchJSON is the stable wire form of a stress run for BENCH_stress.json:
// counts, batch timing (simulated makespan vs serial-equivalent and real
// wall time), per-statement latency percentiles, and the lock-wait share
// of the workers' combined wall time.
type benchJSON struct {
	Tables             int     `json:"tables"`
	Rows               int     `json:"rows"`
	Workers            int     `json:"workers"`
	Ops                int     `json:"ops"`
	Seed               int64   `json:"seed"`
	Devices            int     `json:"devices"`
	Parallel           int     `json:"parallel"`
	Concurrent         bool    `json:"concurrent"`
	BulkDeletes        int64   `json:"bulk_deletes"`
	RowsDeleted        int64   `json:"rows_deleted"`
	RowsInserted       int64   `json:"rows_inserted"`
	Lookups            int64   `json:"lookups"`
	MakespanUS         int64   `json:"makespan_us"`
	SerialEquivalentUS int64   `json:"serial_equivalent_us"`
	WallUS             int64   `json:"wall_us"`
	StatementP50US     int64   `json:"statement_p50_us"`
	StatementP95US     int64   `json:"statement_p95_us"`
	StatementP99US     int64   `json:"statement_p99_us"`
	LockWaits          int64   `json:"lock_waits"`
	LockWaitUS         int64   `json:"lock_wait_us"`
	LockWaitShare      float64 `json:"lock_wait_share"`
	Cancelled          int64   `json:"cancelled,omitempty"`
	FullAborts         int64   `json:"full_aborts,omitempty"`
	ZeroAborts         int64   `json:"zero_aborts,omitempty"`
	LockTimeouts       int64   `json:"lock_timeouts,omitempty"`
	Retries            int64   `json:"retries,omitempty"`
	SQLStmts           int64   `json:"sql_stmts,omitempty"`
	SnapshotProbes     int64   `json:"snapshot_probes"`
	SnapshotReadWaits  int64   `json:"snapshot_read_waits"`
	Interrupted        bool    `json:"interrupted,omitempty"`
}

func writeFile(path string, data []byte) {
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "stress:", err)
		os.Exit(1)
	}
	fmt.Printf("stress: wrote %s\n", path)
}

func main() {
	tables := flag.Int("tables", 0, "independent tables (default 4)")
	rows := flag.Int("rows", 0, "initial rows per table (default 200)")
	workers := flag.Int("workers", 0, "concurrent statement-issuing goroutines (default 4)")
	ops := flag.Int("ops", 0, "operations per worker (default 40)")
	seed := flag.Int64("seed", 0, "generator seed (default 1)")
	devices := flag.Int("devices", 0, "simulated disk array width (0 = single spindle)")
	parallel := flag.Int("parallel", 0, "per-statement worker cap for the remaining-index passes")
	concurrent := flag.Bool("concurrent", false, "run bulk deletes under the §3.1 protocol (early lock release)")
	chaosCancel := flag.Int("chaos-cancel", 0, "percent of bulk deletes issued with an already-cancelled context")
	chaosDeadline := flag.Int("chaos-deadline", 0, "percent of bulk deletes issued with a tiny random deadline")
	chaosLockWait := flag.Int("chaos-lockwait", 0, "percent of bulk deletes issued with a tiny random lock-wait budget")
	sqlPct := flag.Int("sql", 0, "percent of operations routed through the SQL wire front door (each worker dials its own session)")
	top := flag.Bool("top", false, "print a live in-flight/lock-graph view while the run executes")
	topEvery := flag.Duration("top-interval", 200*time.Millisecond, "refresh interval for -top")
	benchPath := flag.String("bench-json", "", "write run summary (percentiles, lock-wait share) to this file")
	tracePath := flag.String("trace", "", "write a Chrome trace_event file (open in chrome://tracing)")
	eventsPath := flag.String("events", "", "write the statement event log as JSONL to this file")
	flag.Parse()

	spec := workload.StressSpec{
		Tables: *tables, Rows: *rows, Workers: *workers, Ops: *ops,
		Devices: *devices, Parallel: *parallel,
		Seed: *seed, Concurrent: *concurrent,
		CancelPct: *chaosCancel, DeadlinePct: *chaosDeadline,
		LockWaitPct: *chaosLockWait, SQLPct: *sqlPct,
	}

	// SIGINT/SIGTERM cancel the run context: the workers drain, the final
	// verification and the report still happen. A second signal is fatal.
	ctx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	spec.Ctx = ctx
	sigC := make(chan os.Signal, 2)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigC
		fmt.Fprintf(os.Stderr, "stress: %v: draining (signal again to kill)\n", s)
		cancelRun()
		<-sigC
		os.Exit(130)
	}()

	// OnOpen hands us the DB before the workers start, for the live view
	// and the post-run event-log exports.
	var db *bulkdel.DB
	done := make(chan struct{})
	spec.OnOpen = func(d *bulkdel.DB) {
		db = d
		if *top {
			go func() {
				tick := time.NewTicker(*topEvery)
				defer tick.Stop()
				for {
					select {
					case <-done:
						return
					case <-tick.C:
						fmt.Fprint(os.Stderr, "---\n"+d.Inspect().String())
					}
				}
			}()
		}
	}

	stats, err := workload.Stress(spec)
	close(done)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stress:", err)
		os.Exit(1)
	}
	status := "ok"
	if stats.Interrupted {
		status = "interrupted (drained + verified)"
	}
	fmt.Printf("stress: %s  bulk-deletes=%d rows-deleted=%d rows-inserted=%d lookups=%d lock-waits=%d\n",
		status, stats.BulkDeletes, stats.RowsDeleted, stats.RowsInserted, stats.Lookups, stats.LockWaits)
	fmt.Printf("stress: snapshot probes=%d read-waits=%d (MVCC reads never queue behind bulk deletes)\n",
		stats.SnapshotProbes, stats.SnapshotReadWaits)
	fmt.Printf("stress: mvcc versions-retained=%d retained-bytes=%d (gauge at drain; pruning returns it to zero)\n",
		stats.VersionsRetained, stats.RetainedBytes)
	if stats.SQLStmts > 0 {
		fmt.Printf("stress: sql statements=%d (via wire front door)\n", stats.SQLStmts)
	}
	if stats.Cancelled+stats.LockTimeouts > 0 {
		fmt.Printf("stress: chaos cancelled=%d full-aborts=%d zero-aborts=%d lock-timeouts=%d retries=%d\n",
			stats.Cancelled, stats.FullAborts, stats.ZeroAborts, stats.LockTimeouts, stats.Retries)
	}
	fmt.Printf("stress: makespan=%v serial-equivalent=%v wall=%v\n",
		stats.Makespan, stats.SerialEquivalent, stats.WallTime)
	fmt.Printf("stress: statement latency p50=%v p95=%v p99=%v lock-wait=%v\n",
		stats.P50, stats.P95, stats.P99, time.Duration(stats.LockWaitUS)*time.Microsecond)

	if *benchPath != "" {
		sp := spec.Resolved()
		out := benchJSON{
			Tables: sp.Tables, Rows: sp.Rows, Workers: sp.Workers, Ops: sp.Ops,
			Seed: sp.Seed, Devices: sp.Devices, Parallel: sp.Parallel,
			Concurrent:         sp.Concurrent,
			BulkDeletes:        stats.BulkDeletes,
			RowsDeleted:        stats.RowsDeleted,
			RowsInserted:       stats.RowsInserted,
			Lookups:            stats.Lookups,
			MakespanUS:         stats.Makespan.Microseconds(),
			SerialEquivalentUS: stats.SerialEquivalent.Microseconds(),
			WallUS:             stats.WallTime.Microseconds(),
			StatementP50US:     stats.P50.Microseconds(),
			StatementP95US:     stats.P95.Microseconds(),
			StatementP99US:     stats.P99.Microseconds(),
			LockWaits:          stats.LockWaits,
			LockWaitUS:         stats.LockWaitUS,
			Cancelled:          stats.Cancelled,
			FullAborts:         stats.FullAborts,
			ZeroAborts:         stats.ZeroAborts,
			LockTimeouts:       stats.LockTimeouts,
			SQLStmts:           stats.SQLStmts,
			Retries:            stats.Retries,
			SnapshotProbes:     stats.SnapshotProbes,
			SnapshotReadWaits:  stats.SnapshotReadWaits,
			Interrupted:        stats.Interrupted,
		}
		// Share of the workers' combined wall time spent blocked on locks.
		if denom := out.WallUS * int64(sp.Workers); denom > 0 {
			out.LockWaitShare = float64(out.LockWaitUS) / float64(denom)
		}
		j, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "stress:", err)
			os.Exit(1)
		}
		writeFile(*benchPath, j)
	}
	if *eventsPath != "" {
		f, err := os.Create(*eventsPath)
		if err == nil {
			err = db.Observer().Events().WriteJSONL(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "stress:", err)
			os.Exit(1)
		}
		fmt.Printf("stress: wrote %s\n", *eventsPath)
	}
	if *tracePath != "" {
		j, err := db.Observer().Events().ChromeTraceJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "stress:", err)
			os.Exit(1)
		}
		writeFile(*tracePath, j)
	}
}
