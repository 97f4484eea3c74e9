package obs

// Canonical metric names for the DB-level concurrency layer. The values
// live in the ordinary Registry; the constants exist so the DB, the tests,
// and the CLIs agree on spelling.
const (
	// MetricLockWaits counts lock-manager acquisitions that had to block.
	MetricLockWaits = "cc_lock_waits"
	// MetricLockWaitUS accumulates the blocked time of those acquisitions
	// in microseconds of *real* time — goroutines block on the wall clock,
	// not the simulated disk clock, so this counter is not deterministic.
	MetricLockWaitUS = "cc_lock_wait_us"
	// MetricStatementsActive gauges the number of statements currently
	// inside the lock manager (holding at least one table lock).
	MetricStatementsActive = "cc_statements_active"
	// MetricStatementsPeak gauges the high-water mark of concurrently
	// active statements since open.
	MetricStatementsPeak = "cc_statements_peak"
	// MetricConcurrentBatches counts DB.RunConcurrent invocations.
	MetricConcurrentBatches = "cc_concurrent_batches"
	// MetricAborts counts statements cancelled mid-flight and brought to
	// consistency via the online roll-forward replay.
	MetricAborts = "cc_aborts"
	// MetricRetries counts statement re-executions performed by the
	// RunConcurrent retry policy after a timeout/deadlock abort.
	MetricRetries = "cc_retries"
	// MetricDeadlineExceeded counts statements that hit their deadline (a
	// subset of the aborts counted by MetricAborts).
	MetricDeadlineExceeded = "cc_deadline_exceeded"
	// MetricAdmissionShed counts statements rejected by the admission
	// pool's overload guard instead of being queued.
	MetricAdmissionShed = "adm_shed"
)

// Canonical metric names for MVCC snapshot reads. Snapshot readers never
// block behind a bulk delete's exclusive lock, so on a healthy engine the
// wait counter stays at zero — the reads-during-delete smoke test asserts
// exactly that.
const (
	// MetricSnapshotReads counts read statements served from an MVCC
	// snapshot (Get/Lookup/LookupRange/Scan, or one View).
	MetricSnapshotReads = "mvcc_snapshot_reads"
	// MetricSnapshotReadWaits counts snapshot reads that had to block for
	// a Structural claim (repartition, rebalance, offline baselines) —
	// never for an ordinary bulk delete.
	MetricSnapshotReadWaits = "mvcc_snapshot_read_waits"
	// MetricSnapshotFallbackScans counts indexed snapshot lookups that fell
	// back to the visibility-filtered heap scan because a bulk delete held
	// the table's index trees offline.
	MetricSnapshotFallbackScans = "mvcc_snapshot_fallback_scans"
	// MetricVersionsRetained counts pre-delete row images copied into the
	// version store for the benefit of open snapshots.
	MetricVersionsRetained = "mvcc_versions_retained"
	// MetricVersionsRetainedBytes gauges the bytes currently held by
	// retained versions across all tables — the version store's live memory
	// footprint. Pruning behind the snapshot horizon drives it back to zero.
	MetricVersionsRetainedBytes = "mvcc_retained_bytes"
)

// Canonical metric names for the WAL appender queue — the measurement
// substrate for group commit. Append wait is *real* mutex-block time (the
// appender serializes concurrent statements), so like the lock-wait
// counters it is not deterministic; byte/page counters are.
const (
	// MetricWALAppends counts records accepted by the appender.
	MetricWALAppends = "wal_appends"
	// MetricWALAppendWaitUS accumulates real time spent blocked on the
	// appender mutex, in microseconds.
	MetricWALAppendWaitUS = "wal_append_wait_us"
	// MetricWALFlushes counts Flush calls that wrote pages.
	MetricWALFlushes = "wal_flushes"
	// MetricWALFlushPages counts whole log pages written by flushes.
	MetricWALFlushPages = "wal_flush_pages"
	// MetricWALFlushBytes accumulates record bytes made durable.
	MetricWALFlushBytes = "wal_flush_bytes"
	// MetricWALQueueDepth gauges the bytes buffered but not yet flushed.
	MetricWALQueueDepth = "wal_queue_depth"
	// MetricWALQueuePeak gauges the high-water mark of the append queue.
	MetricWALQueuePeak = "wal_queue_peak"
)

// HistWALAppendWait is the registry histogram of per-append real blocked
// time on the appender mutex (append latency distribution).
const HistWALAppendWait = "wal_append_wait"

// HistTableWaitPrefix prefixes the per-table lock wait-time histograms fed
// by the lock manager's OnWait hook ("cc_table_wait:" + table).
const HistTableWaitPrefix = "cc_table_wait:"

// MetricLeavesMerged counts the index leaves bulk-delete walks merged into
// their neighbours (§2.3 reorganization): the repair of the fill that
// free-at-empty lets decline under churn.
const MetricLeavesMerged = "btree_leaves_merged"
