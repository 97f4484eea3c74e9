// Package bulkdel is a storage engine built to reproduce "Efficient Bulk
// Deletes in Relational Databases" (Gärtner, Kemper, Kossmann, Zeller,
// ICDE 2001) end to end: heap tables with B-link-tree indexes on a
// simulated disk, the traditional record-at-a-time DELETE and drop-&-create
// baselines, and the paper's contribution — the vertical, set-oriented bulk
// delete operator with sort/merge, hash, and hash+range-partitioning plans,
// §3's concurrency protocol (exclusive table lock, offline indexes,
// side-files), and §3.2's roll-forward crash recovery.
//
// A DB lives on a deterministic simulated disk whose clock prices every
// I/O, so experiments are exactly reproducible; see DB.Clock.
//
// Quick start:
//
//	db, _ := bulkdel.Open(bulkdel.Options{})
//	orders, _ := db.CreateTable("orders", 4, 128)
//	orders.CreateIndex(bulkdel.IndexOptions{Name: "id", Field: 0, Unique: true})
//	orders.Insert(1001, 20260101, 99, 0)
//	...
//	res, _ := orders.BulkDelete(1, oldDates, bulkdel.BulkOptions{})
package bulkdel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bulkdel/internal/buffer"
	"bulkdel/internal/cc"
	"bulkdel/internal/core"
	"bulkdel/internal/obs"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
	"bulkdel/internal/table"
	"bulkdel/internal/wal"
)

// Method selects the physical bulk-delete strategy (see package core).
type Method = core.Method

// Bulk delete methods.
const (
	// Auto lets the cost-based planner choose.
	Auto = core.Auto
	// SortMerge sorts every victim list to match the physical order of
	// the structure it is deleted from (the paper's Figure 3).
	SortMerge = core.SortMerge
	// Hash keeps the victim RIDs in an in-memory hash table and probes
	// full scans (Figure 4).
	Hash = core.Hash
	// HashPartition range-partitions oversized victim lists so each
	// partition fits in memory (Figure 5).
	HashPartition = core.HashPartition
)

// ParseMethod maps a method name as the shells, SET method and the command
// lines spell it — case-insensitively, "" meaning auto — to the Method.
func ParseMethod(name string) (Method, error) {
	switch strings.ToLower(name) {
	case "auto", "":
		return Auto, nil
	case "sort", "sortmerge", "sort/merge":
		return SortMerge, nil
	case "hash":
		return Hash, nil
	case "partition", "hashpart", "hashpartition", "hash+range-partition":
		return HashPartition, nil
	default:
		return Auto, fmt.Errorf("bulkdel: unknown method %q (auto, sort, hash, partition)", name)
	}
}

// RID identifies a record by physical position (page, slot).
type RID = record.RID

// Statement-lifecycle sentinels. Match with errors.Is — statements wrap
// them with context.
var (
	// ErrCancelled reports that a statement observed its context done at a
	// recoverable boundary and stopped. With the WAL enabled the engine then
	// runs abort-to-consistency: the §3.2 roll-forward is replayed online,
	// in process, so the structures end in the exact state a crash at that
	// boundary followed by Recover would have produced (the delete, being
	// roll-forward-only, still completes).
	ErrCancelled = core.ErrCancelled
	// ErrLockTimeout reports that the statement's lock footprint could not
	// be acquired within BulkOptions.LockWait; nothing was modified and
	// every partially acquired lock was released. Always safe to retry.
	ErrLockTimeout = cc.ErrLockTimeout
)

// Trace is a statement's span tree on the simulated clock (see
// internal/obs); BulkResult.Trace carries one per bulk delete.
type Trace = obs.Trace

// Observer aggregates statement traces into engine-wide metrics.
type Observer = obs.Observer

// NewObserver creates an observer that can be shared across DB instances
// via Options.Observer.
func NewObserver() *Observer { return obs.NewObserver() }

// Options configures a database instance.
type Options struct {
	// BufferBytes is the buffer-pool budget (default 8 MB — comfortably
	// above the paper's largest experiment setting).
	BufferBytes int
	// Devices sizes the simulated disk array for parallel bulk deletes:
	// device 0 is the system spindle (catalog, WAL, heap, scratch) and
	// indexes are placed round-robin on devices 1..Devices. 0 or 1 keeps
	// the single-spindle model.
	Devices int
	// Observer receives every statement's trace and aggregates engine-wide
	// metrics (nil = the DB creates its own; see DB.Observer).
	Observer *obs.Observer
}

func (o Options) withDefaults() Options {
	if o.BufferBytes <= 0 {
		o.BufferBytes = 8 << 20
	}
	return o
}

// DB is a database instance on one simulated disk.
type DB struct {
	disk    *sim.Disk
	pool    *buffer.Pool
	log     *wal.Log
	catalog sim.FileID

	// mu guards the catalog maps (tables, fks) and the mutable device
	// count (opts.Devices, grown by GrowDevices). It is a leaf lock:
	// never held while acquiring a table lock or running a statement.
	mu     sync.Mutex
	tables map[string]*Table
	fks    []ForeignKey
	// catMu serializes whole catalog saves — snapshot AND file-0 rewrite —
	// so concurrent DDLs can neither interleave page writes nor durably
	// write an older snapshot after a newer one. Acquired before mu.
	catMu sync.Mutex
	// catSlots is the double-buffered catalog's slot state (guarded by
	// catMu): the newest generation, its region and the one written next.
	catSlots catalogSlots
	// catEpoch and catTx are the epoch and TxID floors the last catalog
	// save made durable (guarded by catMu); restartWAL compares them with
	// the clocks.
	catEpoch, catTx uint64

	txSeq atomic.Uint64
	opts  Options
	obs   *obs.Observer
	// cc owns the per-table locks; every statement acquires its footprint
	// through cc.Manager.Acquire (see internal/cc).
	cc      *cc.Manager
	crashed atomic.Bool
	// active tracks statements currently holding table locks, for the
	// cc_statements_active/peak gauges.
	active atomic.Int64
	// epochs is the global commit-epoch clock backing MVCC snapshot reads
	// (saveCatalog persists the current epoch).
	epochs *cc.EpochClock
	// coreHooks rides on every core.Target the heap backend builds. Tests
	// of this package set it before the statement they want to park; nothing
	// else writes it.
	coreHooks core.Hooks
}

// Open creates a fresh database on a new simulated disk.
func Open(opts Options) (*DB, error) {
	opts = opts.withDefaults()
	db := newDB(sim.NewDisk(sim.DefaultCostModel()), opts)
	// The catalog always occupies file 0 so recovery can find it.
	db.catalog = db.disk.CreateFile()
	if db.catalog != 0 {
		return nil, fmt.Errorf("bulkdel: catalog must be file 0, got %d", db.catalog)
	}
	db.log = wal.Create(db.disk)
	db.wireWAL()
	if err := db.saveCatalog(); err != nil {
		return nil, err
	}
	return db, nil
}

// newDB assembles an instance around a disk — a fresh one (Open) or a
// crashed instance's (Recover): the device array (+1: device 0 is the
// system spindle), the buffer pool, the observer, and the concurrency layer.
func newDB(disk *sim.Disk, opts Options) *DB {
	if opts.Devices > 1 {
		disk.ConfigureDevices(opts.Devices + 1)
	}
	db := &DB{
		disk:   disk,
		pool:   buffer.New(disk, opts.BufferBytes),
		tables: make(map[string]*Table),
		opts:   opts,
		obs:    opts.Observer,
		epochs: cc.NewEpochClock(),
	}
	if db.obs == nil {
		db.obs = obs.NewObserver()
	}
	db.initConcurrency()
	return db
}

// initConcurrency wires the lock manager and the shared scheduler pool.
// Called once from newDB, before any statement can run.
func (db *DB) initConcurrency() {
	db.cc = cc.NewManager()
	reg := db.obs.Registry()
	// Event-log timestamps come off the simulated disk clock, so event
	// streams from identical runs are byte-identical.
	db.obs.Events().SetNow(db.disk.Clock)
	db.cc.OnWait = func(table string, waited time.Duration) {
		reg.Counter(obs.MetricLockWaits).Add(1)
		if us := waited.Microseconds(); us > 0 {
			reg.Counter(obs.MetricLockWaitUS).Add(us)
		}
		reg.Histogram(obs.HistTableWaitPrefix + table).Observe(waited)
	}
	// OnLock routes every grant to the owning statement's event stream,
	// carrying the blocking holder's identity and the real wait time.
	db.cc.OnLock = func(ev cc.LockEvent) {
		stmt := db.obs.Events().Get(ev.Owner)
		if stmt == nil {
			return
		}
		detail := fmt.Sprintf("%s %s", ev.Mode, ev.Table)
		if ev.Blocked && ev.Holder != 0 {
			detail += fmt.Sprintf(" (blocked by stmt %d)", ev.Holder)
		} else if ev.Blocked {
			detail += " (blocked)"
		}
		stmt.EventWait(obs.EvLock, detail, ev.Waited)
	}
}

// wireWAL connects the log's appender-queue hooks to the observer's
// counters and histograms. Called once from Open/Recover right after the
// log is created or replayed, before any statement can append.
func (db *DB) wireWAL() {
	reg := db.obs.Registry()
	db.log.OnAppend = func(bytes, queued int, waited time.Duration) {
		reg.Counter(obs.MetricWALAppends).Add(1)
		if us := waited.Microseconds(); us > 0 {
			reg.Counter(obs.MetricWALAppendWaitUS).Add(us)
		}
		reg.Histogram(obs.HistWALAppendWait).Observe(waited)
		reg.Gauge(obs.MetricWALQueueDepth).Set(int64(queued))
		reg.Gauge(obs.MetricWALQueuePeak).SetMax(int64(queued))
	}
	db.log.OnFlush = func(bytes, pages int) {
		reg.Counter(obs.MetricWALFlushes).Add(1)
		reg.Counter(obs.MetricWALFlushPages).Add(int64(pages))
		reg.Counter(obs.MetricWALFlushBytes).Add(int64(bytes))
		reg.Gauge(obs.MetricWALQueueDepth).Set(0)
	}
}

// beginStatement registers a statement with the event log, takes its full
// lock footprint in the global deterministic order attributed to the
// statement's ID, and maintains the active-statement gauges.
func (db *DB) beginStatement(kind, table string, claims []cc.Claim) (*obs.Stmt, *cc.Held) {
	stmt, held, _ := db.beginStatementTimeout(kind, table, claims, 0) // no deadline: cannot fail
	return stmt, held
}

// beginStatementTimeout is beginStatement under a lock-wait deadline
// (lockWait <= 0 waits forever). On timeout the statement's event stream is
// closed, nothing is held, and a wrapped ErrLockTimeout is returned — the
// caller has no cleanup to do and may simply retry.
func (db *DB) beginStatementTimeout(kind, table string, claims []cc.Claim, lockWait time.Duration) (*obs.Stmt, *cc.Held, error) {
	stmt := db.obs.Events().Begin(kind, table)
	held, err := db.cc.Acquire(stmt.ID(), claims, lockWait)
	if err != nil {
		stmt.Event(obs.EvCancel, "lock wait timeout")
		stmt.End()
		return nil, nil, err
	}
	reg := db.obs.Registry()
	n := db.active.Add(1)
	reg.Gauge(obs.MetricStatementsActive).Set(n)
	reg.Gauge(obs.MetricStatementsPeak).SetMax(n)
	return stmt, held, nil
}

// endStatement releases whatever the statement still holds, closes its
// event stream, and drops the active gauge.
func (db *DB) endStatement(stmt *obs.Stmt, held *cc.Held) {
	held.ReleaseAll()
	stmt.End()
	db.obs.Registry().Gauge(obs.MetricStatementsActive).Set(db.active.Add(-1))
}

// noteRetainedBytes refreshes the mvcc_retained_bytes gauge with the exact
// sum of every table's live version-store footprint. The per-retain Add in
// the hot path keeps the gauge rising mid-statement; this full recompute at
// commit and snapshot-close corrects it after pruning drops versions.
func (db *DB) noteRetainedBytes() {
	var n int64
	db.mu.Lock()
	for _, tbl := range db.tables {
		if h, ok := tbl.b.(*heapBackend); ok {
			n += h.t.MVCC.RetainedBytes()
		}
	}
	db.mu.Unlock()
	db.obs.Registry().Gauge(obs.MetricVersionsRetainedBytes).Set(n)
}

// deleteFootprint computes the tables a bulk delete on tbl must lock: the
// target and every table its CASCADE edges can reach, exclusively, plus
// the RESTRICT children it probes, shared. Acquiring the whole footprint
// up front (name-ordered, via cc.Manager.Acquire) is what makes
// concurrent statements deadlock-free — and it also closes the window the
// serial engine had, where FK probes ran before the target's lock was
// taken.
//
// It also returns the FK snapshot the footprint was derived from. The
// statement must enforce exactly this snapshot: re-reading db.fks during
// execution would let an AddForeignKey that lands after the locks were
// taken introduce a cascade into a child whose lock was never acquired.
func (db *DB) deleteFootprint(tbl *Table) ([]cc.Claim, []ForeignKey) {
	db.mu.Lock()
	defer db.mu.Unlock()
	fks := append([]ForeignKey(nil), db.fks...)
	modes := make(map[string]cc.Mode)
	var visit func(t *Table)
	visit = func(t *Table) {
		if m, ok := modes[t.name]; ok && m == cc.Exclusive {
			return // already visited as a delete target (FK cycles stop here)
		}
		modes[t.name] = cc.Exclusive
		for _, fk := range fks {
			if fk.Parent != t {
				continue
			}
			if fk.OnDelete == Cascade {
				visit(fk.Child)
			} else if _, ok := modes[fk.Child.name]; !ok {
				modes[fk.Child.name] = cc.Shared
			}
		}
	}
	visit(tbl)
	claims := make([]cc.Claim, 0, len(modes))
	for name, mode := range modes {
		claims = append(claims, cc.Claim{Table: name, Mode: mode})
	}
	return claims, fks
}

// ConcurrentResult reports one batch of statements run via RunConcurrent.
type ConcurrentResult struct {
	// Statements in the batch.
	Statements int
	// Makespan is the batch's simulated I/O wall-clock: the busiest
	// device's busy-time delta over the batch. Devices work in parallel,
	// so the longest arm bounds how fast the array can complete the
	// batch's combined work.
	Makespan time.Duration
	// SerialEquivalent is the batch's total I/O work — the sum of every
	// device's busy-time delta, i.e. what a single spindle would spend
	// executing the batch serially. Makespan < SerialEquivalent means the
	// statements genuinely overlapped on separate arms; on a single-device
	// array the two are equal.
	SerialEquivalent time.Duration
	// PerDevice is each device's busy-time delta.
	PerDevice []time.Duration
}

// Overlap returns the I/O time saved by running the batch on the array
// instead of serially on one spindle.
func (r *ConcurrentResult) Overlap() time.Duration {
	return r.SerialEquivalent - r.Makespan
}

// RetryPolicy governs how RunConcurrentCtx handles retryable statement
// failures — lock-wait timeouts (ErrLockTimeout), which fail before the
// statement modifies anything, so re-running the closure is always safe.
type RetryPolicy struct {
	// MaxRetries is the per-statement retry budget (0 disables retrying —
	// and with it the batch's retry event stream, keeping non-retrying
	// batches byte-identical to the pre-policy engine).
	MaxRetries int
	// Seed derives each retry's deterministic jitter: the delay for
	// (statement index, attempt) is a pure function of Seed, so a re-run
	// of the same batch backs off identically.
	Seed int64
}

// The retry backoff: retryBackoff before the first retry, doubled each
// further attempt up to maxRetryBackoff. Real time: the simulated clock only
// advances on I/O, so backing off costs nothing on the virtual clock.
const (
	retryBackoff    = time.Millisecond
	maxRetryBackoff = 100 * time.Millisecond
)

// RunConcurrent executes the statements in concurrent goroutines and
// reports the batch's device-level timing. Statements on different tables
// proceed in parallel (each locks only its own footprint); statements on
// overlapping footprints serialize on the lock manager in a deterministic
// order. The first non-nil statement error is returned alongside the
// timing (all statements always run to completion or failure).
//
// Note per-statement Elapsed values measured inside a concurrent batch
// include the other statements' charges (the simulated clock is global);
// the honest batch-level numbers are the ones reported here.
func (db *DB) RunConcurrent(stmts ...func() error) (*ConcurrentResult, error) {
	return db.RunConcurrentCtx(context.Background(), RetryPolicy{}, stmts...)
}

// RunConcurrentCtx is RunConcurrent under an external context and a retry
// policy. Retryable failures (lock-timeout statements — nothing ran,
// nothing to undo) are re-run after exponential backoff with deterministic
// jitter, up to policy.MaxRetries per statement; each re-admission bumps
// cc_retries and emits an EvRetry event on the batch's statement stream.
//
// Victim selection: ordered lock acquisition keeps the wait graph acyclic,
// so the statement whose lock wait timed out IS the victim — it backs off
// while the blocking holder finishes. The wait graph still informs the
// policy: while it shows blocked tables, the backoff is extended by one
// extra doubling, since retrying into a still-contended footprint would
// only time out again.
//
// ctx cancels only the retry loop (no retry starts after ctx is done); to
// cancel the statements themselves mid-run, thread the same ctx into each
// closure's BulkOptions.Ctx.
func (db *DB) RunConcurrentCtx(ctx context.Context, policy RetryPolicy, stmts ...func() error) (*ConcurrentResult, error) {
	if db.crashed.Load() {
		return nil, errCrashed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var batch *obs.Stmt
	if policy.MaxRetries > 0 {
		batch = db.obs.Events().Begin("concurrent-batch", "*")
		defer batch.End()
	}
	reg := db.obs.Registry()

	ndev := db.disk.NumDevices()
	before := make([]time.Duration, ndev)
	for d := range before {
		before[d] = db.disk.DeviceBusy(d)
	}
	errs := make([]error, len(stmts))
	var wg sync.WaitGroup
	for i, fn := range stmts {
		wg.Add(1)
		go func(i int, fn func() error) {
			defer wg.Done()
			for attempt := 0; ; attempt++ {
				err := fn()
				if err == nil || attempt >= policy.MaxRetries || ctx.Err() != nil ||
					!errors.Is(err, ErrLockTimeout) {
					errs[i] = err
					return
				}
				steps := attempt
				blocked := len(db.cc.WaitGraph().Blocked())
				if blocked > 0 {
					steps++
				}
				delay := min(retryBackoff<<steps, maxRetryBackoff)
				delay = delay/2 + time.Duration(jitter64(uint64(policy.Seed),
					uint64(i), uint64(attempt))%uint64(delay/2+1))
				reg.Counter(obs.MetricRetries).Add(1)
				batch.Event(obs.EvRetry, fmt.Sprintf(
					"stmt[%d] attempt=%d backoff=%v blocked-tables=%d: %v",
					i, attempt+1, delay, blocked, err))
				select {
				case <-ctx.Done():
					errs[i] = err
					return
				case <-time.After(delay):
				}
			}
		}(i, fn)
	}
	wg.Wait()
	db.obs.Registry().Counter(obs.MetricConcurrentBatches).Add(1)

	res := &ConcurrentResult{Statements: len(stmts), PerDevice: make([]time.Duration, ndev)}
	for d := 0; d < ndev; d++ {
		delta := db.disk.DeviceBusy(d) - before[d]
		res.PerDevice[d] = delta
		res.SerialEquivalent += delta
		if delta > res.Makespan {
			res.Makespan = delta
		}
	}
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// jitter64 is a splitmix64-style hash of (seed, statement index, attempt):
// a pure function, so a re-run of the same batch with the same policy seed
// reproduces every backoff delay exactly.
func jitter64(seed, stmt, attempt uint64) uint64 {
	z := seed ^ stmt*0x9e3779b97f4a7c15 ^ attempt*0xbf58476d1ce4e5b9
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rollForwardOnline is abort-to-consistency's engine half: it reuses the
// §3.2 crash-recovery machinery in process, without a restart. The caller
// (a cancelled bulk delete) still holds the statement's locks and gates, so
// the replay owns the structures exactly as Recover would after a crash. It
// re-reads the durable log prefix — flushing first, so the statement's last
// appended boundary record counts — distills this transaction's BulkState,
// and finishes the delete by the same roll-forward Recover runs. A cancel
// that fired before TBulkStart became durable leaves no BulkState, and the
// abort is zero-effect: also exactly what crash+recover would produce.
func (db *DB) rollForwardOnline(h *heapBackend, txID uint64, field int, token uint64) (int64, error) {
	recs, err := db.log.DurableRecords()
	if err != nil {
		return 0, err
	}
	for _, bs := range wal.AnalyzeBulks(recs) {
		if bs.TxID != txID {
			continue
		}
		if bs.Finished {
			return 0, nil
		}
		// The replay deletes rows the cancelled attempt had not reached;
		// open snapshots must keep seeing them, so it retains under the
		// SAME token as the statement — its deferred commit stamps both
		// attempts' versions together.
		tgt := h.target()
		h.retainTarget(tgt, token)
		return db.resume(tgt, bs, recs, field)
	}
	return 0, nil
}

// resume finishes one interrupted bulk delete by the §3.2 roll-forward —
// shared by crash recovery and the online abort — and returns the rows it
// completed.
func (db *DB) resume(tgt *core.Target, bs wal.BulkState, recs []wal.Record, field int) (int64, error) {
	st, err := core.Resume(tgt, bs, db.log, recs, field, core.Options{Reorganize: true})
	db.countMerged(st)
	if err != nil {
		return 0, err
	}
	if st.Trace != nil {
		db.obs.OnTrace(st.Trace)
	}
	return st.Deleted, nil
}

// countMerged adds the leaves a bulk delete's walks merged (st may be nil) to
// the btree_leaves_merged counter.
func (db *DB) countMerged(st *core.Stats) {
	if st == nil {
		return
	}
	var n int64
	for _, ss := range st.PerStructure {
		n += ss.LeavesMerged
	}
	db.obs.Registry().Counter(obs.MetricLeavesMerged).Add(n)
}

// Disk exposes the simulated disk (for cost-model inspection and tests).
func (db *DB) Disk() *sim.Disk { return db.disk }

// Pool exposes the buffer pool.
func (db *DB) Pool() *buffer.Pool { return db.pool }

// Clock returns the simulated time elapsed since the database was created.
func (db *DB) Clock() time.Duration { return db.disk.Clock() }

// DiskStats returns the physical operation counters.
func (db *DB) DiskStats() sim.Stats { return db.disk.Stats() }

// ResetDiskStats zeroes the counters (the clock keeps running).
func (db *DB) ResetDiskStats() { db.disk.ResetStats() }

// PoolStats returns the buffer-pool counters (hits, misses, evictions).
func (db *DB) PoolStats() buffer.Stats { return db.pool.Stats() }

// ResetPoolStats zeroes the buffer-pool counters.
func (db *DB) ResetPoolStats() { db.pool.ResetStats() }

// Observer returns the engine-wide metrics collector: aggregated counters,
// latency histograms, and the most recent statement traces.
func (db *DB) Observer() *obs.Observer { return db.obs }

// InspectReport is a point-in-time picture of the engine's concurrent
// state: every in-flight statement with its phase and progress counters,
// the lock manager's holds/waits graph, and the WAL appender queue.
type InspectReport struct {
	// Clock is the simulated time at the snapshot.
	Clock time.Duration
	// Statements lists the statements currently in flight, ID-ordered.
	Statements []obs.StmtStatus
	// WaitGraph is the lock manager's snapshot: who holds, who waits.
	WaitGraph cc.WaitGraph
	// WAL reports the appender-queue counters.
	WAL wal.QueueStats
}

// String renders the report as the `stress -top` / `bulkdel inspect` view.
func (r *InspectReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "clock=%v  in-flight=%d\n", r.Clock, len(r.Statements))
	for _, s := range r.Statements {
		phase := s.Phase
		if phase == "" {
			phase = "-"
		}
		fmt.Fprintf(&b, "  stmt %d %s %s  phase=%s pages=%d rows=%d events=%d\n",
			s.ID, s.Kind, s.Table, phase, s.Pages, s.Rows, s.Events)
	}
	if g := r.WaitGraph.String(); g != "" {
		b.WriteString("locks:\n")
		for _, line := range strings.Split(strings.TrimRight(g, "\n"), "\n") {
			b.WriteString("  " + line + "\n")
		}
	}
	fmt.Fprintf(&b, "wal: appends=%d queued=%s peak=%s flushes=%d flushed=%s\n",
		r.WAL.Appends, obs.FmtBytes(uint64(r.WAL.Queued)),
		obs.FmtBytes(uint64(r.WAL.QueuePeak)), r.WAL.Flushes,
		obs.FmtBytes(r.WAL.FlushBytes))
	return b.String()
}

// Inspect snapshots the engine's live concurrent state without blocking
// any statement: in-flight statements (phase, pages scanned, victims
// deleted), the lock wait graph, and the WAL appender queue. Safe to call
// from any goroutine while statements run.
func (db *DB) Inspect() *InspectReport {
	return &InspectReport{
		Clock:      db.disk.Clock(),
		Statements: db.obs.Events().InFlight(),
		WaitGraph:  db.cc.WaitGraph(),
		WAL:        db.log.QueueStats(),
	}
}

// obsSource describes where this DB's counters live, for snapshotting.
func (db *DB) obsSource() obs.Source {
	return obs.Source{Disk: db.disk, Pool: db.pool,
		WALBytes: func() uint64 { return db.log.QueueStats().FlushBytes }}
}

// Metrics captures a point-in-time snapshot of the simulated clock, the
// disk counters, the buffer-pool counters, and the durable WAL bytes.
// Subtract two snapshots (Snapshot.Sub) to attribute work to a scope.
func (db *DB) Metrics() obs.Snapshot { return db.obsSource().Capture() }

// Epoch returns the current commit epoch — the snapshot a reader starting
// now would capture. It advances once per committed delete statement.
func (db *DB) Epoch() uint64 { return db.epochs.Current() }

// WALFile returns the file holding the write-ahead log, for fault plans
// that target the log specifically (e.g. sim.FaultPlan.TearFileWrite).
func (db *DB) WALFile() sim.FileID { return db.log.FileID() }

// CreateTable adds a heap table of numFields int64 attributes padded to
// recordSize bytes; CreateTableLSM makes an LSM one.
func (db *DB) CreateTable(name string, numFields, recordSize int) (*Table, error) {
	return db.createHeapTable(name, record.Schema{NumFields: numFields, Size: recordSize}, PartitionSpec{})
}

// createHeapTable adds a heap table split by spec, its partitions placed by
// the device policy.
func (db *DB) createHeapTable(name string, schema record.Schema, spec PartitionSpec) (*Table, error) {
	var h *heapBackend
	tbl, err := db.addTable(name, schema, func(tbl *Table) (backend, error) {
		t, err := table.Create(db.pool, name, schema, spec)
		if err != nil {
			return nil, err
		}
		h = newHeapBackend(tbl, t)
		return h, nil
	})
	if err == nil {
		err = h.placeHeapPartitions()
	}
	return db.created(tbl, err)
}

// created finishes a CREATE TABLE: the new table's files are written first,
// so that the catalog save that makes it durable never names a file a crash
// would leave without its header.
func (db *DB) created(tbl *Table, err error) (*Table, error) {
	if err == nil {
		err = tbl.b.flush()
	}
	if err == nil {
		err = db.saveCatalog()
	}
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

// addTable registers a new table under db.mu — every CREATE TABLE and
// Recover's reopen come through here: the shared statement-layer shell
// first, then build attaches the backend that will hold its rows. Saving
// the catalog is the caller's business.
func (db *DB) addTable(name string, schema record.Schema, build func(*Table) (backend, error)) (*Table, error) {
	if db.crashed.Load() {
		return nil, errCrashed
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; ok {
		return nil, fmt.Errorf("bulkdel: table %q already exists", name)
	}
	tbl := &Table{db: db, name: name, schema: schema, lock: db.cc.Lock(name)}
	var err error
	if tbl.b, err = build(tbl); err != nil {
		return nil, err
	}
	db.tables[name] = tbl
	return tbl, nil
}

// Table returns a table by name, or nil.
func (db *DB) Table(name string) *Table {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.tables[name]
}

// TableNames lists the catalog.
func (db *DB) TableNames() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []string
	for n := range db.tables {
		out = append(out, n)
	}
	return out
}

// Flush forces the catalog, every table, and the log to disk.
func (db *DB) Flush() error {
	if db.crashed.Load() {
		return errCrashed
	}
	if err := db.saveCatalog(); err != nil {
		return err
	}
	db.mu.Lock()
	tbls := make([]*Table, 0, len(db.tables))
	for _, tbl := range db.tables {
		tbls = append(tbls, tbl)
	}
	db.mu.Unlock()
	for _, tbl := range tbls {
		if err := tbl.Flush(); err != nil {
			return err
		}
	}
	return db.log.Flush()
}

var errCrashed = fmt.Errorf("bulkdel: database crashed; call Recover on its disk")

// SimulateCrash discards all volatile state (buffer pool contents,
// in-memory catalog) and returns the disk, exactly as a power failure
// would leave it. The DB becomes unusable; pass the disk to Recover.
func (db *DB) SimulateCrash() *sim.Disk {
	db.pool.InvalidateAll()
	db.crashed.Store(true)
	db.mu.Lock()
	db.tables = nil
	db.mu.Unlock()
	db.obs.Registry().Counter("crashes_simulated").Add(1)
	return db.disk
}

// restartWAL restarts the log in place (wal.Log.Restart) when no record in
// it is live. The log itself knows its open bulk deletes and file moves;
// the rest is the engine's: every LSM table's memtable must be flushed
// through its last seq, and the last catalog save must hold the epoch and
// TxID floors recovery would otherwise count from the log's records. LSM
// flushes call it, being what drains the last live records of an LSM
// workload. The table list is copied before any tree is asked, so no tree
// latch is taken under db.mu (a flush holds its tree's latch while the
// catalog save takes db.mu). A heap delete advances the epoch just after
// its commit record; a restart in between leaves the floor one epoch
// short, which only a crash before the next catalog save could expose, and
// no durable structure stores an epoch.
func (db *DB) restartWAL() error {
	return db.log.Restart(func() bool {
		db.catMu.Lock()
		floors := db.epochs.Current() <= db.catEpoch && db.txSeq.Load() <= db.catTx
		db.catMu.Unlock()
		if !floors {
			return false
		}
		db.mu.Lock()
		tbls := make([]*Table, 0, len(db.tables))
		for _, tbl := range db.tables {
			tbls = append(tbls, tbl)
		}
		db.mu.Unlock()
		for _, tbl := range tbls {
			if l, ok := tbl.b.(*lsmBackend); ok && !l.tree.Drained() {
				return false
			}
		}
		return true
	})
}

// nextTx hands out transaction IDs for logged bulk deletes.
func (db *DB) nextTx() uint64 {
	return db.txSeq.Add(1)
}
