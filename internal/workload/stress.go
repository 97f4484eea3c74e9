// Concurrent stress generator for the DB-level lock manager: N worker
// goroutines issue randomized bulk deletes, lookups, and inserts across M
// tables from a seeded RNG, while a shadow model tracks what must survive.
//
// The model is the oracle: each table's live-key set is mutated under a
// model mutex *around* the engine call — bulk-delete victims are claimed
// (removed from the model) before the statement runs, inserts join the
// model only after the engine accepted them — so whatever the goroutines'
// interleaving, the engine must end in exactly the model's state. Every
// bulk delete additionally asserts the per-statement victim invariant
// (Deleted == number of claimed keys: all victims were live), and the
// final sweep checks heap↔index consistency plus an exact scan↔model match
// per table.
//
// Generator decisions are deterministic in (Seed, worker): a failing seed
// replays the same operation streams (outcomes can differ across runs only
// through goroutine interleaving, which the invariants are independent of).
package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"bulkdel"
	"bulkdel/internal/obs"
	"bulkdel/internal/session"
	"bulkdel/internal/wire"
)

// StressSpec configures one stress run.
type StressSpec struct {
	// Tables is the number of independent tables (default 4).
	Tables int
	// Rows initially loaded per table (default 200).
	Rows int
	// Workers is the number of concurrent statement-issuing goroutines
	// (default 4).
	Workers int
	// Ops issued per worker (default 40).
	Ops int
	// Devices sizes the simulated disk array (0 = single spindle).
	Devices int
	// Parallel is the per-statement worker cap for remaining-index passes.
	Parallel int
	// Budget is the DB-wide admission budget (Options.Parallel).
	Budget int
	// Seed drives every worker's generator.
	Seed int64
	// Concurrent runs bulk deletes under the §3.1 protocol (offline
	// indexes + side-files + early lock release) instead of holding the
	// exclusive lock for the whole statement.
	Concurrent bool
	// DisableWAL turns logging off (the WAL path is the default).
	DisableWAL bool
	// OnOpen, when set, receives the DB right after it is opened and
	// loaded — before the workers start — so callers can watch the run
	// live (DB.Inspect) or export its event log afterwards.
	OnOpen func(*bulkdel.DB)

	// Ctx, when set, lets the caller interrupt the run: once it is
	// cancelled the workers finish their in-flight operation, stop issuing
	// new ones, and the run drains into the normal final verification
	// (Stats.Interrupted reports the early stop). Nil means run to
	// completion.
	Ctx context.Context

	// CancelPct is the percentage of bulk deletes issued with an
	// already-cancelled statement context. The engine must abort each one
	// to a consistent boundary: either zero effect (cancel observed at
	// admission) or the full delete (the online recovery replay finished
	// it) — the worker detects which by probing the victims and retries
	// the zero-effect case, so the shadow model stays exact either way.
	CancelPct int
	// DeadlinePct is the percentage of bulk deletes issued with a tiny
	// random statement deadline (microseconds), so cancellation fires
	// mid-statement at a wall-clock-dependent checkpoint rather than at
	// admission. Same abort contract and model handling as CancelPct.
	DeadlinePct int
	// LockWaitPct is the percentage of bulk deletes issued with a tiny
	// random lock-wait budget. A statement that trips it fails with
	// ErrLockTimeout before any work; the worker retries it (dropping the
	// budget after repeated timeouts), modelling the timeout-victim retry
	// policy.
	LockWaitPct int
	// AdmissionQueue caps the admission-pool wait queue (Options.
	// AdmissionQueue): parallel statements beyond Budget+AdmissionQueue
	// are shed with ErrOverloaded, which the worker retries like a lock
	// timeout.
	AdmissionQueue int

	// SQLPct routes this percentage of operations through the SQL front
	// door instead of the Go API: the run starts an in-process wire server
	// on a loopback port, every worker dials its own connection (one SQL
	// session each), and the routed inserts/lookups/deletes are validated
	// against the same shadow model — so the tokenizer→parser→binder→
	// executor lowering is checked for exactness, not just for not
	// crashing. Chaos options (CancelPct, DeadlinePct, LockWaitPct) stay
	// on the Go-API path: a delete the chaos draw selects runs through the
	// Go API even when the SQL draw also fired.
	SQLPct int
}

func (s StressSpec) withDefaults() StressSpec {
	if s.Tables <= 0 {
		s.Tables = 4
	}
	if s.Rows <= 0 {
		s.Rows = 200
	}
	if s.Workers <= 0 {
		s.Workers = 4
	}
	if s.Ops <= 0 {
		s.Ops = 40
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Resolved returns the spec with defaults applied — the values a run with
// this spec actually uses, for reporting.
func (s StressSpec) Resolved() StressSpec { return s.withDefaults() }

// StressStats summarizes a completed run.
type StressStats struct {
	BulkDeletes  int64
	RowsDeleted  int64
	RowsInserted int64
	Lookups      int64
	// Makespan and SerialEquivalent are the batch's device-level timing
	// from DB.RunConcurrent (see bulkdel.ConcurrentResult).
	Makespan         time.Duration
	SerialEquivalent time.Duration
	// LockWaits is the number of blocked lock acquisitions observed by the
	// manager (real contention happened).
	LockWaits int64
	// LockWaitUS is the total real time statements spent blocked on table
	// locks, in microseconds (wall-clock, nondeterministic).
	LockWaitUS int64
	// WallTime is the real (wall-clock) duration of the concurrent batch,
	// as opposed to the simulated Makespan.
	WallTime time.Duration
	// P50, P95, P99 are per-statement simulated-latency percentiles from
	// the observer's statement_elapsed histogram.
	P50, P95, P99 time.Duration

	// Cancelled counts bulk deletes that observed a cancellation or
	// deadline; FullAborts of them were completed by the online recovery
	// replay (full effect), ZeroAborts stopped before any work.
	Cancelled, FullAborts, ZeroAborts int64
	// LockTimeouts and Shed count statements refused by the lock-wait
	// budget and the admission overload guard; Retries counts the worker
	// re-issues that followed any refused or zero-effect statement.
	LockTimeouts, Shed, Retries int64
	// Interrupted reports that the spec's Ctx was cancelled and the run
	// drained early (the final verification still ran).
	Interrupted bool
	// SQLStmts counts the statements executed through the SQL front door
	// (SQLPct > 0): every routed INSERT, SELECT, and DELETE.
	SQLStmts int64
	// SnapshotProbes counts MVCC snapshot-consistency probes: each opens a
	// View and verifies a repeated read at the pinned epoch is identical.
	SnapshotProbes int64
	// SnapshotReadWaits is the number of snapshot reads that blocked on a
	// table lock. Bulk deletes admit snapshot readers, so with MVCC on this
	// stays zero unless a structural pass (repartition, drop-create) ran.
	SnapshotReadWaits int64
	// VersionsRetained is the lifetime count of pre-delete row images
	// copied into the version stores for open snapshots.
	VersionsRetained int64
	// RetainedBytes is the mvcc_retained_bytes gauge at drain: the bytes
	// the version stores still hold. With every snapshot closed, pruning
	// should have driven it back to zero.
	RetainedBytes int64
}

// stressModel is one table's oracle state.
type stressModel struct {
	mu   sync.Mutex
	live map[int64]struct{}
	ids  []int64 // the keys of live, in insertion order (for sampling)
	next int64   // next fresh key
}

// claim removes up to n randomly chosen live keys from the model and
// returns them; they are the victim list of a bulk delete.
func (m *stressModel) claim(rng *rand.Rand, n int) []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n > len(m.ids) {
		n = len(m.ids)
	}
	out := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		j := rng.Intn(len(m.ids))
		id := m.ids[j]
		m.ids[j] = m.ids[len(m.ids)-1]
		m.ids = m.ids[:len(m.ids)-1]
		delete(m.live, id)
		out = append(out, id)
	}
	return out
}

// reserve hands out a fresh never-used key.
func (m *stressModel) reserve() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.next
	m.next++
	return id
}

// commit adds a reserved key to the live set (after the engine accepted
// the insert).
func (m *stressModel) commit(id int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.live[id] = struct{}{}
	m.ids = append(m.ids, id)
}

// sample returns one live key, or ok=false when the table is empty.
func (m *stressModel) sample(rng *rand.Rand) (int64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.ids) == 0 {
		return 0, false
	}
	return m.ids[rng.Intn(len(m.ids))], true
}

// keys returns the live set, sorted.
func (m *stressModel) keys() []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := append([]int64(nil), m.ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// stressRow derives a table row from its key, so lookups can verify
// content, not just presence.
func stressRow(id int64) []int64 { return []int64{id, 3 * id, id % 7} }

var stressMethods = []bulkdel.Method{bulkdel.Auto, bulkdel.SortMerge, bulkdel.Hash, bulkdel.HashPartition, bulkdel.Probe}

// Stress builds the tables, runs the workers, and verifies the final
// state. A nil error means every invariant held.
func Stress(spec StressSpec) (*StressStats, error) {
	spec = spec.withDefaults()
	db, err := bulkdel.Open(bulkdel.Options{
		Devices:        spec.Devices,
		Parallel:       spec.Budget,
		DisableWAL:     spec.DisableWAL,
		AdmissionQueue: spec.AdmissionQueue,
	})
	if err != nil {
		return nil, err
	}
	if spec.OnOpen != nil {
		spec.OnOpen(db)
	}

	tables := make([]*bulkdel.Table, spec.Tables)
	models := make([]*stressModel, spec.Tables)
	for ti := range tables {
		name := fmt.Sprintf("T%d", ti)
		tbl, err := db.CreateTable(name, 3, 64)
		if err != nil {
			return nil, err
		}
		for _, ix := range []bulkdel.IndexOptions{
			{Name: "IA", Field: 0, Unique: true},
			{Name: "IB", Field: 1},
			{Name: "IC", Field: 2},
		} {
			if err := tbl.CreateIndex(ix); err != nil {
				return nil, err
			}
		}
		m := &stressModel{live: make(map[int64]struct{})}
		for id := int64(0); id < int64(spec.Rows); id++ {
			if _, err := tbl.Insert(stressRow(id)...); err != nil {
				return nil, err
			}
			m.commit(id)
		}
		m.next = int64(spec.Rows)
		tables[ti] = tbl
		models[ti] = m
	}
	if err := db.Flush(); err != nil {
		return nil, err
	}

	// SQL front door: one in-process wire server over the same DB; each
	// worker owns one connection (= one SQL session). Tables created via
	// the Go API have no declared column names, so SQL statements address
	// fields positionally as c0, c1, c2.
	var sqlSrv *wire.Server
	var sqlAddr string
	if spec.SQLPct > 0 {
		sqlSrv = wire.NewServer(session.NewFrontend(db))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("sql listener: %w", err)
		}
		sqlAddr = ln.Addr().String()
		go sqlSrv.Serve(ln)
		defer func() {
			// Idempotent backstop for error returns; the success path has
			// already drained gracefully by the time this runs.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			sqlSrv.Shutdown(ctx)
		}()
	}

	stats := &StressStats{}
	var statsMu sync.Mutex

	runCtx := spec.Ctx
	if runCtx == nil {
		runCtx = context.Background()
	}

	worker := func(w int) func() error {
		return func() error {
			rng := rand.New(rand.NewSource(spec.Seed + int64(w)*1_000_003))
			var sqlc *wire.Client
			if sqlSrv != nil {
				var err error
				sqlc, err = wire.Dial(sqlAddr)
				if err != nil {
					return fmt.Errorf("worker %d: dial sql: %w", w, err)
				}
				defer sqlc.Close()
				setup := []string{"SET checkpoint_rows = 16"}
				if spec.Parallel > 0 {
					setup = append(setup, fmt.Sprintf("SET parallel = %d", spec.Parallel))
				}
				if spec.Concurrent {
					setup = append(setup, "SET concurrent = on")
				}
				for _, s := range setup {
					if _, err := sqlc.Exec(s); err != nil {
						return fmt.Errorf("worker %d: %q: %w", w, s, err)
					}
				}
			}
			sqlExec := func(src string) (*session.Result, error) {
				statsMu.Lock()
				stats.SQLStmts++
				statsMu.Unlock()
				return sqlc.Exec(src)
			}
			for op := 0; op < spec.Ops; op++ {
				if runCtx.Err() != nil {
					return nil // interrupted: drain, the final sweep still runs
				}
				ti := rng.Intn(spec.Tables)
				tbl, model := tables[ti], models[ti]
				fail := func(err error) error {
					return fmt.Errorf("seed %d worker %d op %d table T%d: %w",
						spec.Seed, w, op, ti, err)
				}
				switch r := rng.Intn(100); {
				case r < 45: // insert a small batch
					n := 1 + rng.Intn(4)
					if sqlc != nil && rng.Intn(100) < spec.SQLPct {
						ids := make([]int64, 0, n)
						vals := make([]string, 0, n)
						for i := 0; i < n; i++ {
							id := model.reserve()
							row := stressRow(id)
							ids = append(ids, id)
							vals = append(vals, fmt.Sprintf("(%d, %d, %d)", row[0], row[1], row[2]))
						}
						res, err := sqlExec(fmt.Sprintf("INSERT INTO T%d VALUES %s", ti, strings.Join(vals, ", ")))
						if err != nil {
							return fail(fmt.Errorf("sql insert: %w", err))
						}
						if res.Affected != int64(n) {
							return fail(fmt.Errorf("sql insert affected=%d, want %d", res.Affected, n))
						}
						for _, id := range ids {
							model.commit(id)
						}
					} else {
						for i := 0; i < n; i++ {
							id := model.reserve()
							if _, err := tbl.Insert(stressRow(id)...); err != nil {
								return fail(fmt.Errorf("insert %d: %w", id, err))
							}
							model.commit(id)
						}
					}
					statsMu.Lock()
					stats.RowsInserted += int64(n)
					statsMu.Unlock()
				case r < 70: // indexed lookups of a probably-live key
					id, ok := model.sample(rng)
					if !ok {
						continue
					}
					var rows [][]int64
					var err error
					useSQL := sqlc != nil && rng.Intn(100) < spec.SQLPct
					if useSQL {
						var res *session.Result
						res, err = sqlExec(fmt.Sprintf("SELECT * FROM T%d WHERE c0 = %d", ti, id))
						if res != nil {
							rows = res.Rows
						}
					} else {
						rows, err = tbl.Lookup(0, id)
					}
					if err != nil {
						return fail(fmt.Errorf("lookup %d: %w", id, err))
					}
					// The key may have been claimed by a concurrent delete
					// after sampling, so absence is fine — a hit must match.
					if len(rows) > 1 {
						return fail(fmt.Errorf("lookup %d: %d rows on a unique index", id, len(rows)))
					}
					if len(rows) == 1 && rows[0][1] != 3*id {
						return fail(fmt.Errorf("lookup %d: wrong row %v", id, rows[0]))
					}
					// Probe the NON-unique secondary index too: after a
					// concurrent delete's §3.1 early release this tree may
					// still be offline mid-pass, so the read path must wait
					// on its gate (field 1 holds 3*id, injective in id).
					if useSQL {
						var res *session.Result
						res, err = sqlExec(fmt.Sprintf("SELECT * FROM T%d WHERE c1 = %d", ti, 3*id))
						rows = nil
						if res != nil {
							rows = res.Rows
						}
					} else {
						rows, err = tbl.Lookup(1, 3*id)
					}
					if err != nil {
						return fail(fmt.Errorf("secondary lookup %d: %w", 3*id, err))
					}
					if len(rows) > 1 {
						return fail(fmt.Errorf("secondary lookup %d: %d rows for one key", 3*id, len(rows)))
					}
					if len(rows) == 1 && rows[0][0] != id {
						return fail(fmt.Errorf("secondary lookup %d: wrong row %v", 3*id, rows[0]))
					}
					// Snapshot-consistency probe: a View pins its commit epoch,
					// so two reads of the same key through one view must agree
					// exactly — even while a concurrent bulk delete claims the
					// key between them. (The plain lookups above are each their
					// own snapshot and may legitimately disagree.)
					v, verr := tbl.View()
					if verr != nil {
						return fail(fmt.Errorf("view: %w", verr))
					}
					first, ferr := v.Lookup(0, id)
					second, serr := v.Lookup(0, id)
					v.Close()
					if ferr != nil || serr != nil {
						return fail(fmt.Errorf("snapshot probe %d: %v / %v", id, ferr, serr))
					}
					if len(first) != len(second) {
						return fail(fmt.Errorf("snapshot probe %d: repeat read at epoch %d changed: %d rows then %d",
							id, v.Epoch(), len(first), len(second)))
					}
					for _, rows := range [][][]int64{first, second} {
						if len(rows) == 1 && (rows[0][0] != id || rows[0][1] != 3*id || rows[0][2] != id%7) {
							return fail(fmt.Errorf("snapshot probe %d: wrong row %v", id, rows[0]))
						}
					}
					statsMu.Lock()
					stats.Lookups += 2
					stats.SnapshotProbes++
					statsMu.Unlock()
				default: // bulk delete of claimed victims
					victims := model.claim(rng, 1+rng.Intn(8))
					if len(victims) == 0 {
						continue
					}
					opts := bulkdel.BulkOptions{
						Method:         stressMethods[rng.Intn(len(stressMethods))],
						Concurrent:     spec.Concurrent,
						Parallel:       spec.Parallel,
						CheckpointRows: 16,
					}
					// Chaos: cancellation (an already-dead context, so the
					// statement aborts at admission), a tiny wall-clock
					// deadline (so it aborts at a mid-statement checkpoint),
					// and a tiny lock-wait budget (so it may be refused as a
					// timeout victim). The victims stay claimed throughout:
					// a cancelled delete either completed via the online
					// replay or had zero effect, and the retry loop below
					// converges the zero-effect and refused cases, so the
					// model's claim is correct no matter which path fires.
					chaos := false
					if spec.CancelPct > 0 && rng.Intn(100) < spec.CancelPct {
						ctx, cancel := context.WithCancel(context.Background())
						cancel()
						opts.Ctx = ctx
						chaos = true
					} else if spec.DeadlinePct > 0 && rng.Intn(100) < spec.DeadlinePct {
						opts.Timeout = time.Duration(1+rng.Intn(500)) * time.Microsecond
						chaos = true
					}
					if spec.LockWaitPct > 0 && rng.Intn(100) < spec.LockWaitPct {
						opts.LockWait = time.Duration(1+rng.Intn(200)) * time.Microsecond
						chaos = true
					}
					// SQL routing: only chaos-free deletes go through the
					// front door (chaos stays on the Go API, where the abort
					// probe and budget-drop logic live).
					if !chaos && sqlc != nil && rng.Intn(100) < spec.SQLPct {
						in := make([]string, len(victims))
						for i, v := range victims {
							in[i] = fmt.Sprintf("%d", v)
						}
						stmt := fmt.Sprintf("DELETE FROM T%d WHERE c0 IN (%s)", ti, strings.Join(in, ", "))
						for attempt := 0; ; attempt++ {
							res, err := sqlExec(stmt)
							if err == nil {
								if res.Affected != int64(len(victims)) {
									return fail(fmt.Errorf("sql delete: %d victims, %d affected", len(victims), res.Affected))
								}
								statsMu.Lock()
								stats.BulkDeletes++
								stats.RowsDeleted += res.Affected
								if attempt > 0 {
									stats.Retries++
								}
								statsMu.Unlock()
								break
							}
							if errors.Is(err, bulkdel.ErrLockTimeout) || errors.Is(err, bulkdel.ErrOverloaded) {
								statsMu.Lock()
								if errors.Is(err, bulkdel.ErrLockTimeout) {
									stats.LockTimeouts++
								} else {
									stats.Shed++
								}
								statsMu.Unlock()
								continue
							}
							return fail(fmt.Errorf("sql delete of %d victims: %w", len(victims), err))
						}
						continue
					}
					for attempt := 0; ; attempt++ {
						res, err := tbl.BulkDelete(0, victims, opts)
						if err == nil {
							// Victim invariant: every claimed key was live and
							// in the table exactly once.
							if res.Deleted != int64(len(victims)) {
								return fail(fmt.Errorf("bulk delete: %d victims, %d deleted", len(victims), res.Deleted))
							}
							statsMu.Lock()
							stats.BulkDeletes++
							stats.RowsDeleted += res.Deleted
							if attempt > 0 {
								stats.Retries++
							}
							statsMu.Unlock()
							break
						}
						switch {
						case errors.Is(err, bulkdel.ErrCancelled):
							// Abort-to-consistency contract: all victims gone
							// (the replay finished the delete) or all intact
							// (cancelled at admission) — never a torn set.
							// Nobody else touches claimed keys, so the probe
							// is stable under concurrency.
							gone := 0
							for _, v := range victims {
								rows, lerr := tbl.Lookup(0, v)
								if lerr != nil {
									return fail(fmt.Errorf("probing victim %d after cancel: %w", v, lerr))
								}
								if len(rows) == 0 {
									gone++
								}
							}
							statsMu.Lock()
							stats.Cancelled++
							statsMu.Unlock()
							switch gone {
							case len(victims): // full effect: the delete is done
								statsMu.Lock()
								stats.FullAborts++
								stats.BulkDeletes++
								stats.RowsDeleted += int64(len(victims))
								statsMu.Unlock()
							case 0: // zero effect: re-issue without the chaos
								statsMu.Lock()
								stats.ZeroAborts++
								statsMu.Unlock()
								opts.Ctx, opts.Timeout = nil, 0
								continue
							default:
								return fail(fmt.Errorf("cancelled delete tore its victim set: %d of %d gone", gone, len(victims)))
							}
						case errors.Is(err, bulkdel.ErrLockTimeout), errors.Is(err, bulkdel.ErrOverloaded):
							// Refused before any work: this statement is the
							// timeout/overload victim, and retrying it is
							// always safe. Drop the budget after repeated
							// refusals so the loop terminates.
							statsMu.Lock()
							if errors.Is(err, bulkdel.ErrLockTimeout) {
								stats.LockTimeouts++
							} else {
								stats.Shed++
							}
							statsMu.Unlock()
							if attempt >= 2 {
								opts.LockWait = 0
							}
							continue
						default:
							return fail(fmt.Errorf("bulk delete of %d victims: %w", len(victims), err))
						}
						break
					}
				}
			}
			return nil
		}
	}

	stmts := make([]func() error, spec.Workers)
	for w := range stmts {
		stmts[w] = worker(w)
	}
	t0 := time.Now()
	cres, err := db.RunConcurrentCtx(runCtx, bulkdel.RetryPolicy{MaxRetries: 2, Seed: spec.Seed}, stmts...)
	stats.WallTime = time.Since(t0)
	if err != nil {
		// An interrupted run is not a failure: the workers drained on the
		// cancelled context and the final verification below still decides.
		if !errors.Is(err, context.Canceled) || runCtx.Err() == nil {
			return nil, err
		}
		stats.Interrupted = true
	}
	stats.Makespan = cres.Makespan
	stats.SerialEquivalent = cres.SerialEquivalent
	reg := db.Observer().Registry()
	stats.LockWaits = reg.Counter(obs.MetricLockWaits).Value()
	stats.LockWaitUS = reg.Counter(obs.MetricLockWaitUS).Value()
	stats.SnapshotReadWaits = reg.Counter(obs.MetricSnapshotReadWaits).Value()
	stats.VersionsRetained = reg.Counter(obs.MetricVersionsRetained).Value()
	stats.RetainedBytes = reg.Gauge(obs.MetricVersionsRetainedBytes).Value()
	elapsed := reg.Histogram("statement_elapsed")
	stats.P50 = elapsed.Quantile(0.50)
	stats.P95 = elapsed.Quantile(0.95)
	stats.P99 = elapsed.Quantile(0.99)

	// The workers have closed their SQL connections; the wire server must
	// drain gracefully (no session stuck mid-statement).
	if sqlSrv != nil {
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		derr := sqlSrv.Shutdown(sctx)
		scancel()
		if derr != nil {
			return stats, fmt.Errorf("seed %d: sql server did not drain: %w", spec.Seed, derr)
		}
	}

	// Leak check: after every statement has finished — including the
	// cancelled, timed-out, and shed ones — nothing may linger: no
	// in-flight statements, no held or waited-on lock, no admission slot.
	if insp := db.Inspect(); len(insp.Statements) != 0 || !insp.WaitGraph.Idle() {
		return stats, fmt.Errorf("seed %d: leaked concurrent state after stress:\n%s", spec.Seed, insp.String())
	}

	// Final sweep: heap↔index consistency and an exact model match.
	for ti, tbl := range tables {
		if err := tbl.Check(); err != nil {
			return stats, fmt.Errorf("seed %d: table T%d inconsistent after stress: %w", spec.Seed, ti, err)
		}
		want := models[ti].keys()
		got := make([]int64, 0, len(want))
		err := tbl.Scan(func(_ bulkdel.RID, fields []int64) error {
			got = append(got, fields[0])
			if fields[1] != 3*fields[0] || fields[2] != fields[0]%7 {
				return fmt.Errorf("row %v corrupted", fields)
			}
			return nil
		})
		if err != nil {
			return stats, fmt.Errorf("seed %d: table T%d scan: %w", spec.Seed, ti, err)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(want) {
			return stats, fmt.Errorf("seed %d: table T%d has %d rows, model has %d (survivor mismatch)",
				spec.Seed, ti, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return stats, fmt.Errorf("seed %d: table T%d row %d: got key %d, model %d",
					spec.Seed, ti, i, got[i], want[i])
			}
		}
	}
	return stats, nil
}
