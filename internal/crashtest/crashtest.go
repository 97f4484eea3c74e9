// Package crashtest sweeps a statement through every possible crash point.
// A scenario (scenarios.go) builds a deterministic database — seeded data,
// WAL on, flushed durable — and names the statement under test; the one
// driver in this file runs it once fault-free to count its page I/Os, and
// then, for every I/O ordinal k, re-runs it on a fresh database with a
// simulated power failure at exactly the kth I/O, reopens the database
// through crash recovery, and hands it to the scenario's invariant check:
//
//   - every structure passes its consistency check (for a heap table: an
//     exact ⟨key,RID⟩ match between the heap and every index);
//   - the statement is atomic: either all of its effects are there (a bulk
//     delete found in the WAL is rolled forward, §3.2) or none are; rows
//     the statement does not touch always survive;
//   - the run is deterministic: the same ordinal yields the same simulated
//     clock and the same recovery actions, so any failure reproduces
//     exactly with `crashtest -at k`.
//
// Cancel is a mode of the same driver: instead of cutting the power at the
// kth I/O it requests cooperative cancellation there, checks the online
// abort in-process, and compares it with the crash cycle at that ordinal.
//
// Because the disk, the clock, and the victim selection are all seeded and
// simulated, a sweep is exhaustive rather than probabilistic: it visits
// every I/O the statement performs, not a random sample.
package crashtest

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"

	"bulkdel"
	"bulkdel/internal/obs"
	"bulkdel/internal/sim"
)

// Config describes one sweep. The zero value is usable; every field has a
// small-but-interesting default chosen so that the statement spills sorts,
// takes mid-structure checkpoints, and evicts dirty pages.
type Config struct {
	// Rows in the table (default 48). Each row is R(A,B,C) with A=i
	// unique, B=3i, C=i%7, indexed IA (unique, the access index), IB, IC.
	Rows int
	// Victims is the number of rows deleted (default Rows/3).
	Victims int
	// Indexes is how many of the three indexes to create, 1..3 (default
	// 3). With 1 only the access index exists, exercising the
	// no-secondary-indexes protocol path.
	Indexes int
	// Method selects the join strategy (default bulkdel.SortMerge).
	Method bulkdel.Method
	// CheckpointRows between mid-structure WAL checkpoints (default 8 —
	// small, so the sweep crosses checkpoint boundaries).
	CheckpointRows int
	// Memory is the sort/hash budget in bytes (default 512 — small, so
	// external sorts spill and partitioning partitions).
	Memory int
	// BufferBytes is the buffer-pool budget (default 24 pages — small, so
	// dirty evictions happen mid-statement).
	BufferBytes int
	// Seed drives victim selection (default 1).
	Seed int64
	// From, To, Stride bound the swept ordinals (defaults 1, total, 1).
	From, To, Stride int
	// TearBytes, when > 0, additionally tears the crashing write: only the
	// first TearBytes bytes of the page reach the platter.
	TearBytes int
	// TearWALOnly restricts tearing to the WAL file (torn-log-tail tests).
	TearWALOnly bool
	// Devices sizes the simulated disk array; indexes are then placed
	// round-robin on devices 1..Devices (default 0 = single spindle).
	Devices int
	// Parallel caps the workers for the remaining-index ⋈̸ passes. With
	// goroutines in play the kth I/O is no longer a deterministic point
	// in the statement, so parallel sweeps assert the recovery invariants
	// per ordinal but must not compare digests across runs.
	Parallel int
	// Observer, when set, accumulates metrics across every run of the
	// sweep (faults_injected, crashes_simulated, recoveries_run).
	Observer *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.Rows <= 0 {
		c.Rows = 48
	}
	if c.Victims <= 0 {
		c.Victims = c.Rows / 3
	}
	if c.Victims > c.Rows {
		c.Victims = c.Rows
	}
	if c.Indexes <= 0 || c.Indexes > 3 {
		c.Indexes = 3
	}
	if c.Method == bulkdel.Auto {
		c.Method = bulkdel.SortMerge
	}
	if c.CheckpointRows <= 0 {
		c.CheckpointRows = 8
	}
	if c.Memory <= 0 {
		c.Memory = 512
	}
	if c.BufferBytes <= 0 {
		c.BufferBytes = 24 * sim.PageSize
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Stride <= 0 {
		c.Stride = 1
	}
	return c
}

// Deterministic reports whether a single-statement heap sweep's digest is
// reproducible: true unless the statement runs parallel workers on a real
// multi-device array. With workers == 1 the statement is sequential by
// construction; with a single device the parallel degree is clamped back
// to 1, so goroutine scheduling never reorders the I/O stream in either
// case.
func (c Config) Deterministic() bool {
	c = c.withDefaults()
	return c.Parallel <= 1 || c.Devices <= 1
}

// Field is one scenario-named column of a Result: a bool or an int64.
type Field struct {
	Name  string
	Value any
}

// Result reports one cycle of a sweep: crash-and-recover, or (in cancel
// mode) cancel-and-replay.
type Result struct {
	// Ordinal is the I/O (1-based, counted from statement start) at which
	// the power failure or the cancellation was injected.
	Ordinal int
	// Fired reports whether the statement actually observed it (false
	// past the statement's last I/O, or when a cancelled statement
	// completed before reaching a cancel checkpoint).
	Fired bool
	// Fields are the scenario's own columns, in a fixed order: what
	// recovery did (bulk-in-wal, rolled-forward, replayed, …), which legal
	// state it landed on, and what the cancel cycle saw (crash-comparable).
	Fields []Field
	// ReaderScans counts the scans a reader scenario's snapshot reader
	// completed. It depends on goroutine scheduling, so it is kept out of
	// Fields, which a sweep prints and digests.
	ReaderScans int
	// Survivors is the row count after the cycle settled.
	Survivors int64
	// ClockUS is the simulated clock after the cycle, in microseconds —
	// equal across runs of the same ordinal iff the engine is
	// deterministic.
	ClockUS int64
	// Digest is the settled table's StructureDigest. Only scenarios that
	// compare states by digest (cancel, reader) fill it, and only when the
	// ordinal's other invariants held.
	Digest string
	// Err describes an invariant violation ("" = the ordinal passed).
	Err string
}

// Field returns the value of the named column, nil when there is none.
func (r *Result) Field(name string) any {
	for _, f := range r.Fields {
		if f.Name == name {
			return f.Value
		}
	}
	return nil
}

// set overwrites the named column in place, or appends it.
func (r *Result) set(name string, v any) {
	for i := range r.Fields {
		if r.Fields[i].Name == name {
			r.Fields[i].Value = v
			return
		}
	}
	r.Fields = append(r.Fields, Field{name, v})
}

func (r *Result) failf(format string, args ...any) {
	r.Err = fmt.Sprintf(format, args...)
}

// SweepResult aggregates a sweep.
type SweepResult struct {
	// TotalIOs the fault-free statement performs; ordinals range 1..TotalIOs.
	TotalIOs int
	// Ran, Failed and Fired count the swept ordinals.
	Ran, Failed, Fired int
	// Reference is the completed-statement StructureDigest every cancelled
	// run must reproduce ("" outside the cancel and reader scenarios).
	Reference string
	// Deterministic reports whether a second sweep of the same Config must
	// reproduce Digest.
	Deterministic bool
	// Ordinals holds every per-ordinal result, in sweep order.
	Ordinals []Result
}

// Failures returns the results whose invariants failed.
func (s *SweepResult) Failures() []Result {
	var out []Result
	for _, r := range s.Ordinals {
		if r.Err != "" {
			out = append(out, r)
		}
	}
	return out
}

// Digest fingerprints the sweep's observable behaviour — per ordinal: did
// the fault fire, every scenario column, the survivor count, and the
// simulated clock. Two sweeps of the same deterministic Config must produce
// identical digests.
func (s *SweepResult) Digest() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "total=%d\n", s.TotalIOs)
	for _, r := range s.Ordinals {
		fmt.Fprintf(h, "%d:%v", r.Ordinal, r.Fired)
		for _, f := range r.Fields {
			fmt.Fprintf(h, ":%v", f.Value)
		}
		fmt.Fprintf(h, ":%d:%d:%s\n", r.Survivors, r.ClockUS, r.Err)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// StructureDigest fingerprints a table's logical content: every record in
// physical order with its RID. Two databases whose tables both pass Check
// and share a digest hold identical logical structures — Check pins each
// index to an exact ⟨key,RID⟩ match with the heap, so heap equality carries
// the indexes with it. (Physical tree shape is deliberately excluded:
// crash recovery may rebuild a damaged index from the heap, which changes
// its page layout but never its entry set.)
func StructureDigest(tbl *bulkdel.Table) (string, error) {
	h := fnv.New64a()
	err := tbl.Scan(func(rid bulkdel.RID, fields []int64) error {
		fmt.Fprintf(h, "%d:%d:%v\n", rid.Page, rid.Slot, fields)
		return nil
	})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// Run sweeps the named scenario (see Scenarios) over the ordinals cfg
// selects. The returned error reports harness failures only — an unknown
// name, a scenario that could not be built, a fault-free run that failed;
// per-ordinal invariant violations are in the result.
func Run(name string, cfg Config) (*SweepResult, error) {
	sc, ok := scenarios[name]
	if !ok {
		return nil, fmt.Errorf("crashtest: unknown scenario %q (have %v)", name, Scenarios())
	}
	cfg = cfg.withDefaults()
	if sc.config != nil {
		cfg = sc.config(cfg)
	}
	ref, err := sc.referenceRun(cfg)
	if err != nil {
		return nil, err
	}
	from, to := cfg.From, cfg.To
	if from <= 0 {
		from = 1
	}
	if to <= 0 || to > ref.totalIOs {
		to = ref.totalIOs
	}
	cycle := sc.crashCycle
	if sc.cancel {
		cycle = sc.cancelCycle
	}
	sw := &SweepResult{TotalIOs: ref.totalIOs, Reference: ref.post, Deterministic: sc.deterministic(cfg)}
	for k := from; k <= to; k += cfg.Stride {
		r, err := cycle(cfg, k, ref)
		if err != nil {
			return sw, err
		}
		sw.Ran++
		if r.Err != "" {
			sw.Failed++
		}
		if r.Fired {
			sw.Fired++
		}
		sw.Ordinals = append(sw.Ordinals, r)
	}
	return sw, nil
}

// reference is what the fault-free run of a scenario establishes: the
// sweep's ordinal range and, for the scenarios that compare states by
// digest, the untouched (pre) and completed-statement (post) digests.
type reference struct {
	totalIOs  int
	pre, post string
}

// referenceRun runs the statement once without faults (and without the
// reader decorator: reads never change the logical state), validates the
// outcome, and counts the page I/Os up to and including that validation.
func (sc scenario) referenceRun(cfg Config) (ref reference, err error) {
	st, err := sc.build(cfg)
	if err != nil {
		return ref, err
	}
	digests := sc.cancel || sc.reader
	if digests {
		if ref.pre, err = StructureDigest(st.tables[0]); err != nil {
			return ref, err
		}
	}
	before := st.db.Disk().IOCount()
	if err := sc.run(context.Background(), cfg, st, &Result{}); err != nil {
		return ref, fmt.Errorf("crashtest: fault-free run failed: %w", err)
	}
	if err := sc.reference(cfg, st); err != nil {
		return ref, fmt.Errorf("crashtest: fault-free run: %w", err)
	}
	ref.totalIOs = int(st.db.Disk().IOCount() - before)
	if digests {
		ref.post, err = StructureDigest(st.tables[0])
	}
	return ref, err
}

// cycleRun is the statement as the cycles run it: decorated with the
// concurrent snapshot reader in the reader scenarios.
func (sc scenario) cycleRun() runFunc {
	if sc.reader {
		return withReader(sc.run, sc.cancel)
	}
	return sc.run
}

// options are the engine options every build and every recovery share.
func options(cfg Config) bulkdel.Options {
	return bulkdel.Options{BufferBytes: cfg.BufferBytes, Observer: cfg.Observer}
}

// crashCycle executes one crash-and-recover cycle: fresh scenario, power
// failure at the kth statement I/O, recovery, invariant checks. Invariant
// violations are reported in the result's Err field; the returned error is
// reserved for harness failures (the scenario itself could not be built).
func (sc scenario) crashCycle(cfg Config, k int, ref reference) (Result, error) {
	res := Result{Ordinal: k, Fields: slices.Clone(sc.fields)}
	st, err := sc.build(cfg)
	if err != nil {
		return res, err
	}
	plan := sim.NewFaultPlan().CrashAtIO(uint64(k))
	if cfg.TearBytes > 0 {
		if cfg.TearWALOnly {
			plan = plan.TearFileWrite(st.db.WALFile(), cfg.TearBytes)
		} else {
			plan = plan.TearWrite(cfg.TearBytes)
		}
	}
	st.db.Disk().SetFaultPlan(plan)
	derr := sc.cycleRun()(context.Background(), cfg, st, &res)
	switch {
	case res.Err != "":
		return res, nil
	case derr == nil:
		// The statement finished before its kth I/O: k is past the end (or
		// the reader's I/Os soaked the ordinal up). The cycle still recovers.
	case sim.IsCrash(derr):
		res.Fired = true
	case sc.reader && errors.Is(derr, bulkdel.ErrCancelled):
		// The crash poisoned a WAL write under the statement while the
		// reader held the failing I/O; the engine surfaced it as an abort.
		// The recovery invariants still decide.
		res.Fired = true
	default:
		res.failf("unexpected non-crash error: %v", derr)
		return res, nil
	}

	// Power off, clear the fault plan (the machine rebooted), recover.
	disk := st.db.SimulateCrash()
	disk.SetFaultPlan(nil)
	rdb, rep, rerr := bulkdel.Recover(disk, options(cfg))
	if rerr != nil {
		res.failf("recovery failed: %v", rerr)
		return res, nil
	}
	sc.verify(cfg, st, rdb, rep, &res)
	if res.ClockUS == 0 { // verify stamps it itself when it goes on to change the database
		res.ClockUS = disk.Clock().Microseconds()
	}
	if res.Err != "" || ref.post == "" {
		return res, nil
	}
	if res.Digest, err = StructureDigest(rdb.Table(st.tables[0].Name())); err != nil {
		res.failf("digesting structures: %v", err)
	} else if res.Digest != ref.post && res.Digest != ref.pre {
		res.failf("recovered digest %s is neither completed %s nor untouched %s (victim set torn)",
			res.Digest, ref.post, ref.pre)
	}
	return res, nil
}

// cancelCycle executes one cancel-and-replay cycle: fresh scenario,
// cooperative cancellation requested as soon as the statement's kth page
// I/O has happened, online abort-to-consistency, invariant checks — no
// crash, no restart, same process. Roll-forward finishes the delete, so a
// cancelled statement and a completed one must converge on ref.post; the
// crash cycle at the same ordinal must land there too whenever its
// boundary is one the cancel path can also stop at. A cancel that comes
// before the executor's admission checkpoint (I/Os spent resolving a range,
// or the reader's) stops the statement untouched, on ref.pre, and then the
// crash at that ordinal must have found nothing in the WAL either.
func (sc scenario) cancelCycle(cfg Config, k int, ref reference) (Result, error) {
	res := Result{Ordinal: k}
	if !sc.reader {
		res.set("crash-comparable", false)
	}
	st, err := sc.build(cfg)
	if err != nil {
		return res, err
	}

	// Arm the cancel trigger: a fault-plan hook requests cooperative
	// cancellation synchronously at the kth statement I/O — the exact
	// boundary crashCycle's CrashAtIO pins its power failure to. The
	// statement then stops at its next cancel checkpoint; every checkpoint
	// is recoverable and every recovery rolls forward to the same final
	// state, so the structure digest below is deterministic.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st.db.Disk().SetFaultPlan(sim.NewFaultPlan().CallAtIO(uint64(k), cancel))
	derr := sc.cycleRun()(ctx, cfg, st, &res)
	st.db.Disk().SetFaultPlan(nil)
	switch {
	case res.Err != "":
		return res, nil
	case derr == nil:
	case errors.Is(derr, bulkdel.ErrCancelled):
		res.Fired = true
	default:
		res.failf("unexpected non-cancel error: %v", derr)
		return res, nil
	}

	// The statement is over (cancelled + replayed, or completed): no locks,
	// gates, or statements may linger.
	if insp := st.db.Inspect(); len(insp.Statements) != 0 || !insp.WaitGraph.Idle() {
		res.failf("leaked concurrent state after cancel:\n%s", insp.String())
		return res, nil
	}
	tbl := st.tables[0]
	if err := tbl.Check(); err != nil {
		res.failf("consistency check: %v", err)
		return res, nil
	}
	res.Survivors = tbl.Count()
	res.ClockUS = st.db.Clock().Microseconds()
	if res.Digest, err = StructureDigest(tbl); err != nil {
		res.failf("digesting structures: %v", err)
		return res, nil
	}
	switch {
	case res.Digest == ref.post:
	case res.Fired && res.Digest == ref.pre:
		// Zero-effect abort: the ordinal came before the bulk-start record
		// was durable. Atomic, just the other boundary.
	default:
		res.failf("structure digest %s != completed-delete reference %s", res.Digest, ref.post)
	}
	if res.Err != "" || sc.reader {
		// With the reader's I/Os on the same disk, ordinal k is not the same
		// statement boundary in two runs: nothing to compare a crash against.
		return res, nil
	}

	// Crash+recover at the same ordinal: when the bulk delete had made it
	// into the WAL its rolled-forward digest must equal ours. When it had
	// not — the crash predates the statement's first durable record, a
	// boundary the online cancel path can never stop at (its first
	// checkpoint sits after the bulk-start record, and the abort flushes
	// the log before analyzing it) — it must match the untouched table. An
	// ordinal past the statement's last I/O (the reference validation's
	// reads, on a table larger than the pool) crashes nothing: the delete
	// had completed.
	crash, err := sc.crashCycle(cfg, k, ref)
	if err != nil {
		return res, err
	}
	if crash.Err != "" {
		res.failf("crash+recover reference run failed: %s", crash.Err)
		return res, nil
	}
	inWAL := crash.Field("bulk-in-wal") == true
	res.set("crash-comparable", inWAL)
	want := ref.post
	if crash.Fired && !inWAL {
		want = ref.pre
	}
	if crash.Digest != want {
		res.failf("crash+recover digest %s at ordinal %d, want %s (bulkInWAL=%v)", crash.Digest, k, want, inWAL)
	} else if res.Digest == ref.pre && want != ref.pre {
		res.failf("cancel at ordinal %d left the table untouched, but the crash there found the delete in the WAL", k)
	}
	return res, nil
}
