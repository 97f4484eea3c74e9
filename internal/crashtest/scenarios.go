package crashtest

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"bulkdel"
	"bulkdel/internal/obs"
)

// state is one freshly built scenario database plus what running and
// verifying the statement need: the tables under test and, per table, the
// keys (values of the unique attribute A) the statement deletes.
type state struct {
	db      *bulkdel.DB
	tables  []*bulkdel.Table
	victims [][]int64
}

// runFunc runs the statement sequence under test. res is the cycle's
// result: the base statements ignore it, decorators record columns in it.
type runFunc func(ctx context.Context, cfg Config, st *state, res *Result) error

// scenario is one row of the sweep table: everything the driver does not
// own. The driver counts I/Os, injects the fault, recovers, loops over the
// ordinals and keeps the books; the scenario says what is built, what is
// swept, and what recovery may legally leave behind.
type scenario struct {
	// build returns a fresh database whose state is durable.
	build func(cfg Config) (*state, error)
	// run is the swept statement sequence; it must fail when the sequence
	// completed but did not do its job.
	run runFunc
	// reference validates the state a fault-free run left.
	reference func(cfg Config, st *state) error
	// verify checks the recovered database against the scenario's
	// invariants, recording its columns, Survivors and Err in res.
	verify func(cfg Config, st *state, rdb *bulkdel.DB, rep *bulkdel.RecoveryReport, res *Result)
	// deterministic reports whether two sweeps of cfg must agree.
	deterministic func(cfg Config) bool
	// fields are the crash cycle's columns with their zero values, so every
	// ordinal line has the same shape even when recovery fails.
	fields []Field
	// config, when set, rewrites the defaulted Config into the scenario's
	// own shape before anything is built.
	config func(Config) Config
	// cancel selects the driver's cancel mode; reader decorates run with a
	// concurrent snapshot reader. Both need a single-table scenario whose
	// run honours ctx.
	cancel, reader bool
}

var (
	always = func(Config) bool { return true }
	never  = func(Config) bool { return false }
)

// bulk is the paper's statement: one ⋈̸ bulk delete of a seeded victim set
// on a heap table with Config.Indexes indexes.
var bulk = scenario{
	build:         buildHeap("R"),
	run:           runBulk,
	reference:     checkTables,
	verify:        verifyBulk,
	deterministic: Config.Deterministic,
	fields:        []Field{{"bulk-in-wal", false}, {"rolled-forward", int64(0)}},
}

func (sc scenario) inCancelMode() scenario {
	sc.cancel = true
	return sc
}

func (sc scenario) underReader() scenario {
	sc.reader, sc.deterministic = true, never
	return sc
}

// sparse is the paper's statement where a whole leaf pass would be waste: a
// few victims in a table of many leaves, joined (Method Auto, whatever the
// Config says) by walks that seek from victim to victim. The table has five
// times Config.Rows rows and indexes with keys wide enough that a leaf holds
// sparseLeafCap entries; the victims are the rows of one whole leaf of IA and
// IB plus two of the next, so the sweep crosses the walk freeing an emptied
// leaf (btree.LeafCursor, handleEmpty, spliceOut) — Config.Victims and
// Config.Seed do not apply.
var sparse = scenario{
	config: func(cfg Config) Config {
		cfg.Rows *= 5
		cfg.Victims = sparseLeafCap + 2
		cfg.Method = bulkdel.Auto
		return cfg
	},
	build: buildTables(0, sparseKeyLen, func(cfg Config, _ int) []int64 {
		first := cfg.Rows / 2 / sparseLeafCap * sparseLeafCap // a leaf's first key
		return keys(first, first+cfg.Victims-1, 1)
	}, "R"),
	run:           runSparse,
	reference:     checkTables,
	verify:        verifyBulk,
	deterministic: Config.Deterministic,
	fields:        bulk.fields,
}

// merge is the paper's statement with the walks reorganizing as they go: R
// has twice Config.Rows rows, its indexes sparse's wide keys (sparseLeafCap
// entries a leaf, so each tree has a dozen leaves under two parents), and
// 60 % of the rows are seeded victims, so the leaves a walk leaves behind
// are under half full and fold into their left neighbours (btree.LeafCursor:
// the appended leaf, the freed one, the parent's separator, the right
// sibling's link) all through the sweep. Config.Victims does not apply.
var merge = scenario{
	config: func(cfg Config) Config {
		cfg.Rows *= 2
		cfg.Victims = cfg.Rows * 3 / 5
		return cfg
	},
	build:         buildTables(0, sparseKeyLen, seeded, "R"),
	run:           runMerge,
	reference:     checkTables,
	verify:        verifyBulk,
	deterministic: Config.Deterministic,
	fields:        bulk.fields,
}

// rangeDel is the statement every heap range DELETE is: Table.DeleteRange
// over Config.Victims contiguous keys in the middle of R. The backend
// resolves the range to its keys off IA's leaves under the statement's lock,
// and the planner (Method Auto, whatever the Config says) joins them.
var rangeDel = scenario{
	config: func(cfg Config) Config {
		cfg.Method = bulkdel.Auto
		return cfg
	},
	build: buildTables(0, 0, func(cfg Config, _ int) []int64 {
		lo := (cfg.Rows - cfg.Victims) / 2
		return keys(lo, lo+cfg.Victims-1, 1)
	}, "R"),
	run:           runRange,
	reference:     checkTables,
	verify:        verifyBulk,
	deterministic: Config.Deterministic,
	fields:        bulk.fields,
}

// parted is the paper's statement on a partitioned heap: R hash-partitioned
// 4-way on A, so the sort/merge heap ⋈̸ is one logged pass per partition
// file (a fan-out over the devices when Config.Devices and Config.Parallel
// allow), each projecting its own key lists. Those are logged only once every
// partition is done, so recovery finishes an interrupted heap phase on the
// durable RID list.
var parted = scenario{
	build:         buildHeapParts(4, "R"),
	run:           runParted,
	reference:     checkTables,
	verify:        verifyBulk,
	deterministic: Config.Deterministic,
	fields:        bulk.fields,
}

// sparseKeyLen is the sparse scenario's index key width, sparseLeafCap the
// entries such keys leave room for in a 4 KB leaf.
const (
	sparseKeyLen  = 500
	sparseLeafCap = 8
)

var scenarios = map[string]scenario{
	"bulk":                 bulk,
	"cancel":               bulk.inCancelMode(),
	"reader":               bulk.underReader(),
	"reader-cancel":        bulk.inCancelMode().underReader(),
	"sparse":               sparse,
	"sparse-cancel":        sparse.inCancelMode(),
	"sparse-reader":        sparse.underReader(),
	"sparse-reader-cancel": sparse.inCancelMode().underReader(),
	"merge":                merge,
	"merge-cancel":         merge.inCancelMode(),
	"range":                rangeDel,
	"range-cancel":         rangeDel.inCancelMode(),
	"range-reader":         rangeDel.underReader(),
	"range-reader-cancel":  rangeDel.inCancelMode().underReader(),
	// Two bulk deletes on independent tables through DB.RunConcurrent. With
	// goroutines racing to the fault the crash no longer lands at a
	// deterministic statement position, so this sweep is invariants-only:
	// each table atomic on its own, every statement left unfinished in the
	// shared WAL rolled forward independently (wal.AnalyzeBulks routes the
	// interleaved records per transaction, in TBulkStart order).
	"concurrent": {
		build:         buildHeap("R", "S"),
		run:           runConcurrent,
		reference:     checkTables,
		verify:        verifyConcurrent,
		deterministic: never,
		fields:        []Field{{"statements", int64(0)}, {"rolled-forward", int64(0)}},
	},
	// An online rebalancing run instead of a delete: a partitioned table
	// plus its indexes live on a 2-data-device array, the array grows, and
	// Rebalance migrates files onto the new arms under the WAL move
	// protocol. A crash can land before a move's start record, mid-copy,
	// between the copy and its done record, or between the done record and
	// the catalog save — recovery must land every file intact on exactly
	// one device in all of them.
	"rebalance": {
		build:         buildRebalance,
		run:           runRebalance,
		reference:     checkTables,
		verify:        verifyRebalance,
		deterministic: always,
		fields:        []Field{{"replayed", int64(0)}, {"completed", int64(0)}},
	},
	"parted":        parted,
	"parted-cancel": parted.inCancelMode(),
	// The LSM backend's whole write path — tombstone WAL appends, log
	// flush, memtable flush, every compaction, and the catalog saves that
	// commit each manifest: a delete, then CompactLSM to the no-tombstone
	// fixpoint. "lsm" deletes the middle third of the keyspace with one
	// range tombstone; "lsm-in" deletes every third key with one point
	// tombstone each, a multi-record statement whose log spans pages.
	"lsm": lsmScenario("range-survived",
		func(rows int) []int64 { return keys(rows/3, 2*rows/3-1, 1) },
		func(tbl *bulkdel.Table, v []int64) error {
			_, err := tbl.DeleteRange(0, v[0], v[len(v)-1], bulkdel.BulkOptions{})
			return err
		}),
	"lsm-in": lsmScenario("victims-survived",
		func(rows int) []int64 { return keys(0, rows-1, 3) },
		func(tbl *bulkdel.Table, v []int64) error {
			_, err := tbl.BulkDelete(0, v, bulkdel.BulkOptions{})
			return err
		}),
	// Inserts alone drive the LSM write path: on a durable base of one
	// full-sized table, lsmGrowInserts random-order inserts fill eight
	// memtables; every flush leaves nothing live in the WAL and restarts it
	// in place, and the second L0 compaction leaves level 1 over its
	// target, so its push into the base's level merges past the table
	// bound into two tables. Inserts are durable once their
	// memtable's flush commits, so recovery must land on the base plus a
	// prefix of the inserts, whole memtables at a time.
	"lsm-grow": {
		build:         buildLSMGrow,
		run:           runLSMGrow,
		reference:     referenceLSMGrow,
		verify:        verifyLSMGrow,
		deterministic: always,
		fields:        []Field{{"inserted", int64(0)}},
	},
	// A tenant drop meets its TTL: on a base spanning levels 1 and 2, a
	// range tombstone sitting in level 1 one tick short of TombstoneTTL; the
	// swept filler's flush ages it, and its in-place application rewrites
	// one table at each level and drops a third unread, in one manifest
	// commit. Recovery must never bring a dropped row back.
	"lsm-drop": {
		build:         buildLSMDrop,
		run:           runLSMDrop,
		reference:     referenceLSMDrop,
		verify:        verifyLSMDrop,
		deterministic: always,
		fields:        []Field{{"filler", int64(0)}},
	},
	// Recovery with mixed backends: the paper's statement on heap table R
	// while LSM table S sits beside it with rows durable only as WAL records
	// (an unflushed memtable). One recovery must replay S's records into
	// its memtable and roll R's interrupted delete forward — matching the
	// bulk-start record against heap tables only, since S owns no heap file.
	"lsm-heap": {
		build:         buildLSMHeap,
		run:           runBulk,
		reference:     checkTables,
		verify:        verifyLSMHeap,
		deterministic: Config.Deterministic,
		fields:        append(slices.Clone(bulk.fields), Field{"replayed", int64(0)}),
	},
}

// Scenarios lists the names Run accepts, sorted.
func Scenarios() []string {
	names := make([]string, 0, len(scenarios))
	for n := range scenarios {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

func keys(lo, hi, step int) []int64 {
	var out []int64
	for k := lo; k <= hi; k += step {
		out = append(out, int64(k))
	}
	return out
}

// populate loads tbl with cfg.Rows rows R(A,B,C), A=i, B=3i, C=i%7, and
// builds the first indexes of IA (unique, on A), IB, IC over them, with keys
// keyLen bytes wide (0 = the default 8).
func populate(tbl *bulkdel.Table, cfg Config, indexes, keyLen int) error {
	for i := 0; i < cfg.Rows; i++ {
		if _, err := tbl.Insert(int64(i), int64(3*i), int64(i%7)); err != nil {
			return err
		}
	}
	defs := []bulkdel.IndexOptions{
		{Name: "IA", Field: 0, Unique: true},
		{Name: "IB", Field: 1},
		{Name: "IC", Field: 2},
	}
	for _, ix := range defs[:indexes] {
		ix.KeyLen = keyLen
		if err := tbl.CreateIndex(ix); err != nil {
			return err
		}
	}
	return nil
}

// buildHeap returns the build of a scenario with one populated, indexed heap
// table per name, flushed durable, each with its own seeded victim list.
func buildHeap(names ...string) func(Config) (*state, error) {
	return buildHeapParts(0, names...)
}

// buildHeapParts is buildHeap with every heap hash-partitioned hashParts
// ways on A (0 = a single heap file).
func buildHeapParts(hashParts int, names ...string) func(Config) (*state, error) {
	return buildTables(hashParts, 0, seeded, names...)
}

// seeded picks table ti's victims: the first Config.Victims rows of a
// permutation seeded by Config.Seed + ti.
func seeded(cfg Config, ti int) []int64 {
	perm := rand.New(rand.NewSource(cfg.Seed + int64(ti))).Perm(cfg.Rows)
	victims := make([]int64, cfg.Victims)
	for i := range victims {
		victims[i] = int64(perm[i])
	}
	return victims
}

// buildTables is the build of every heap scenario: per name one table,
// populated and indexed (keys keyLen wide), with the victim list pick
// returns for it.
func buildTables(hashParts, keyLen int, pick func(cfg Config, ti int) []int64, names ...string) func(Config) (*state, error) {
	return func(cfg Config) (*state, error) {
		opts := options(cfg)
		opts.Devices = cfg.Devices
		db, err := bulkdel.Open(opts)
		if err != nil {
			return nil, err
		}
		st := &state{db: db}
		for ti, name := range names {
			var tbl *bulkdel.Table
			var err error
			if hashParts > 0 {
				tbl, err = db.CreateTablePartitioned(name, 3, 64, bulkdel.PartitionSpec{Field: 0, HashParts: hashParts})
			} else {
				tbl, err = db.CreateTable(name, 3, 64)
			}
			if err != nil {
				return nil, err
			}
			if err := populate(tbl, cfg, cfg.Indexes, keyLen); err != nil {
				return nil, err
			}
			st.tables = append(st.tables, tbl)
			st.victims = append(st.victims, pick(cfg, ti))
		}
		return st, db.Flush()
	}
}

// bulkOptions are the options of every heap scenario's delete.
func bulkOptions(ctx context.Context, cfg Config, concurrent bool) bulkdel.BulkOptions {
	return bulkdel.BulkOptions{
		Method:         cfg.Method,
		Memory:         cfg.Memory,
		CheckpointRows: cfg.CheckpointRows,
		Parallel:       cfg.Parallel,
		Concurrent:     concurrent,
		Ctx:            ctx,
	}
}

// allDeleted fails a delete of victims that did not delete every one.
func allDeleted(res *bulkdel.BulkResult, err error, victims []int64) error {
	if err == nil && res.Deleted != int64(len(victims)) {
		err = fmt.Errorf("deleted %d of %d victims", res.Deleted, len(victims))
	}
	return err
}

// deleteVictims bulk-deletes table i's victim list and fails unless every
// victim was deleted.
func deleteVictims(ctx context.Context, cfg Config, st *state, i int, concurrent bool) (*bulkdel.BulkResult, error) {
	res, err := st.tables[i].BulkDelete(0, st.victims[i], bulkOptions(ctx, cfg, concurrent))
	return res, allDeleted(res, err, st.victims[i])
}

func runBulk(ctx context.Context, cfg Config, st *state, _ *Result) error {
	_, err := deleteVictims(ctx, cfg, st, 0, false)
	return err
}

// runRange deletes R's victims, a contiguous key range, by its bounds.
func runRange(ctx context.Context, cfg Config, st *state, _ *Result) error {
	v := st.victims[0]
	res, err := st.tables[0].DeleteRange(0, v[0], v[len(v)-1], bulkOptions(ctx, cfg, false))
	return allDeleted(res, err, v)
}

// runSparse fails when a completed statement was not the one the scenario is
// about: the walk over IA must have sought its victims' leaves, reading
// fewer pages than IA has leaves.
func runSparse(ctx context.Context, cfg Config, st *state, _ *Result) error {
	res, err := deleteVictims(ctx, cfg, st, 0, false)
	if err != nil {
		return err
	}
	if reads, leaves := res.Trace.Find("access-pass").Delta().Reads, cfg.Rows/sparseLeafCap; reads >= uint64(leaves) {
		return fmt.Errorf("the walk over IA read %d pages, IA has %d leaves", reads, leaves)
	}
	return nil
}

// runMerge fails when a completed statement was not the one the scenario is
// about: its walks must have merged leaves.
func runMerge(ctx context.Context, cfg Config, st *state, _ *Result) error {
	merged := st.db.Observer().Registry().Counter(obs.MetricLeavesMerged)
	before := merged.Value()
	if _, err := deleteVictims(ctx, cfg, st, 0, false); err != nil {
		return err
	}
	if merged.Value() == before {
		return fmt.Errorf("no walk merged a leaf")
	}
	return nil
}

// runParted pins the method: only sort/merge runs the per-partition passes.
func runParted(ctx context.Context, cfg Config, st *state, _ *Result) error {
	cfg.Method = bulkdel.SortMerge
	return runBulk(ctx, cfg, st, nil)
}

// runConcurrent runs one bulk delete per table through DB.RunConcurrent
// under the §3.1 protocol and returns the first statement error. Scheduling
// can shift which statement performs the kth I/O, but the batch's total
// work is fixed, so the ordinal range is stable.
func runConcurrent(ctx context.Context, cfg Config, st *state, _ *Result) error {
	stmts := make([]func() error, len(st.tables))
	for i := range st.tables {
		stmts[i] = func() error {
			_, err := deleteVictims(ctx, cfg, st, i, true)
			return err
		}
	}
	_, err := st.db.RunConcurrent(stmts...)
	return err
}

func checkTables(_ Config, st *state) error {
	for _, tbl := range st.tables {
		if err := tbl.Check(); err != nil {
			return fmt.Errorf("left %s inconsistent: %w", tbl.Name(), err)
		}
	}
	return nil
}

// atomicState checks one recovered table — the full consistency check,
// every row byte-correct, the untouched rows all present, the victim set
// atomically gone or atomically intact — and returns its row count, which
// of the two legal states it is in, and the first violation ("" = none).
// keyOrdered additionally requires the scan to arrive in strict key order
// (the LSM merge's contract).
func atomicState(rdb *bulkdel.DB, name string, rows int, victims []int64, keyOrdered bool) (total int64, intact bool, msg string) {
	tbl := rdb.Table(name)
	if tbl == nil {
		return 0, false, fmt.Sprintf("table %s missing after recovery", name)
	}
	if err := tbl.Check(); err != nil {
		return 0, false, fmt.Sprintf("consistency check: %v", err)
	}
	vset := make(map[int64]bool, len(victims))
	for _, v := range victims {
		vset[v] = true
	}
	var present int64
	last := int64(-1)
	err := tbl.Scan(func(_ bulkdel.RID, f []int64) error {
		a := f[0]
		if keyOrdered && a <= last {
			return fmt.Errorf("scan out of order or duplicate key: %d after %d", a, last)
		}
		last = a
		if a < 0 || a >= int64(rows) || f[1] != 3*a || f[2] != a%7 {
			return fmt.Errorf("row %v does not match the base formula", f)
		}
		total++
		if vset[a] {
			present++
		}
		return nil
	})
	nv := int64(len(victims))
	switch {
	case err != nil:
		msg = fmt.Sprintf("scanning recovered table: %v", err)
	case total-present != int64(rows)-nv:
		msg = fmt.Sprintf("non-victim rows: %d survive, want %d", total-present, int64(rows)-nv)
	case present != 0 && present != nv:
		msg = fmt.Sprintf("victim set torn: %d of %d victims survive", present, nv)
	case tbl.Count() != total:
		msg = fmt.Sprintf("cached row count %d, scanned %d", tbl.Count(), total)
	}
	return total, nv > 0 && present == nv, msg
}

// verifyHeap checks every table of a heap scenario; a table recovery says it
// rolled a bulk delete forward on must have lost its victims.
func verifyHeap(cfg Config, st *state, rdb *bulkdel.DB, rep *bulkdel.RecoveryReport, res *Result) {
	res.set("rolled-forward", rep.RolledForward)
	for i, tbl := range st.tables {
		total, intact, msg := atomicState(rdb, tbl.Name(), cfg.Rows, st.victims[i], false)
		res.Survivors += total
		if msg == "" && intact && slices.Contains(rep.Tables, tbl.Name()) {
			msg = fmt.Sprintf("recovery rolled the bulk delete forward but all %d victims survive", len(st.victims[i]))
		}
		if msg != "" {
			if len(st.tables) > 1 {
				msg = tbl.Name() + ": " + msg
			}
			res.Err = msg
			return
		}
	}
}

func verifyBulk(cfg Config, st *state, rdb *bulkdel.DB, rep *bulkdel.RecoveryReport, res *Result) {
	res.set("bulk-in-wal", rep.BulkInProgress)
	verifyHeap(cfg, st, rdb, rep, res)
}

func verifyConcurrent(cfg Config, st *state, rdb *bulkdel.DB, rep *bulkdel.RecoveryReport, res *Result) {
	res.set("statements", int64(rep.Statements))
	verifyHeap(cfg, st, rdb, rep, res)
}

// lsmHeapRows is how many rows the lsm-heap scenario's LSM table S holds:
// below the memtable's flush threshold, so all of them live in the WAL.
func lsmHeapRows(cfg Config) int { return min(cfg.Rows, 200) }

// buildLSMHeap is buildHeap("R") plus the populated LSM table S, its
// insert records flushed durable in the log.
func buildLSMHeap(cfg Config) (*state, error) {
	st, err := buildHeap("R")(cfg)
	if err != nil {
		return nil, err
	}
	s, err := st.db.CreateTableLSM("S", 3, 64)
	if err != nil {
		return nil, err
	}
	cfg.Rows = lsmHeapRows(cfg)
	if err := populate(s, cfg, 0, 0); err != nil {
		return nil, err
	}
	return st, st.db.Flush()
}

// verifyLSMHeap is verifyBulk on R, and S must hold every row again —
// which only WAL replay can have put there.
func verifyLSMHeap(cfg Config, st *state, rdb *bulkdel.DB, rep *bulkdel.RecoveryReport, res *Result) {
	res.set("replayed", int64(rep.LSMReplayed))
	verifyBulk(cfg, st, rdb, rep, res)
	if res.Err != "" {
		return
	}
	// S's records and the open delete keep the log live the whole time: the
	// crashed instance never restarted it.
	if n := st.db.Inspect().WAL.Restarts; n != 0 {
		res.failf("the WAL restarted %d times under S's records and the open delete", n)
		return
	}
	total, _, msg := atomicState(rdb, "S", lsmHeapRows(cfg), nil, true)
	res.Survivors += total
	switch {
	case msg != "":
		res.Err = "S: " + msg
	case rep.LSMReplayed == 0:
		res.failf("S: recovery replayed no LSM record")
	}
}

// The lsm-grow scenario's sizes: the base is one full-sized table at the
// engine's default LSM options, the inserts eight memtables' worth — two
// L0 batches, one more than level 1's target above that base.
const (
	lsmGrowBase    = 4096
	lsmGrowInserts = 2048
)

// buildLSMGrow loads R with the base rows, A = 0, 2, 4, …, compacted into
// one table; its victim list is the insert order: odd keys spread over
// the base's key range, shuffled by cfg.Seed.
func buildLSMGrow(cfg Config) (*state, error) {
	opts := options(cfg)
	opts.Devices = cfg.Devices
	db, err := bulkdel.Open(opts)
	if err != nil {
		return nil, err
	}
	tbl, err := db.CreateTableLSM("R", 3, 64)
	if err != nil {
		return nil, err
	}
	for i := int64(0); i < lsmGrowBase; i++ {
		if _, err := tbl.Insert(2*i, 6*i, 2*i%7); err != nil {
			return nil, err
		}
	}
	if err := tbl.CompactLSM(); err != nil {
		return nil, err
	}
	order := make([]int64, lsmGrowInserts)
	for i, p := range rand.New(rand.NewSource(cfg.Seed)).Perm(lsmGrowInserts) {
		order[i] = int64(2*p*(lsmGrowBase/lsmGrowInserts) + 1)
	}
	return &state{db: db, tables: []*bulkdel.Table{tbl}, victims: [][]int64{order}}, db.Flush()
}

func runLSMGrow(_ context.Context, _ Config, st *state, _ *Result) error {
	for _, a := range st.victims[0] {
		if _, err := st.tables[0].Insert(a, 3*a, a%7); err != nil {
			return err
		}
	}
	return nil
}

// referenceLSMGrow makes sure the fault-free run crossed what the sweep is
// for: a compaction with several outputs at some level >= 1 (two tables of
// one level born at one flush tick), and a WAL restart that discarded the
// inserts' buffered records.
func referenceLSMGrow(_ Config, st *state) error {
	tbl := st.tables[0]
	if got, want := tbl.Count(), int64(lsmGrowBase+lsmGrowInserts); got != want {
		return fmt.Errorf("holds %d rows, want %d", got, want)
	}
	multi := false
	for _, lvl := range tbl.LSMManifest().Levels[1:] {
		for i := 1; i < len(lvl); i++ {
			multi = multi || lvl[i].Born == lvl[i-1].Born
		}
	}
	if !multi {
		return fmt.Errorf("no level >= 1 holds two tables born at one tick: no compaction emitted several outputs")
	}
	if q := st.db.Inspect().WAL.Queued; q != 0 {
		return fmt.Errorf("%d log bytes still buffered: the WAL did not restart", q)
	}
	return tbl.Check()
}

// verifyLSMGrow checks R holds every base row and a prefix of the insert
// order, each row by the base formula, before and after draining the
// recovered tree.
func verifyLSMGrow(_ Config, st *state, rdb *bulkdel.DB, _ *bulkdel.RecoveryReport, res *Result) {
	tbl := rdb.Table("R")
	if tbl == nil {
		res.failf("table R missing after recovery")
		return
	}
	inserted := func() (int64, string) {
		if err := tbl.Check(); err != nil {
			return 0, fmt.Sprintf("consistency check: %v", err)
		}
		var base, ins int64
		have := make(map[int64]bool)
		err := tbl.Scan(func(_ bulkdel.RID, f []int64) error {
			if f[1] != 3*f[0] || f[2] != f[0]%7 {
				return fmt.Errorf("row %v does not match the base formula", f)
			}
			if f[0]%2 == 0 {
				base++
			} else {
				have[f[0]] = true
				ins++
			}
			return nil
		})
		switch {
		case err != nil:
			return 0, err.Error()
		case base != lsmGrowBase:
			return 0, fmt.Sprintf("%d base rows, want %d", base, lsmGrowBase)
		}
		for _, a := range st.victims[0][:ins] {
			if !have[a] {
				return 0, fmt.Sprintf("%d inserts survive, but not a prefix of the insert order (%d missing)", ins, a)
			}
		}
		return ins, ""
	}
	ins, msg := inserted()
	res.set("inserted", ins)
	res.Survivors, res.Err = lsmGrowBase+ins, msg
	if msg != "" {
		return
	}
	if err := tbl.CompactLSM(); err != nil {
		res.failf("post-recovery compaction failed: %v", err)
		return
	}
	if again, msg := inserted(); msg != "" || again != ins {
		res.failf("post-recovery compaction changed state: %d inserts -> %d %s", ins, again, msg)
	}
}

// The lsm-drop scenario's shape: ascending base rows leave level 2 five
// tables of 1,024 rows, [0, 1023] … [4096, 5119], and level 1 one,
// [5120, 6143]; the tenant drop hides [lsmDropLo, lsmDropHi], which
// overlaps level 1's table and the last two of level 2.
// Filler rows live at lsmDropFar and above, past every base key.
const (
	lsmDropBase = 6144
	lsmDropLo   = 4000
	lsmDropHi   = 5500
	lsmDropFar  = 1 << 20
)

// lsmDropFill fills one memtable with filler: 255 - taken rows from
// lsmDropFar + 256*n up, then one range tombstone hiding them, the 256th
// entry, whose statement flushes the memtable into an L0 table that holds
// only that tombstone (the rows it hides never reach disk). The next L0
// compaction drops it: nothing below overlaps its span. Returns the rows
// in insert order.
func lsmDropFill(tbl *bulkdel.Table, n, taken int) ([]int64, error) {
	lo := int64(lsmDropFar + 256*n)
	var rows []int64
	for a := lo; a < lo+int64(255-taken); a++ {
		if _, err := tbl.Insert(a, 3*a, a%7); err != nil {
			return nil, err
		}
		rows = append(rows, a)
	}
	_, err := tbl.DeleteRange(0, lo, lo+255, bulkdel.BulkOptions{})
	return rows, err
}

// buildLSMDrop loads R with the base rows, A = 0 … lsmDropBase-1 in order,
// then drops the tenant [lsmDropLo, lsmDropHi] with one range tombstone
// and fills four memtables behind it: the L0 compaction the fourth one
// triggers takes the tombstone into level 1, rewriting the level-1 table
// without the rows it hides and keeping the tombstone for level 2 below.
// Three more filler flushes age it to one tick short of TombstoneTTL. The
// victim list is the run's filler insert order.
func buildLSMDrop(cfg Config) (*state, error) {
	opts := options(cfg)
	opts.Devices = cfg.Devices
	db, err := bulkdel.Open(opts)
	if err != nil {
		return nil, err
	}
	tbl, err := db.CreateTableLSM("R", 3, 64)
	if err != nil {
		return nil, err
	}
	for a := int64(0); a < lsmDropBase; a++ {
		if _, err := tbl.Insert(a, 3*a, a%7); err != nil {
			return nil, err
		}
	}
	if _, err := tbl.DeleteRange(0, lsmDropLo, lsmDropHi, bulkdel.BulkOptions{}); err != nil {
		return nil, err
	}
	for n := 0; n < 7; n++ {
		taken := 0
		if n == 0 {
			taken = 1 // the tenant drop's tombstone
		}
		if _, err := lsmDropFill(tbl, n, taken); err != nil {
			return nil, err
		}
	}
	return &state{db: db, tables: []*bulkdel.Table{tbl}, victims: [][]int64{keys(lsmDropFar+256*7, lsmDropFar+256*7+254, 1)}}, db.Flush()
}

// runLSMDrop fills the memtable that ages the tenant drop to TombstoneTTL:
// its flush piles L0 up, the L0 compaction drops the filler, and the TTL
// trigger then applies the drop in place — level 1's table and level 2's
// [3072, 4095] rewritten without it, [4096, 5119] dropped unread, the rest
// untouched — in one manifest commit.
func runLSMDrop(_ context.Context, _ Config, st *state, _ *Result) error {
	_, err := lsmDropFill(st.tables[0], 7, 0)
	return err
}

// referenceLSMDrop makes sure the fault-free run applied the drop in place:
// no range tombstone is left, level 1 holds its table's rows above the
// drop, and level 2 ends with [3072, 3999], rewritten with its birth tick
// kept, older than level 1's — a push-down would have stamped its output
// with the compaction's tick.
func referenceLSMDrop(_ Config, st *state) error {
	tbl := st.tables[0]
	if got, want := tbl.Count(), int64(lsmDropBase-(lsmDropHi-lsmDropLo+1)); got != want {
		return fmt.Errorf("holds %d rows, want %d", got, want)
	}
	lv := tbl.LSMManifest().Levels
	if len(lv) != 3 || len(lv[1]) != 1 || len(lv[2]) != 4 {
		return fmt.Errorf("levels %v, want one table at level 1 and four at level 2", lv)
	}
	for _, lvl := range lv {
		for _, m := range lvl {
			if m.RangeTombs != 0 {
				return fmt.Errorf("a range tombstone survived the TTL: %+v", m)
			}
		}
	}
	l1, l2 := lv[1][0], lv[2][3]
	switch {
	case l1.MinKey != lsmDropHi+1 || l1.MaxKey != lsmDropBase-1 || l2.MinKey != 3072 || l2.MaxKey != lsmDropLo-1:
		return fmt.Errorf("level 1 holds [%d, %d], level 2 ends with [%d, %d]", l1.MinKey, l1.MaxKey, l2.MinKey, l2.MaxKey)
	case l2.Born >= l1.Born:
		return fmt.Errorf("level 2's last table was born at tick %d, level 1's at %d: pushed, not rewritten in place", l2.Born, l1.Born)
	}
	return tbl.Check()
}

// verifyLSMDrop checks R holds every base row outside the dropped tenant,
// none inside it, no filler the build hid, and a prefix of the run's filler
// rows — all of them or none once its hiding tombstone is in — before and
// after draining the recovered tree.
func verifyLSMDrop(_ Config, st *state, rdb *bulkdel.DB, _ *bulkdel.RecoveryReport, res *Result) {
	tbl := rdb.Table("R")
	if tbl == nil {
		res.failf("table R missing after recovery")
		return
	}
	filler := st.victims[0]
	settled := func() (int64, string) {
		if err := tbl.Check(); err != nil {
			return 0, fmt.Sprintf("consistency check: %v", err)
		}
		var base, fill int64
		err := tbl.Scan(func(_ bulkdel.RID, f []int64) error {
			a := f[0]
			switch {
			case f[1] != 3*a || f[2] != a%7:
				return fmt.Errorf("row %v does not match the base formula", f)
			case a >= lsmDropLo && a <= lsmDropHi:
				return fmt.Errorf("dropped row %d came back", a)
			case a < lsmDropBase:
				base++
			case int(fill) < len(filler) && a == filler[fill]:
				fill++
			default:
				return fmt.Errorf("row %d is no base row and no prefix of the run's filler", a)
			}
			return nil
		})
		switch {
		case err != nil:
			return 0, err.Error()
		case base != lsmDropBase-(lsmDropHi-lsmDropLo+1):
			return 0, fmt.Sprintf("%d base rows, want %d", base, lsmDropBase-(lsmDropHi-lsmDropLo+1))
		}
		return fill, ""
	}
	fill, msg := settled()
	res.set("filler", fill)
	res.Survivors, res.Err = lsmDropBase-(lsmDropHi-lsmDropLo+1)+fill, msg
	if msg != "" {
		return
	}
	if err := tbl.CompactLSM(); err != nil {
		res.failf("post-recovery compaction failed: %v", err)
		return
	}
	if again, msg := settled(); msg != "" || again != fill {
		res.failf("post-recovery compaction changed state: %d filler rows -> %d %s", fill, again, msg)
	}
}

// buildRebalance constructs the rebalance scenario: a hash-partitioned
// table with indexes on a 2-data-device array, durable, already grown to 4
// data devices so the next Rebalance has real work.
func buildRebalance(cfg Config) (*state, error) {
	opts := options(cfg)
	opts.Devices = 2
	db, err := bulkdel.Open(opts)
	if err != nil {
		return nil, err
	}
	tbl, err := db.CreateTablePartitioned("R", 3, 64, bulkdel.PartitionSpec{Field: 0, HashParts: 4})
	if err != nil {
		return nil, err
	}
	if err := populate(tbl, cfg, cfg.Indexes, 0); err != nil {
		return nil, err
	}
	if err := db.Flush(); err != nil {
		return nil, err
	}
	return &state{db: db, tables: []*bulkdel.Table{tbl}, victims: [][]int64{nil}}, db.GrowDevices(4)
}

func runRebalance(_ context.Context, _ Config, st *state, _ *Result) error {
	res, err := st.db.Rebalance()
	if err == nil && len(res.Moves) == 0 {
		err = fmt.Errorf("rebalance moved nothing")
	}
	return err
}

// verifyRebalance checks the recovered database: a rebalance must never
// lose or duplicate a row, break a heap↔index invariant, or leave a file in
// limbo — and the engine must still be fully operational (a follow-up
// rebalance and a bulk delete both succeed).
func verifyRebalance(cfg Config, _ *state, rdb *bulkdel.DB, rep *bulkdel.RecoveryReport, res *Result) {
	res.set("replayed", int64(rep.MovesReplayed))
	res.set("completed", int64(rep.MovesCompleted))
	if tbl := rdb.Table("R"); tbl != nil && tbl.Partitions() != 4 {
		res.failf("table has %d partitions after recovery, want 4", tbl.Partitions())
		return
	}
	res.Survivors, _, res.Err = atomicState(rdb, "R", cfg.Rows, nil, false)
	if res.Err != "" {
		return
	}
	// The array must be fully usable: finishing the interrupted
	// rebalancing and then deleting through the moved files both work.
	if _, err := rdb.Rebalance(); err != nil {
		res.failf("rebalance after recovery: %v", err)
		return
	}
	// (Sort/merge by name: the recorded digests carry this delete's clock.)
	tbl, victims := rdb.Table("R"), keys(0, cfg.Rows-1, 4)
	dres, err := tbl.BulkDelete(0, victims, bulkdel.BulkOptions{Method: bulkdel.SortMerge, Memory: cfg.Memory})
	switch {
	case err != nil:
		res.failf("bulk delete after recovery: %v", err)
	case dres.Deleted != int64(len(victims)):
		res.failf("bulk delete after recovery removed %d of %d", dres.Deleted, len(victims))
	default:
		if err := tbl.Check(); err != nil {
			res.failf("consistency after post-recovery delete: %v", err)
		}
	}
}

// lsmScenario sweeps one delete statement plus CompactLSM on an LSM table:
// a durable base of Rows rows in SSTables, then del over pick(Rows) and a
// flush + compaction to the tombstone-free fixpoint. After recovery exactly
// two logical states are legal — the base, or the base minus the victims —
// and compacting the recovered tree must never resurrect a deleted row.
// survived names the column that says which state recovery landed on. The
// backend has no statement-level goroutines: always deterministic.
func lsmScenario(survived string, pick func(rows int) []int64, del func(*bulkdel.Table, []int64) error) scenario {
	return scenario{
		build: func(cfg Config) (*state, error) {
			opts := options(cfg)
			opts.Devices = cfg.Devices
			db, err := bulkdel.Open(opts)
			if err != nil {
				return nil, err
			}
			tbl, err := db.CreateTableLSM("R", 3, 64)
			if err != nil {
				return nil, err
			}
			if err := populate(tbl, cfg, 0, 0); err != nil {
				return nil, err
			}
			// Into SSTables, WAL tail drained: the base is durable before
			// any fault is armed.
			if err := tbl.CompactLSM(); err != nil {
				return nil, err
			}
			return &state{db: db, tables: []*bulkdel.Table{tbl}, victims: [][]int64{pick(cfg.Rows)}}, db.Flush()
		},
		run: func(_ context.Context, _ Config, st *state, _ *Result) error {
			if err := del(st.tables[0], st.victims[0]); err != nil {
				return err
			}
			return st.tables[0].CompactLSM()
		},
		reference: func(cfg Config, st *state) error {
			want := int64(cfg.Rows - len(st.victims[0]))
			if got := st.tables[0].Count(); got != want {
				return fmt.Errorf("left %d rows, want %d", got, want)
			}
			return checkTables(cfg, st)
		},
		verify: func(cfg Config, st *state, rdb *bulkdel.DB, rep *bulkdel.RecoveryReport, res *Result) {
			res.set("replayed", int64(rep.LSMReplayed))
			if tbl := rdb.Table("R"); tbl != nil && tbl.Backend() != bulkdel.BackendLSM {
				res.failf("table R recovered with backend %q", tbl.Backend())
				return
			}
			var intact bool
			res.Survivors, intact, res.Err = atomicState(rdb, "R", cfg.Rows, st.victims[0], true)
			res.set(survived, intact)
			res.ClockUS = rdb.Clock().Microseconds() // the recovery's clock, not the compaction's below
			if res.Err != "" {
				return
			}
			// Reclamation after recovery must not resurrect: draining every
			// tombstone out of the recovered tree has to preserve the logical
			// state the recovery landed on.
			if err := rdb.Table("R").CompactLSM(); err != nil {
				res.failf("post-recovery compaction failed: %v", err)
				return
			}
			total, intact2, msg := atomicState(rdb, "R", cfg.Rows, st.victims[0], true)
			if msg != "" {
				res.Err = msg + " after post-recovery compaction"
			} else if total != res.Survivors || intact2 != intact {
				res.failf("post-recovery compaction changed state: %d rows (victims survived %v) -> %d rows (victims survived %v)",
					res.Survivors, intact, total, intact2)
			}
		},
		deterministic: always,
		fields:        []Field{{"replayed", int64(0)}, {survived, false}},
	}
}
