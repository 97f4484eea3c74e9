package bulkdel

import (
	"context"
	"fmt"
	"time"

	"bulkdel/internal/btree"
	"bulkdel/internal/cc"
	"bulkdel/internal/core"
	"bulkdel/internal/obs"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
	"bulkdel/internal/table"
)

// IndexOptions describes an index to create.
type IndexOptions struct {
	// Name of the index (unique per table).
	Name string
	// Field is the attribute position the index covers.
	Field int
	// KeyLen widens the stored key (0 = 8 bytes). Wider keys shrink the
	// fan-out and grow the tree.
	KeyLen int
	// Unique enforces key uniqueness; unique indexes are processed first
	// during bulk deletes (the paper's §3.1 requirement).
	Unique bool
	// Clustered declares that the heap is loaded in this attribute's
	// order (the engine does not re-sort existing data).
	Clustered bool
	// Priority ranks application-critical indexes for processing order.
	Priority int
}

// Table is a base table: the statement layer over one storage backend. It
// owns what every backend shares — the name, the schema, the §3 coarse table
// lock — and runs each statement's lifecycle (crashed check, deadline, lock
// footprint, event stream) once; the rows live behind b. See DESIGN.md §4.9.
type Table struct {
	db     *DB
	name   string
	schema record.Schema
	// lock is the manager's shared lock for this table name: ordered
	// multi-table acquisition and the DML entry points contend on it. An
	// updater (Insert, DeleteRow, CompactLSM) holds it Exclusive, which
	// makes it the table's one writer while snapshot readers go on; during
	// a concurrent bulk delete's early-released index passes it reaches the
	// offline trees only through their side-files.
	lock *cc.TableLock
	// row is Insert's copy of its arguments, reused under the exclusive
	// lock: passed through the backend interface, the variadic slice itself
	// would escape and cost every insert an allocation.
	row []int64
	b   backend
}

// backend is the storage seam: the operations both the heap and the LSM
// implementation really perform. Everything else on Table is heap-only and
// goes through Table.heap. Every read runs on a view, which takes whatever
// table lock its backend's read protocol needs and holds none while caller
// code runs; insert runs under the statement layer's exclusive lock, check
// takes its own shared one, the deletes run inside the statement
// deleteStatement opened.
type backend interface {
	kind() string
	insert(fields []int64) (RID, error) // must not retain fields
	count() int64
	// hasIndexOnField reports whether field has an access path: an index
	// on the heap, the key (field 0) on LSM.
	hasIndexOnField(field int) bool
	// view pins one read state: a View, or the one-off read a Table read
	// method runs on (a value, so that read allocates no View).
	view() View
	deleteIn(st *statement, field int, values []int64) (*BulkResult, error)
	deleteRange(st *statement, field int, lo, hi int64) (*BulkResult, error)
	check() error
	flush() error
	explain(field int, m Method, memory int) string
	// catalogEntry is the backend's durable layout (saveCatalog adds name
	// and schema); Recover reopens the table from it.
	catalogEntry() catalogTable
	// ownedFiles lists the files the rebalancer may migrate.
	ownedFiles() []sim.FileID
}

// heap yields the heap implementation behind the table, or the one error
// every heap-only entry point returns on an LSM table (which has no RIDs,
// secondary indexes, partitions or ⋈̸ planner).
func (tbl *Table) heap() (*heapBackend, error) {
	if h, ok := tbl.b.(*heapBackend); ok {
		return h, nil
	}
	return nil, notOnLSM(tbl.name)
}

// notOnLSM is the error a heap-only operation returns on an LSM table.
func notOnLSM(name string) error {
	return fmt.Errorf("bulkdel: not supported on LSM table %s", name)
}

// liveHeap is heap for the statements that refuse to start on a crashed
// database.
func (tbl *Table) liveHeap() (*heapBackend, error) {
	if tbl.db.crashed.Load() {
		return nil, errCrashed
	}
	return tbl.heap()
}

// Name returns the table name.
func (tbl *Table) Name() string { return tbl.name }

// NumFields returns the number of int64 attributes.
func (tbl *Table) NumFields() int { return tbl.schema.NumFields }

// Backend reports the table's storage backend: "heap" or "lsm".
func (tbl *Table) Backend() string { return tbl.b.kind() }

// Count returns the number of live records. On an LSM table this is a
// merged scan (tombstones subtract); a scan error reports -1.
func (tbl *Table) Count() int64 { return tbl.b.count() }

// CreateIndex builds an index over the current contents (scan + external
// sort + bottom-up bulk load). On a multi-device array (Options.Devices)
// the new tree is placed by the device policy (internal/place): the
// least-loaded data device the table does not already occupy, so
// independent ⋈̸ passes of a parallel bulk delete can overlap on separate
// spindles. Heap tables only.
func (tbl *Table) CreateIndex(opts IndexOptions) error {
	h, err := tbl.liveHeap()
	if err != nil {
		return err
	}
	// Structural claim: the build scans the heap and installs the new tree,
	// and no reader — snapshot readers included — may observe the table
	// while the scan races updaters.
	stmt, held := h.structural("create-index")
	defer tbl.db.endStatement(stmt, held)
	ix, err := h.t.CreateIndex(table.IndexDef{
		Name: opts.Name, Field: opts.Field, KeyLen: opts.KeyLen,
		Unique: opts.Unique, Clustered: opts.Clustered, Priority: opts.Priority,
	})
	if err != nil {
		return err
	}
	if tbl.db.numDataDevices() > 1 {
		dev := tbl.db.pickDevice(h.deviceAffinity())
		if err := tbl.db.pool.Relocate(ix.Tree.ID(), dev); err != nil {
			return err
		}
	}
	// The table goes to disk, the new tree with it, before the catalog save
	// that names the tree: a crash after the save finds an index file (not
	// a file without its meta page) whose entries name rows on disk.
	if err := h.flush(); err != nil {
		return err
	}
	return tbl.db.saveCatalog()
}

// DropIndex removes an index.
func (tbl *Table) DropIndex(name string) error {
	h, err := tbl.heap()
	if err == nil {
		err = h.t.DropIndex(name)
	}
	if err != nil {
		return err
	}
	return tbl.db.saveCatalog()
}

// IndexNames lists the table's indexes in catalog order (none on LSM).
func (tbl *Table) IndexNames() []string {
	var out []string
	if h, err := tbl.heap(); err == nil {
		for _, ix := range h.t.Idx {
			out = append(out, ix.Def.Name)
		}
	}
	return out
}

// IndexHeight returns the height of the named index (0 if absent).
func (tbl *Table) IndexHeight(name string) int {
	if h, err := tbl.heap(); err == nil {
		if ix := h.t.FindIndex(name); ix != nil {
			return ix.Tree.Height()
		}
	}
	return 0
}

// Insert adds one row (values for the leading fields; the rest zero) and
// maintains every index. It returns the new record's RID (record.NilRID on
// an LSM table, whose rows are addressed by key: field 0, upsert
// semantics). Inserts take the table lock exclusively, so they block while
// a bulk delete holds it and resume once the lock is released (after the
// heap and the unique indexes are processed); updates to still-offline
// indexes go through their side-files.
func (tbl *Table) Insert(fields ...int64) (RID, error) {
	if tbl.db.crashed.Load() {
		return record.NilRID, errCrashed
	}
	tbl.lock.Lock(cc.Exclusive)
	defer tbl.lock.Unlock(cc.Exclusive)
	tbl.row = append(tbl.row[:0], fields...)
	return tbl.b.insert(tbl.row)
}

// DeleteRow removes one record by RID. Heap tables only.
func (tbl *Table) DeleteRow(rid RID) error {
	h, err := tbl.heap()
	if err != nil {
		return err
	}
	tbl.lock.Lock(cc.Exclusive)
	defer tbl.lock.Unlock(cc.Exclusive)
	return h.t.DeleteRow(rid)
}

// Get decodes the record at rid as of a commit-epoch snapshot; it does not
// block behind a concurrent bulk delete's exclusive lock. Heap tables only.
func (tbl *Table) Get(rid RID) ([]int64, error) {
	v := tbl.b.view()
	defer v.Close()
	row, ok, err := v.Get(rid)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("bulkdel: no record at %s", rid)
	}
	return row, nil
}

// HasIndexOnField reports whether Lookup on the field can use an access
// path: an index on a heap table, the key (field 0) on an LSM table.
func (tbl *Table) HasIndexOnField(field int) bool { return tbl.b.hasIndexOnField(field) }

// Lookup returns all rows whose field equals v: on a heap table via an
// index on the field, on an LSM table by a point read on field 0 or a
// filtered merged scan. Like every one-off read it runs on a view pinned for
// the call, so it never blocks behind a bulk delete and holds no table lock
// while it runs.
func (tbl *Table) Lookup(field int, v int64) ([][]int64, error) {
	view := tbl.b.view()
	defer view.Close()
	return view.Lookup(field, v)
}

// LookupRIDs returns the RIDs of all rows whose field equals v, via an
// index on the field. RIDs of rows deleted after the read's snapshot are
// included — they name the snapshot's retained images, and a Get through the
// same open View resolves them; a fresh Get may not. Heap tables only.
func (tbl *Table) LookupRIDs(field int, v int64) ([]RID, error) {
	h, err := tbl.heap()
	if err != nil {
		return nil, err
	}
	if h.t.IndexOnField(field) == nil {
		return nil, fmt.Errorf("bulkdel: table %s has no index on field %d", tbl.name, field)
	}
	s := h.beginSnapshotRead()
	defer h.endSnapshotRead(s)
	var rids []RID
	err = h.lookupAt(field, v, v, s, func(rid RID, _ []int64) error {
		rids = append(rids, rid)
		return nil
	})
	return rids, err
}

// LookupRange returns all rows with lo <= field value <= hi (both bounds
// inclusive). Heap tables use an index on the field when one exists (key
// order), else a heap scan (physical order); LSM tables merge in key order.
func (tbl *Table) LookupRange(field int, lo, hi int64) ([][]int64, error) {
	view := tbl.b.view()
	defer view.Close()
	return view.LookupRange(field, lo, hi)
}

// Scan calls fn for every row of a view pinned for the call: physical order
// on a heap table, key order with record.NilRID on an LSM table. fn may
// write to the table it scans.
func (tbl *Table) Scan(fn func(rid RID, fields []int64) error) error {
	view := tbl.b.view()
	defer view.Close()
	return view.Scan(fn)
}

// View opens a read view held across calls. On an LSM table it is one
// source snapshot of the tree, captured under the shared table lock so no
// write is half-applied in it: later writes of any kind stay out of it. On
// a heap table it is an MVCC snapshot epoch, stable against deletes only:
// RecordBirth stamps an insert with the current epoch, which only a
// committed delete advances, so the view sees rows inserted after it
// opened (birth-stamped inserts are parked in ROADMAP). The heap view
// admits alongside a bulk delete's exclusive lock (it blocks only behind
// Structural passes), pins retained versions, and holds a snapshot-reader
// registration that Structural claims drain. Either way the view must be
// Closed.
func (tbl *Table) View() (*View, error) {
	if tbl.db.crashed.Load() {
		return nil, errCrashed
	}
	v := tbl.b.view()
	return &v, nil
}

// View is a stable read view over one table. Its read methods mirror the
// table's, evaluated at the view's pinned state. Not safe for concurrent
// use by multiple goroutines.
type View struct {
	r      viewReader
	epoch  uint64
	closed bool
}

// viewReader is one backend's pinned read state behind a View.
// Every method takes the View's epoch, so a heap reader needs no state of
// its own beyond the backend.
type viewReader interface {
	get(rid RID, epoch uint64) ([]int64, bool, error)
	lookup(field int, v int64, epoch uint64) ([][]int64, error)
	lookupRange(field int, lo, hi int64, epoch uint64) ([][]int64, error)
	scan(fn func(rid RID, fields []int64) error, epoch uint64) error
	close(epoch uint64)
}

// Epoch returns the commit epoch the view reads at.
func (v *View) Epoch() uint64 { return v.epoch }

// Close releases the view's pinned state. Idempotent.
func (v *View) Close() {
	if !v.closed {
		v.closed = true
		v.r.close(v.epoch)
	}
}

// Get decodes the record at rid as of the view's snapshot; ok is false when
// the snapshot holds no such row. Heap tables only: LSM rows have no RID.
func (v *View) Get(rid RID) (fields []int64, ok bool, err error) {
	return v.r.get(rid, v.epoch)
}

// Lookup returns all rows whose field equals val, as of the snapshot.
func (v *View) Lookup(field int, val int64) ([][]int64, error) {
	return v.r.lookup(field, val, v.epoch)
}

// LookupRange returns all rows with lo <= field <= hi, as of the snapshot.
func (v *View) LookupRange(field int, lo, hi int64) ([][]int64, error) {
	return v.r.lookupRange(field, lo, hi, v.epoch)
}

// Scan calls fn for every row visible to the snapshot.
func (v *View) Scan(fn func(rid RID, fields []int64) error) error {
	return v.r.scan(fn, v.epoch)
}

// Check verifies every structural invariant of the backend (heap/index
// agreement and the trees; the LSM levels and their manifest) under the
// shared table lock, so no updater or delete is half applied meanwhile.
func (tbl *Table) Check() error { return tbl.b.check() }

// Flush forces the table's pages to disk. LSM tables are a no-op: the
// memtable's durability comes from the WAL, and SSTables are flushed as
// they are built.
func (tbl *Table) Flush() error { return tbl.b.flush() }

// SetDeletePolicy switches the traditional delete's page reclamation
// between free-at-empty (default, the paper's choice) and merge-at-half.
// A no-op on an LSM table, which has no B-trees to tune.
func (tbl *Table) SetDeletePolicy(mergeAtHalf bool) {
	policy := btree.FreeAtEmpty
	if mergeAtHalf {
		policy = btree.MergeAtHalf
	}
	if h, err := tbl.heap(); err == nil {
		h.t.SetPolicyAll(policy)
	}
}

// BulkOptions tunes Table.BulkDelete.
type BulkOptions struct {
	// Method selects the plan (default Auto).
	Method Method
	// Memory is the sort/hash working budget in bytes (default 5 MB).
	Memory int
	// CheckpointRows overrides the number of deletions between
	// mid-structure WAL checkpoints (default 100000).
	// Crash tests set it low to exercise checkpoint replay.
	CheckpointRows int
	// Concurrent enables the §3.1 protocol: exclusive table lock,
	// indexes offline, side-files applied as each index completes, the
	// lock released once the table and all unique indexes are done.
	// Without it the whole statement runs under the exclusive lock.
	Concurrent bool
	// Parallel caps the virtual workers the remaining-index ⋈̸ passes (and
	// a partitioned heap's passes) are scheduled onto (0/1 = serial). The
	// passes run one after another; the makespan reported is that of a
	// list schedule of each pass's device busy time, with one pass per
	// device at a time. The effective degree is clamped to the number of
	// distinct devices those structures live on, so it only helps on a
	// multi-device array (Options.Devices).
	Parallel int
	// Ctx, when set, makes the statement cooperatively cancellable: the
	// executor polls it at recoverable boundaries (page-I/O checkpoints in
	// the pass loops, structure starts/completions) and
	// stops with ErrCancelled when it is done. The engine then runs
	// abort-to-consistency — the §3.2 roll-forward is
	// replayed online, while the statement still holds its locks and gates,
	// so the structures end in the exact state a crash at that boundary
	// followed by Recover would produce. Because recovery is roll-forward-
	// only, that state is "the delete completed": a cancel can only stop a
	// statement before its first durable record (zero effect) or after it
	// (full effect, reached via replay) — never half-way. Cascades inherit
	// the context.
	Ctx context.Context
	// Timeout, when > 0, is the statement's real-time deadline: shorthand
	// for wrapping Ctx (or Background) in context.WithTimeout for this
	// statement. Expiry surfaces as ErrCancelled wrapping
	// context.DeadlineExceeded and bumps cc_deadline_exceeded.
	Timeout time.Duration
	// LockWait, when > 0, bounds the real time spent acquiring the
	// statement's lock footprint. Expiry fails fast with ErrLockTimeout
	// before anything ran — always safe to retry (see DB.RunConcurrentCtx).
	LockWait time.Duration
}

// BulkResult reports a bulk delete.
type BulkResult struct {
	// Deleted records removed from the table.
	Deleted int64
	// Victims is the size of the victim list.
	Victims int
	// Method actually used.
	Method Method
	// Partitions used by the hash+range-partitioning plan.
	Partitions int
	// Elapsed simulated time: the serial-equivalent total — the sum of
	// every device's busy time plus CPU — regardless of parallelism.
	Elapsed time.Duration
	// Makespan is the statement's simulated wall-clock length: equal to
	// Elapsed for serial runs, shorter when the remaining-index passes
	// overlapped on separate devices.
	Makespan time.Duration
	// Workers that executed the remaining-index passes (1 = serial).
	Workers int
	// PlanText is the executed plan, rendered like the paper's figures.
	PlanText string
	// SideFileOps counts concurrent updates replayed from side-files.
	SideFileOps int
	// Cascaded counts rows removed from child tables by ON DELETE
	// CASCADE foreign keys (recursively).
	Cascaded int64
	// Trace is the statement's phase tree: one span per execution phase
	// (victim collection, sort, per-structure ⋈̸ pass, WAL flush), each
	// with its I/O attribution on the simulated clock.
	Trace *Trace

	stats *core.Stats
}

// ExplainAnalyze renders the executed plan annotated per node with the
// measured actuals — rows, page reads/writes, seeks, buffer hit ratio,
// WAL bytes, simulated time — beside the planner's estimates.
func (r *BulkResult) ExplainAnalyze() string {
	if r.stats == nil {
		return ""
	}
	return r.stats.ExplainAnalyze()
}

// MetricsJSON encodes the same data as ExplainAnalyze — method, planner
// estimates, per-structure I/O, the full phase trace — as stable JSON:
// identical runs produce identical bytes.
func (r *BulkResult) MetricsJSON() ([]byte, error) {
	if r.stats == nil {
		return nil, fmt.Errorf("bulkdel: result carries no statistics")
	}
	return r.stats.MetricsJSON()
}

// statement is one running delete statement as its backend sees it: the
// caller's options (Timeout already folded into Ctx), the event stream, the
// held lock footprint, and the FK snapshot the footprint was computed from.
type statement struct {
	opts BulkOptions
	stmt *obs.Stmt
	held *cc.Held
	fks  []ForeignKey
}

// deleteStatement is the lifecycle of every delete statement, on either
// backend: crashed check, deadline, the lock footprint — this
// table plus every cascade-reachable child exclusively, RESTRICT children
// shared, taken up front in the lock manager's deterministic order, so
// deletes on different tables run concurrently and overlapping ones cannot
// deadlock — then body, then release.
func (tbl *Table) deleteStatement(opts BulkOptions, body func(*statement) (*BulkResult, error)) (*BulkResult, error) {
	if tbl.db.crashed.Load() {
		return nil, errCrashed
	}
	if opts.Timeout > 0 {
		parent := opts.Ctx
		if parent == nil {
			parent = context.Background()
		}
		ctx, cancel := context.WithTimeout(parent, opts.Timeout)
		defer cancel()
		opts.Ctx = ctx
		opts.Timeout = 0
	}
	claims, fks := tbl.db.deleteFootprint(tbl)
	stmt, held, err := tbl.db.beginStatementTimeout("bulk-delete", tbl.name, claims, opts.LockWait)
	if err != nil {
		return nil, fmt.Errorf("bulkdel: bulk delete on %s: %w", tbl.name, err)
	}
	defer tbl.db.endStatement(stmt, held)
	return body(&statement{opts: opts, stmt: stmt, held: held, fks: fks})
}

// BulkDelete executes DELETE FROM tbl WHERE field IN (values). On a heap
// table this is the vertical bulk delete operator — the paper's
// contribution (heapBackend.deleteIn); on an LSM table every victim that
// exists becomes a point tombstone, logged as one crash-atomic group.
func (tbl *Table) BulkDelete(field int, values []int64, opts BulkOptions) (*BulkResult, error) {
	return tbl.deleteStatement(opts, func(st *statement) (*BulkResult, error) {
		return tbl.b.deleteIn(st, field, values)
	})
}

// DeleteRange deletes every row whose field value lies in [lo, hi], both
// bounds inclusive, as one statement.
//
// On an LSM table with field == 0 this is the backend's signature move:
// one range tombstone is logged and dropped into the memtable — O(1)
// foreground I/O regardless of how many rows the range covers — and the
// result's Deleted is -1 (a blind delete does not know the count; the
// covered rows disappear from every read immediately and their space is
// reclaimed by delete-aware compaction within TombstoneTTL flushes).
// Non-key fields fall back to a merged scan issuing point tombstones.
//
// On a heap table the backend resolves the range to its distinct field
// values under the statement's lock — off the field's index leaf keys, or one
// heap scan when the field has no index — and hands them to the regular ⋈̸
// BulkDelete machinery.
func (tbl *Table) DeleteRange(field int, lo, hi int64, opts BulkOptions) (*BulkResult, error) {
	if tbl.db.crashed.Load() {
		return nil, errCrashed
	}
	if lo > hi {
		return &BulkResult{}, nil // an empty range is no statement at all
	}
	return tbl.deleteStatement(opts, func(st *statement) (*BulkResult, error) {
		return tbl.b.deleteRange(st, field, lo, hi)
	})
}

// UpdateResult reports a bulk update.
type UpdateResult struct {
	// Updated records.
	Updated int64
	// EntriesMoved counts index entries deleted and reinserted.
	EntriesMoved int64
	// Elapsed simulated time.
	Elapsed time.Duration
}

// BulkUpdate executes
//
//	UPDATE tbl SET setField = transform(setField) WHERE predField IN (values)
//
// with the vertical technique the paper's introduction sketches for UPDATE
// statements: the records are updated in one physical-order pass and each
// index over setField receives a bulk delete of the old entries followed
// by a bulk insert of the new ones. Indexes over other attributes are
// untouched. The statement runs under the exclusive table lock and is not
// WAL-protected (see DESIGN.md's future-work notes). Heap tables only.
func (tbl *Table) BulkUpdate(predField int, values []int64, setField int,
	transform func(int64) int64, opts BulkOptions) (*UpdateResult, error) {

	h, err := tbl.liveHeap()
	if err != nil {
		return nil, err
	}
	if opts.Memory <= 0 {
		opts.Memory = table.DefaultSortBudget
	}
	// Structural: unlike a bulk delete, the update rewrites records in
	// place without retaining pre-images, so snapshot readers must be
	// drained and held out, not admitted.
	stmt, held := h.structural("bulk-update")
	defer tbl.db.endStatement(stmt, held)
	st, err := core.ExecuteUpdate(h.target(), predField, values, setField, transform, core.Options{
		Memory:     opts.Memory,
		Reorganize: true,
		Stmt:       stmt,
	})
	if err != nil {
		return nil, err
	}
	h.resetSnapshots()
	return &UpdateResult{
		Updated:      st.Updated,
		EntriesMoved: st.EntriesMoved,
		Elapsed:      st.Elapsed,
	}, nil
}

// DeleteTraditional runs the record-at-a-time baseline: every victim
// probed through the access index, each record removed from the heap and
// from every index individually. Heap tables only.
func (tbl *Table) DeleteTraditional(field int, values []int64, sortValues bool) (int64, error) {
	h, err := tbl.liveHeap()
	if err != nil {
		return 0, err
	}
	// Structural: the baseline deletes record-at-a-time with no version
	// retention, so snapshot readers are held out for the duration.
	stmt, held := h.structural("delete-traditional")
	defer tbl.db.endStatement(stmt, held)
	n, err := h.t.TraditionalDelete(field, values, sortValues)
	h.resetSnapshots()
	return n, err
}

// DeleteDropCreate runs the drop-&-create baseline: secondary indexes are
// dropped, the delete runs against the access index only, and the dropped
// indexes are rebuilt. Heap tables only.
func (tbl *Table) DeleteDropCreate(field int, values []int64) (int64, error) {
	h, err := tbl.liveHeap()
	if err != nil {
		return 0, err
	}
	// Structural: index trees are dropped and rebuilt wholesale; no reader
	// — snapshot or otherwise — may observe the intermediate state.
	stmt, held := h.structural("delete-drop-create")
	defer tbl.db.endStatement(stmt, held)
	n, err := h.t.DropCreateDelete(field, values, true)
	h.resetSnapshots()
	if err != nil {
		return n, err
	}
	return n, tbl.db.saveCatalog()
}

// Explain renders the plan a bulk delete on the field would execute: on a
// heap table the given method's ⋈̸ plan — the code form of the paper's
// Figures 3–5 — on an LSM table the tombstone write.
func (tbl *Table) Explain(field int, m Method, memory int) string {
	return tbl.b.explain(field, m, memory)
}

// EstimateMethods returns the planner's cost estimates for a victim count,
// in plan order (empty on an LSM table, which has no planner).
func (tbl *Table) EstimateMethods(field, victims, memory int) map[string]time.Duration {
	if memory <= 0 {
		memory = table.DefaultSortBudget
	}
	out := make(map[string]time.Duration)
	if h, err := tbl.heap(); err == nil {
		for _, e := range core.EstimateCosts(h.target(), field, victims, memory) {
			out[e.Method.String()] = e.Time
		}
	}
	return out
}
