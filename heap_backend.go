package bulkdel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"bulkdel/internal/btree"
	"bulkdel/internal/cc"
	"bulkdel/internal/core"
	"bulkdel/internal/heap"
	"bulkdel/internal/keyenc"
	"bulkdel/internal/obs"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
	"bulkdel/internal/table"
)

// heapBackend is the storage the paper studies: a heap (single file or
// partitioned) with B-link-tree indexes, index gates and side-files, MVCC
// snapshot reads, and the ⋈̸ bulk-delete statement body. Everything that
// needs a RID, an index, or the planner lives here and is reached from the
// public Table through Table.heap.
type heapBackend struct {
	tbl *Table
	t   *table.Table
}

// newHeapBackend wires a created or reopened table.Table to its Table: the
// manager's shared lock (so ordered multi-table acquisition and the DML
// entry points contend on one object) and MVCC state on the DB's clock.
func newHeapBackend(tbl *Table, t *table.Table) *heapBackend {
	t.Lock = tbl.lock
	t.MVCC = table.NewMVCC(tbl.db.epochs)
	return &heapBackend{tbl: tbl, t: t}
}

func (h *heapBackend) kind() string { return "heap" }

func (h *heapBackend) insert(fields []int64) (RID, error) { return h.t.Insert(fields) }

func (h *heapBackend) count() int64 { return h.t.Heap.Count() }

func (h *heapBackend) flush() error { return h.t.Flush() }

// check compares the heap and trees under the shared table lock, so no
// updater or delete is half applied meanwhile. It waits out a previous
// statement's early-released index passes before it takes the claim — an
// updater queued behind a claim that itself waits on an offline index would
// stall for the whole pass — then re-checks the gates under it, where no
// bulk delete can take one offline again.
func (h *heapBackend) check() error {
	lock := h.tbl.lock
	for {
		h.waitIndexesOnline()
		lock.Lock(cc.Shared)
		if !slices.ContainsFunc(h.t.Idx, func(ix *table.Index) bool { return ix.Gate.State() == cc.Offline }) {
			break
		}
		lock.Unlock(cc.Shared)
	}
	defer lock.Unlock(cc.Shared)
	return h.t.CheckConsistency()
}

// ownedFiles lists the heap partitions and index trees — the files the
// rebalancer may migrate — once no index pass is still in flight.
func (h *heapBackend) ownedFiles() []sim.FileID {
	h.waitIndexesOnline()
	var out []sim.FileID
	for _, p := range h.t.Heap.Parts() {
		out = append(out, p.ID())
	}
	for _, ix := range h.t.Idx {
		out = append(out, ix.Tree.ID())
	}
	return out
}

func (h *heapBackend) catalogEntry() catalogTable {
	disk := h.tbl.db.disk
	ct := catalogTable{HeapFile: uint32(h.t.Heap.ID())}
	if ph, ok := h.t.Heap.(*heap.Partitioned); ok {
		spec := ph.Spec()
		ct.Partition = &catalogPartition{
			Field: spec.Field, Hash: spec.HashParts, Bounds: spec.RangeBounds,
		}
		for _, p := range ph.Parts() {
			ct.HeapFiles = append(ct.HeapFiles, uint32(p.ID()))
			ct.HeapDevices = append(ct.HeapDevices, disk.DeviceOf(p.ID()))
		}
	}
	for _, ix := range h.t.Idx {
		ct.Indexes = append(ct.Indexes, catalogIndex{
			Name: ix.Def.Name, Field: ix.Def.Field, KeyLen: ix.Def.KeyLen,
			Unique: ix.Def.Unique, Clustered: ix.Def.Clustered,
			Priority: ix.Def.Priority, File: uint32(ix.Tree.ID()),
			Device: disk.DeviceOf(ix.Tree.ID()),
		})
	}
	return ct
}

// openHeapBackend reopens a heap table from its catalog entry during
// Recover: the heap store (partition placements reapplied), then every
// index tree.
func openHeapBackend(tbl *Table, ct catalogTable) (backend, error) {
	db, schema := tbl.db, tbl.schema
	var h heap.Store
	if ct.Partition != nil && len(ct.HeapFiles) > 0 {
		ids := make([]sim.FileID, len(ct.HeapFiles))
		for i, f := range ct.HeapFiles {
			ids[i] = sim.FileID(f)
		}
		spec := heap.PartitionSpec{
			Field: ct.Partition.Field, HashParts: ct.Partition.Hash,
			RangeBounds: ct.Partition.Bounds,
		}
		ph, err := heap.OpenPartitioned(db.pool, ids, schema, spec)
		if err != nil {
			return nil, fmt.Errorf("bulkdel: reopening table %s: %w", ct.Name, err)
		}
		for i, d := range ct.HeapDevices {
			if i < len(ids) && d > 0 {
				if err := db.disk.PlaceFile(ids[i], d); err != nil {
					return nil, fmt.Errorf("bulkdel: placing partition %d of %s: %w", i, ct.Name, err)
				}
			}
		}
		h = ph
	} else {
		hf, err := heap.Open(db.pool, sim.FileID(ct.HeapFile))
		if err != nil {
			return nil, fmt.Errorf("bulkdel: reopening table %s: %w", ct.Name, err)
		}
		h = hf
	}
	t := table.ReattachForRecovery(db.pool, ct.Name, schema, h)
	for _, ci := range ct.Indexes {
		tr, err := btree.Open(db.pool, sim.FileID(ci.File))
		if err != nil {
			return nil, fmt.Errorf("bulkdel: reopening index %s.%s: %w", ct.Name, ci.Name, err)
		}
		if ci.Device > 0 {
			// Reapply the catalog's device placement; the disk object
			// usually retains it across a simulated crash, but a
			// catalog restored onto a replacement array would not.
			if err := db.disk.PlaceFile(sim.FileID(ci.File), ci.Device); err != nil {
				return nil, fmt.Errorf("bulkdel: placing index %s.%s: %w", ct.Name, ci.Name, err)
			}
		}
		t.Idx = append(t.Idx, &table.Index{
			Def: table.IndexDef{
				Name: ci.Name, Field: ci.Field, KeyLen: ci.KeyLen,
				Unique: ci.Unique, Clustered: ci.Clustered, Priority: ci.Priority,
			},
			Tree: tr,
			Gate: cc.NewGate(),
		})
	}
	return newHeapBackend(tbl, t), nil
}

// heapOwning finds the heap table whose heap file is id — how Recover maps
// an unfinished bulk delete's WAL state back to its table. LSM tables own no
// heap file and are never candidates.
func (db *DB) heapOwning(id uint64) (*heapBackend, bool) {
	for _, tbl := range db.tables {
		if h, ok := tbl.b.(*heapBackend); ok && uint64(h.t.Heap.ID()) == id {
			return h, true
		}
	}
	return nil, false
}

// beginSnapshotRead opens an MVCC snapshot read on the table: it takes the
// snapshot-read lock mode (admitted alongside a bulk delete's exclusive
// claim; blocked only by Structural claims) and captures the commit epoch,
// which the caller hands back to endSnapshotRead. Callers must hold neither
// lock already.
func (h *heapBackend) beginSnapshotRead() uint64 {
	db := h.tbl.db
	blocked := h.t.Lock.Lock(cc.Snapshot)
	reg := db.obs.Registry()
	reg.Counter(obs.MetricSnapshotReads).Add(1)
	if blocked {
		reg.Counter(obs.MetricSnapshotReadWaits).Add(1)
	}
	return db.epochs.Snapshot()
}

func (h *heapBackend) endSnapshotRead(s uint64) {
	db := h.tbl.db
	db.epochs.Release(s)
	h.t.MVCC.Prune() // versions only this snapshot needed can go now
	db.noteRetainedBytes()
	h.t.Lock.Unlock(cc.Snapshot)
}

// lookupAt runs the table's one read function (table.SnapshotLookup: index
// arm or scan arm) at snapshot s, and counts an indexed field's read that a
// bulk delete in flight sent to the visibility-filtered heap scan.
func (h *heapBackend) lookupAt(field int, lo, hi int64, s uint64, emit func(RID, []int64) error) error {
	usedIndex, err := h.t.SnapshotLookup(field, lo, hi, s, emit)
	if !usedIndex && h.t.IndexOnField(field) != nil {
		h.tbl.db.obs.Registry().Counter(obs.MetricSnapshotFallbackScans).Add(1)
	}
	return err
}

func (h *heapBackend) hasIndexOnField(field int) bool { return h.t.IndexOnField(field) != nil }

// view opens a snapshot read that stays registered until the View closes:
// it never blocks behind a bulk delete, and holds only the Snapshot mode,
// which admits writers, while caller code runs.
func (h *heapBackend) view() View {
	return View{r: (*heapView)(h), epoch: h.beginSnapshotRead()}
}

// heapView serves a View's reads at the View's snapshot epoch. It is the
// backend itself under another name, so a View holds it without an
// allocation.
type heapView heapBackend

func (v *heapView) get(rid RID, s uint64) ([]int64, bool, error) { return v.t.SnapshotRow(rid, s) }

func (v *heapView) lookup(field int, val int64, s uint64) ([][]int64, error) {
	return v.lookupRange(field, val, val, s)
}

// lookupRange collects lookupAt's rows: key order on the index arm, physical
// order on the scan arm, either followed by the snapshot's retained rows.
func (v *heapView) lookupRange(field int, lo, hi int64, s uint64) ([][]int64, error) {
	var rows [][]int64
	err := (*heapBackend)(v).lookupAt(field, lo, hi, s, func(_ RID, row []int64) error {
		rows = append(rows, row)
		return nil
	})
	return rows, err
}

func (v *heapView) scan(fn func(rid RID, fields []int64) error, s uint64) error {
	return v.t.SnapshotScan(s, fn)
}

func (v *heapView) close(s uint64) { (*heapBackend)(v).endSnapshotRead(s) }

// target builds core's view of the table, with the engine's hooks.
func (h *heapBackend) target() *core.Target {
	tgt := h.t.Target()
	tgt.Hooks = h.tbl.db.coreHooks
	return tgt
}

// retainTarget arms a target's MVCC retention hook, bound to one deleting
// statement's token: Retain copies each victim's pre-delete image into the
// version store before the slot is tombstoned or truncated away. A
// replayed statement (online roll-forward after cancel) must pass the same
// token as its first attempt, so its retained images commit with the
// statement instead of lingering pending forever.
func (h *heapBackend) retainTarget(tgt *core.Target, token uint64) {
	mv, reg := h.t.MVCC, h.tbl.db.obs.Registry()
	tgt.Retain = func(rid record.RID, rec []byte) {
		mv.Retain(token, rid, rec)
		reg.Counter(obs.MetricVersionsRetained).Add(1)
		reg.Gauge(obs.MetricVersionsRetainedBytes).Add(int64(len(rec)))
	}
}

// explain renders the ⋈̸ plan — the code form of the paper's Figures 3–5.
func (h *heapBackend) explain(field int, m Method, memory int) string {
	if memory <= 0 {
		memory = table.DefaultSortBudget
	}
	tgt := h.target()
	if m == Auto {
		m = core.ChooseMethod(tgt, field, 0, memory)
	}
	return core.BuildPlan(tgt, field, m, memory, 1).String()
}

// deleteIn is the vertical bulk delete operator — the paper's contribution.
// With the WAL enabled the statement is checkpointed and crash-recoverable
// (it is rolled forward, not back). Declared foreign keys are enforced
// first, vertically: RESTRICT probes run read-only before anything is
// modified, CASCADE recursively bulk-deletes the referencing child rows.
func (h *heapBackend) deleteIn(st *statement, field int, values []int64) (*BulkResult, error) {
	return h.bulkDeleteWithDepth(field, values, st.opts, 0, st.stmt, st.held, st.fks)
}

// deleteRange is the one heap resolver of a range predicate: the distinct
// field values in [lo, hi], read off the field's index leaf keys (no heap
// fetch) or, with no index on the field, off one heap scan, handed sorted to
// the regular ⋈̸ machinery. It reads the live table under the statement's
// exclusive lock once every index is online, so no updater can add a row to
// the range between the read and the delete, and no snapshot is registered.
func (h *heapBackend) deleteRange(st *statement, field int, lo, hi int64) (*BulkResult, error) {
	h.waitIndexesOnline()
	var vals []int64
	var err error
	if ix := h.t.IndexOnField(field); ix != nil {
		// SearchRange's hi bound is exclusive; hi+1 would overflow at the
		// top of the key space, so MaxInt64 becomes an open-ended walk.
		var hiKey []byte
		if hi < math.MaxInt64 {
			hiKey = ix.EncodeKey(hi + 1)
		}
		err = ix.Tree.SearchRange(ix.EncodeKey(lo), hiKey, func(k []byte, _ RID) error {
			vals = append(vals, keyenc.Int64(k))
			return nil
		})
	} else {
		err = h.t.Heap.Scan(func(_ RID, rec []byte) error {
			if v := h.t.Schema.Field(rec, field); lo <= v && v <= hi {
				vals = append(vals, v)
			}
			return nil
		})
		slices.Sort(vals)
	}
	if err != nil {
		return nil, err
	}
	if vals = slices.Compact(vals); len(vals) == 0 {
		return &BulkResult{}, nil
	}
	return h.deleteIn(st, field, vals)
}

// bulkDeleteWithDepth runs one level of the (possibly cascading) delete.
// All locks were acquired by the statement layer at depth 0; held carries
// them so recursion never re-acquires (which would self-deadlock). fks is
// the FK snapshot the footprint was computed from — every level enforces
// this snapshot, never a re-read of the live list, so the cascade graph
// cannot outgrow the locks.
func (h *heapBackend) bulkDeleteWithDepth(field int, values []int64, opts BulkOptions, depth int, stmt *obs.Stmt, held *cc.Held, fks []ForeignKey) (out *BulkResult, err error) {
	db, name := h.tbl.db, h.t.Name
	if db.crashed.Load() {
		return nil, errCrashed
	}
	if opts.Memory <= 0 {
		opts.Memory = table.DefaultSortBudget
	}
	res := &BulkResult{Victims: len(values)}

	// Referential integrity first — "as early as possible and before
	// deleting records from the table and the indices" (paper §2.1).
	cascaded, err := db.enforceForeignKeys(h, field, values, opts, depth, stmt, held, fks)
	if err != nil {
		return nil, err
	}
	res.Cascaded = cascaded

	coreOpts := core.Options{
		Ctx:            opts.Ctx,
		Method:         opts.Method,
		Memory:         opts.Memory,
		Reorganize:     true,
		CheckpointRows: opts.CheckpointRows,
		Parallel:       opts.Parallel,
		Sched:          db.sched,
		Stmt:           stmt,
		Log:            db.log,
		TxID:           db.nextTx(),
	}

	// The statement trace: core fills in the phase spans; we own the root.
	tr := obs.NewTrace("bulk-delete",
		fmt.Sprintf("table=%s field=%d victims=%d", name, field, len(values)),
		db.obsSource())
	coreOpts.Trace = tr
	res.Trace = tr

	// §3.1 concurrency protocol: the root level's exclusive lock is released
	// at this level's end, or earlier via OnCriticalDone; ReleaseTable is
	// idempotent. Cascade children (depth > 0) keep their locks until the
	// statement's ReleaseAll: a diamond FK graph can cascade into the same
	// child from two branches, and an early release after the first visit
	// would let another statement lock the child while our second visit
	// still mutates it.
	unlock := func() {}
	if depth == 0 {
		unlock = func() { held.ReleaseTable(name) }
	}
	defer unlock()

	// A previous statement's early release means its non-critical index
	// passes may still be running offline; wait for every gate before
	// touching the trees (updaters may queue through side-files, but two
	// bulk passes on one tree must not overlap).
	h.waitIndexesOnline()

	// MVCC: open this level's retain token, and stamp its versions with one
	// commit epoch exactly once — at §3.1 early release in concurrent mode
	// (the statement's logical commit point), at level end otherwise.
	mv := h.t.MVCC
	token := mv.NewToken()
	var commitOnce sync.Once
	levelCommit := func() {
		commitOnce.Do(func() {
			mv.CommitToken(token) // prunes behind the horizon
			db.noteRetainedBytes()
		})
	}
	defer levelCommit()

	// §3.1 index ownership: every gate goes offline before the executor's
	// first pass changes a structure (TakeOffline waits out the readers and
	// updaters inside) and comes back online, its side-file drained, once
	// its pass is done. Until then the statement only reads, and snapshot
	// readers keep the index arm.
	// A pass done before the critical point — the access index, a unique
	// index — reopens at it: the access pass removes the victims' entries
	// before the heap pass retains their rows, so a snapshot reader let into
	// that tree earlier would miss them.
	//
	// owned holds the gates this statement took offline and has not brought
	// back yet. The cleanup must consult it, not Gate.State(): once every
	// pass is done the next statement may acquire the lock, pass
	// waitIndexesOnline, and take the gates offline again before our
	// deferred cleanup runs — quiescing that statement's side-file and
	// reopening its gates mid-pass would corrupt its trees. The executor
	// never runs its callbacks concurrently, nor after Execute returns.
	// sideErr is the first failed replay: the statement returns it.
	var sideErr error
	owned := make(map[sim.FileID]*table.Index, len(h.t.Idx))
	var early []*table.Index // passes done before the critical point
	critical := false
	reopen := func(ix *table.Index, why string) {
		delete(owned, ix.Tree.ID())
		n, rerr := drainSideFile(ix)
		res.SideFileOps += n
		if sideErr == nil {
			sideErr = rerr
		}
		ix.Gate.BringOnline()
		stmt.Event(obs.EvGateOnline, fmt.Sprintf("%s side-ops=%d%s", ix.Def.Name, n, why))
	}
	var takeOnce sync.Once
	takeGates := func() {
		takeOnce.Do(func() {
			for _, ix := range h.t.Idx {
				ix.Gate.TakeOffline()
				stmt.Event(obs.EvGateOffline, ix.Def.Name)
				owned[ix.Tree.ID()] = ix
			}
		})
	}
	coreOpts.OnPassesStart = takeGates
	coreOpts.OnStructureDone = func(file sim.FileID) {
		if ix, ok := owned[file]; ok && critical {
			reopen(ix, "")
		} else if ok {
			early = append(early, ix)
		}
	}
	coreOpts.OnCriticalDone = func() {
		critical = true
		for _, ix := range early {
			reopen(ix, "")
		}
		if !opts.Concurrent {
			return
		}
		// Table and unique indexes durable: this is the statement's commit
		// point. Stamp the retained versions before releasing the lock, so
		// no reader starting after the release can still see the deleted
		// rows (§3.1).
		levelCommit()
		if depth == 0 {
			stmt.Event(obs.EvEarlyRelease, name)
		}
		unlock()
	}
	defer func() {
		// Whatever happens, no gate WE took offline stays offline.
		for _, ix := range h.t.Idx {
			if owned[ix.Tree.ID()] != nil {
				reopen(ix, " (cleanup)")
			}
		}
		if err == nil && sideErr != nil {
			out, err = nil, fmt.Errorf("bulkdel: bulk delete on %s: %w", name, sideErr)
		}
	}()

	tgt := h.target()
	h.retainTarget(tgt, token)
	st, err := core.Execute(tgt, field, values, coreOpts)
	tr.Finish()
	db.obs.OnTrace(tr)
	db.countMerged(st)
	if err != nil {
		if errors.Is(err, core.ErrCancelled) {
			// Abort-to-consistency runs HERE, inside the statement: the
			// deferred gate cleanup and lock release have not fired yet, so
			// the replay owns the structures exactly as crash recovery
			// would. After it returns, the deferred cleanup drains the
			// side-files and reopens the gates on the now-final trees —
			// the same epilogue as the success path. The replay retains
			// under this level's token, so the deferred levelCommit stamps
			// its versions too. A cancel before the first pass took no gate
			// yet; the replay changes structures, so it takes them here.
			takeGates()
			if aerr := h.abortToConsistency(stmt, opts.Ctx, coreOpts.TxID, field, token); aerr != nil {
				return nil, fmt.Errorf("bulkdel: bulk delete on %s: abort-to-consistency failed: %v (statement error: %w)",
					name, aerr, err)
			}
		}
		return nil, fmt.Errorf("bulkdel: bulk delete on %s: %w", name, err)
	}
	if depth == 0 {
		// The statement's footprint was acquired once, before depth 0 ran;
		// report the real blocking time on the root's stats only.
		st.LockWait = held.WaitTotal()
	}
	res.Deleted = st.Deleted
	res.Method = st.Method
	res.Partitions = st.Partitions
	res.Elapsed = st.Elapsed
	res.Makespan = st.Makespan
	res.Workers = max(st.Workers, 1)
	res.PlanText = st.PlanText
	res.stats = st
	return res, nil
}

// abortToConsistency handles a statement that stopped with ErrCancelled:
// it records the cancellation (cc_aborts, plus cc_deadline_exceeded when
// the context died of its deadline), then brings the structures to the
// exact state a crash at the same boundary followed by Recover would
// produce, by replaying the §3.2 roll-forward online (DB.rollForwardOnline).
// Must be called while the statement still holds its locks and gates.
func (h *heapBackend) abortToConsistency(stmt *obs.Stmt, ctx context.Context, txID uint64, field int, token uint64) error {
	db := h.tbl.db
	reg := db.obs.Registry()
	reg.Counter(obs.MetricAborts).Add(1)
	detail := "cancelled"
	if ctx != nil && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		reg.Counter(obs.MetricDeadlineExceeded).Add(1)
		detail = "deadline exceeded"
	}
	stmt.Event(obs.EvCancel, detail)
	deleted, err := db.rollForwardOnline(h, txID, field, token)
	if err != nil {
		return err
	}
	stmt.Event(obs.EvAbort, fmt.Sprintf("online roll-forward complete, rows=%d", deleted))
	return nil
}

// waitIndexesOnline blocks until no index of the table is offline. Every
// statement that modifies the table through the index trees directly calls
// this right after taking the exclusive lock: the previous bulk delete may
// have released the lock early (§3.1) with its remaining index passes
// still in flight, and those passes own the offline trees until their
// gates reopen.
func (h *heapBackend) waitIndexesOnline() {
	for _, ix := range h.t.Idx {
		ix.Gate.WaitOnline()
	}
}

// drainSideFile replays ix's side-file: in batches while updaters keep
// appending, then the final batch with appends quiesced (§3.1.1). It returns
// how many ops it applied and the first that failed; it applies the rest
// regardless, and the statement reports the failure, because the index now
// lacks an entry.
func drainSideFile(ix *table.Index) (n int, err error) {
	sf := ix.Gate.SideFile()
	apply := func(ops []cc.Op) {
		for _, op := range ops {
			n++
			if e := table.ApplyOp(ix.Tree, op); e != nil && err == nil {
				err = fmt.Errorf("side-file replay into %s: %w", ix.Def.Name, e)
			}
		}
	}
	for sf.Len() > 64 {
		apply(sf.Drain(64))
	}
	apply(sf.Quiesce())
	return n, err
}

// structural opens a statement holding the table's Structural claim — the
// mode of every heap pass that rewrites structures without retaining
// pre-images, so snapshot readers are drained and held out, not admitted —
// and waits out any still-offline index pass. The caller defers
// db.endStatement.
func (h *heapBackend) structural(kind string) (*obs.Stmt, *cc.Held) {
	stmt, held := h.tbl.db.beginStatement(kind, h.t.Name,
		[]cc.Claim{{Table: h.t.Name, Mode: cc.Structural}})
	h.waitIndexesOnline()
	return stmt, held
}

// resetSnapshots discards the table's volatile MVCC state after an offline
// structural pass. The caller must hold a Structural claim on the table, so
// no snapshot reader can be open.
func (h *heapBackend) resetSnapshots() { h.t.MVCC.Reset() }
