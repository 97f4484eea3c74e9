package bulkdel

import (
	"context"
	"fmt"
	"sort"
	"time"

	"bulkdel/internal/cc"
	"bulkdel/internal/heap"
	"bulkdel/internal/obs"
	"bulkdel/internal/place"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
	"bulkdel/internal/table"
	"bulkdel/internal/wal"
)

// PartitionSpec declares how a table's heap is split (see internal/heap):
// hash partitioning on the delete key, or key-range partitioning with
// explicit bounds. Key-range partitioning lets a bulk delete that covers a
// whole partition drop it by truncation instead of a merge pass.
type PartitionSpec = heap.PartitionSpec

// CreateTablePartitioned adds a table whose heap is split into
// spec.NumParts() partition files routed by spec's partition key. On a
// multi-device array each partition is placed by the device policy, so the
// per-partition passes of a bulk delete can overlap on separate spindles.
func (db *DB) CreateTablePartitioned(name string, numFields, recordSize int, spec PartitionSpec) (*Table, error) {
	schema := record.Schema{NumFields: numFields, Size: recordSize}
	if err := spec.Validate(schema); err != nil {
		return nil, err
	}
	var h *heapBackend
	tbl, err := db.addTable(name, schema, func(tbl *Table) (backend, error) {
		t, err := table.CreatePartitioned(db.pool, name, schema, spec)
		if err != nil {
			return nil, err
		}
		h = newHeapBackend(tbl, t)
		return h, nil
	})
	if err != nil {
		return nil, err
	}
	return db.created(tbl, h.placeHeapPartitions())
}

// Partitions reports how many heap partitions the table has (1 = a plain
// single-file heap, 0 = an LSM table, which has no heap).
func (tbl *Table) Partitions() int {
	if h, err := tbl.heap(); err == nil {
		return len(h.t.Heap.Parts())
	}
	return 0
}

// PartitionSpec returns the table's partitioning declaration (zero value
// for a single-file heap or an LSM table).
func (tbl *Table) PartitionSpec() PartitionSpec {
	if h, err := tbl.heap(); err == nil {
		if ph, ok := h.t.Heap.(*heap.Partitioned); ok {
			return ph.Spec()
		}
	}
	return PartitionSpec{}
}

// AlterPartitioning rewrites the table's heap under the new spec (a zero
// spec converts back to a single file): every record is re-routed into the
// new partition layout and every index is rebuilt in place — file IDs and
// device placements survive, so the catalog's index entries stay valid. The
// statement takes the table's Structural lock — the rewrite renumbers every
// RID, so snapshot readers are drained, not admitted; it is not
// WAL-protected (like the other DDL, a crash mid-rewrite loses the
// statement, not the log). Heap tables only.
func (tbl *Table) AlterPartitioning(spec PartitionSpec) error {
	h, err := tbl.liveHeap()
	if err != nil {
		return err
	}
	if spec.NumParts() > 0 {
		if err := spec.Validate(tbl.schema); err != nil {
			return err
		}
	}
	stmt, held := h.structural("alter-partitioning")
	defer tbl.db.endStatement(stmt, held)
	if err := h.t.Repartition(spec); err != nil {
		return err
	}
	if err := h.placeHeapPartitions(); err != nil {
		return err
	}
	tbl.db.obs.Registry().Counter("repartitions_run").Add(1)
	return tbl.db.saveCatalog()
}

// placeHeapPartitions spreads a partitioned heap's files across the data
// devices via the placement policy. Single-file heaps stay on the system
// device (their sequential pass shares it with the WAL, as before).
func (h *heapBackend) placeHeapPartitions() error {
	db, parts := h.tbl.db, h.t.Heap.Parts()
	if len(parts) <= 1 || db.numDataDevices() <= 1 {
		return nil
	}
	avoid := make(map[int]bool)
	for _, ix := range h.t.Idx {
		avoid[db.disk.DeviceOf(ix.Tree.ID())] = true
	}
	for _, p := range parts {
		dev := db.pickDevice(avoid)
		if err := db.pool.Relocate(p.ID(), dev); err != nil {
			return err
		}
		avoid[dev] = true
	}
	return nil
}

// deviceAffinity is the set of devices the table's structures already
// occupy — the placement policy avoids them so a statement's per-structure
// passes land on separate arms.
func (h *heapBackend) deviceAffinity() map[int]bool {
	avoid := make(map[int]bool)
	for _, f := range h.ownedFiles() {
		avoid[h.tbl.db.disk.DeviceOf(f)] = true
	}
	return avoid
}

// pickDevice scores the array's current allocation and returns the device
// a new data file should land on.
func (db *DB) pickDevice(avoid map[int]bool) int {
	return place.Pick(place.Loads(db.disk.NumDevices(), db.disk.Placements()), avoid)
}

// numDataDevices returns the configured data-device count (Options.Devices,
// possibly grown by GrowDevices), read under the catalog lock.
func (db *DB) numDataDevices() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.opts.Devices
}

// GrowDevices extends the disk array to `devices` data devices (plus the
// system device). Existing files stay where they are — run Rebalance to
// migrate load onto the new arms. Shrinking is not supported.
func (db *DB) GrowDevices(devices int) error {
	if db.crashed.Load() {
		return errCrashed
	}
	db.mu.Lock()
	if devices < db.opts.Devices {
		db.mu.Unlock()
		return fmt.Errorf("bulkdel: cannot shrink the array from %d to %d devices", db.opts.Devices, devices)
	}
	db.opts.Devices = devices
	db.mu.Unlock()
	if devices > 1 {
		db.disk.ConfigureDevices(devices + 1)
	}
	return db.saveCatalog()
}

// MoveReport is one completed file migration.
type MoveReport struct {
	File     sim.FileID
	From, To int
	Pages    int64
}

// RebalanceResult reports a Rebalance run.
type RebalanceResult struct {
	// Moves actually executed, in plan order.
	Moves []MoveReport
	// PagesMoved is the total migrated volume.
	PagesMoved int64
	// Elapsed is the simulated time the migrations cost (reading every
	// page on the source arm and writing it on the destination).
	Elapsed time.Duration
}

// Rebalance levels the data devices' allocation by migrating heap
// partitions and index trees onto emptier arms — typically after
// GrowDevices added spindles. Only files a backend reports as owned move:
// an LSM table's SSTables stay where its manifest placed them. It takes every table's exclusive lock (a
// migration must not race a statement using the file), and with the WAL
// enabled each move is bracketed by move-start/move-done records: a crash
// mid-migration is recovered by redoing the move, so the file is always
// intact on exactly one device.
func (db *DB) Rebalance() (*RebalanceResult, error) {
	return db.RebalanceCtx(context.Background())
}

// RebalanceCtx is Rebalance under a cancellation context. Move boundaries
// are the recoverable checkpoints: each migration is bracketed by WAL
// move-start/move-done records and is complete in itself, so a done context
// stops the run between moves — completed migrations stay (and are saved to
// the catalog), pending ones are simply not started — and the call returns
// ErrCancelled wrapping the context's error alongside the partial result.
func (db *DB) RebalanceCtx(ctx context.Context) (*RebalanceResult, error) {
	if db.crashed.Load() {
		return nil, errCrashed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	db.mu.Lock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	db.mu.Unlock()
	sort.Strings(names)
	claims := make([]cc.Claim, len(names))
	for i, n := range names {
		// Structural: a migration moves a file between arms; snapshot
		// readers must not be probing its pages mid-copy.
		claims[i] = cc.Claim{Table: n, Mode: cc.Structural}
	}
	stmt, held := db.beginStatement("rebalance", "*", claims)
	defer db.endStatement(stmt, held)
	db.mu.Lock()
	owned := make(map[sim.FileID]bool)
	for _, tbl := range db.tables {
		for _, f := range tbl.b.ownedFiles() {
			owned[f] = true
		}
	}
	db.mu.Unlock()

	var ps []sim.Placement
	for _, p := range db.disk.Placements() {
		if owned[p.File] {
			ps = append(ps, p)
		}
	}
	plan := place.PlanRebalance(db.disk.NumDevices(), ps)
	res := &RebalanceResult{}
	start := db.disk.Clock()
	var cancelErr error
	for _, m := range plan {
		select {
		case <-ctx.Done():
			stmt.Event(obs.EvCancel, fmt.Sprintf("rebalance stopped after %d/%d moves", len(res.Moves), len(plan)))
			cancelErr = fmt.Errorf("bulkdel: rebalance: %w: %v", ErrCancelled, ctx.Err())
		default:
		}
		if cancelErr != nil {
			break
		}
		if err := db.migrateFile(m.File, m.To); err != nil {
			return res, err
		}
		res.Moves = append(res.Moves, MoveReport{File: m.File, From: m.From, To: m.To, Pages: int64(m.Pages)})
		res.PagesMoved += int64(m.Pages)
	}
	res.Elapsed = db.disk.Clock() - start
	reg := db.obs.Registry()
	reg.Counter("rebalance_runs").Add(1)
	reg.Counter("rebalance_moves").Add(int64(len(res.Moves)))
	reg.Counter("rebalance_pages_moved").Add(res.PagesMoved)
	if len(res.Moves) > 0 {
		// Completed moves are durable in the WAL either way; the catalog
		// save makes them visible without a log replay — on the cancel path
		// too, so a cancelled rebalance leaves no catalog drift.
		if err := db.saveCatalog(); err != nil {
			return res, err
		}
	}
	return res, cancelErr
}

// migrateFile moves one file to dev under the move protocol: log
// move-start, complete the on-disk image (flush dirty frames), physically
// copy the pages — read them on the source arm, retarget the file, write
// them back on the destination — then log move-done. Redoing the whole
// sequence after a crash is idempotent: the pages' content never changes,
// only the arm they live on.
func (db *DB) migrateFile(id sim.FileID, dev int) error {
	var tx uint64
	if db.log != nil {
		tx = db.nextTx()
		if _, err := db.log.Append(wal.TMoveStart, tx, uint64(id), uint64(dev), nil); err != nil {
			return err
		}
		if err := db.log.Flush(); err != nil {
			return err
		}
	}
	if err := db.pool.FlushFile(id); err != nil {
		return err
	}
	n, err := db.disk.NumPages(id)
	if err != nil {
		return err
	}
	var bufs [][]byte
	if n > 0 {
		bufs = make([][]byte, n)
		for i := range bufs {
			bufs[i] = make([]byte, sim.PageSize)
		}
		if err := db.disk.ReadRun(id, 0, bufs); err != nil {
			return err
		}
	}
	if err := db.pool.Relocate(id, dev); err != nil {
		return err
	}
	if err := db.disk.WriteRun(id, 0, bufs); err != nil {
		return err
	}
	if db.log != nil {
		if _, err := db.log.Append(wal.TMoveDone, tx, uint64(id), uint64(dev), nil); err != nil {
			return err
		}
		if err := db.log.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// FileLayout is one live file's row in a DeviceLayout: its identity,
// page count, and byte size (pages x the simulated page size).
type FileLayout struct {
	// File is the simulated disk's file ID.
	File sim.FileID
	// Pages allocated to the file.
	Pages int64
	// Bytes is the file's allocated size in bytes.
	Bytes int64
}

// DeviceLayout is one device's row in DB.Layout.
type DeviceLayout struct {
	// Device index (0 is the system device).
	Device int
	// Files currently placed on the device.
	Files int
	// Pages allocated to those files.
	Pages int64
	// Bytes allocated to those files (Pages x the simulated page size).
	Bytes int64
	// Busy is the device's accumulated busy time.
	Busy time.Duration
	// ByFile lists each live file on the device with its byte size,
	// sorted by file ID.
	ByFile []FileLayout
}

// Layout reports the per-device file layout of the array: how many files,
// pages, and bytes each device holds (with a per-file breakdown) and how
// much simulated time it has been busy.
func (db *DB) Layout() []DeviceLayout {
	n := db.disk.NumDevices()
	out := make([]DeviceLayout, n)
	for i := range out {
		out[i].Device = i
		out[i].Busy = db.disk.DeviceBusy(i)
	}
	for _, p := range db.disk.Placements() {
		d := &out[p.Device]
		d.Files++
		d.Pages += int64(p.Pages)
		d.Bytes += int64(p.Pages) * sim.PageSize
		d.ByFile = append(d.ByFile, FileLayout{
			File:  p.File,
			Pages: int64(p.Pages),
			Bytes: int64(p.Pages) * sim.PageSize,
		})
	}
	return out
}
