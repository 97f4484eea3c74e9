package bulkdel

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"bulkdel/internal/core"
	"bulkdel/internal/lsm"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
	"bulkdel/internal/wal"
)

// The catalog persists the schema — table and index definitions and the
// file IDs behind them — to file 0 of the disk, so that Recover can rebuild
// the engine after a crash and then roll forward any interrupted bulk
// delete from the WAL (paper §3.2).

type catalogIndex struct {
	Name      string `json:"name"`
	Field     int    `json:"field"`
	KeyLen    int    `json:"keyLen"`
	Unique    bool   `json:"unique"`
	Clustered bool   `json:"clustered"`
	Priority  int    `json:"priority"`
	File      uint32 `json:"file"`
	Device    int    `json:"device,omitempty"`
}

// catalogPartition persists a partitioned heap's routing declaration.
type catalogPartition struct {
	Field  int     `json:"field"`
	Hash   int     `json:"hash,omitempty"`
	Bounds []int64 `json:"bounds,omitempty"`
}

type catalogTable struct {
	Name      string         `json:"name"`
	NumFields int            `json:"numFields"`
	Size      int            `json:"size"`
	HeapFile  uint32         `json:"heapFile"`
	Indexes   []catalogIndex `json:"indexes"`
	// Partitioned heaps: the spec, the per-partition files (HeapFiles[0]
	// == HeapFile) and their device placements.
	Partition   *catalogPartition `json:"partition,omitempty"`
	HeapFiles   []uint32          `json:"heapFiles,omitempty"`
	HeapDevices []int             `json:"heapDevices,omitempty"`
	// LSM-backed tables: Backend is "lsm" and LSM is the tree's manifest —
	// the durable level layout. A flush or compaction commits by saving the
	// catalog; the manifest swap in that single save is what makes it
	// atomic (the inputs and the output are never both referenced).
	Backend string        `json:"backend,omitempty"`
	LSM     *lsm.Manifest `json:"lsm,omitempty"`
}

type catalogFK struct {
	Child       string `json:"child"`
	ChildField  int    `json:"childField"`
	Parent      string `json:"parent"`
	ParentField int    `json:"parentField"`
	Cascade     bool   `json:"cascade"`
}

type catalogRoot struct {
	Tables  []catalogTable `json:"tables"`
	FKs     []catalogFK    `json:"fks"`
	WALFile uint32         `json:"walFile"`
	TxSeq   uint64         `json:"txSeq"`
	Devices int            `json:"devices,omitempty"`
	IxSeq   int            `json:"ixSeq,omitempty"`
	// Epoch is the MVCC commit counter at the last catalog save. Epochs
	// are volatile (no page or WAL payload stores one), so this is only a
	// floor: recovery fast-forwards the clock by the WAL's commit count on
	// top of it so the clock never hands out an epoch twice across a
	// restart. Zero (the common DDL-time value) is omitted.
	Epoch uint64 `json:"epoch,omitempty"`
}

// The catalog's on-disk layout is crash-atomic: page 0 of file 0 is a
// pointer page naming one of two payload regions; a save writes the full
// JSON blob (CRC-protected) into the region the pointer does NOT
// currently reference, then flips the pointer with a single page write.
// A crash at any I/O boundary leaves either the old pointer (old catalog,
// new blob an unreferenced scribble) or the new one — never a torn mix.
// This matters beyond DDL: LSM flushes and compactions commit their
// manifests through catalog saves, so the crash sweep drives saves at
// every fault ordinal. Page writes are assumed atomic (the classic
// sector-write assumption; the simulator's tear faults target multi-page
// runs).
const catMagic uint64 = 0x3242444c43415432

// catCRC is the catalog blob checksum polynomial (CRC-32C).
var catCRC = crc32.MakeTable(crc32.Castagnoli)

// catalogSlot is one payload region of the double-buffered catalog.
type catalogSlot struct {
	start uint64 // first page (0 = never allocated; page 0 is the pointer)
	cap   uint64 // pages reserved
	size  uint64 // live blob bytes
	crc   uint32 // CRC-32C over the blob
}

// catalogPtr mirrors the pointer page: which slot is live, and both
// slots' extents (so the next save can reuse the dead region).
type catalogPtr struct {
	live  int
	slots [2]catalogSlot
}

func (p *catalogPtr) encode(pg []byte) {
	binary.LittleEndian.PutUint64(pg[0:], catMagic)
	binary.LittleEndian.PutUint32(pg[8:], uint32(p.live))
	for i, s := range p.slots {
		off := 16 + 32*i
		binary.LittleEndian.PutUint64(pg[off:], s.start)
		binary.LittleEndian.PutUint64(pg[off+8:], s.cap)
		binary.LittleEndian.PutUint64(pg[off+16:], s.size)
		binary.LittleEndian.PutUint32(pg[off+24:], s.crc)
	}
}

func (p *catalogPtr) decode(pg []byte) error {
	if binary.LittleEndian.Uint64(pg) != catMagic {
		return fmt.Errorf("bulkdel: corrupt catalog pointer page (bad magic)")
	}
	p.live = int(binary.LittleEndian.Uint32(pg[8:]))
	if p.live != 0 && p.live != 1 {
		return fmt.Errorf("bulkdel: corrupt catalog pointer page (live slot %d)", p.live)
	}
	for i := range p.slots {
		off := 16 + 32*i
		p.slots[i] = catalogSlot{
			start: binary.LittleEndian.Uint64(pg[off:]),
			cap:   binary.LittleEndian.Uint64(pg[off+8:]),
			size:  binary.LittleEndian.Uint64(pg[off+16:]),
			crc:   binary.LittleEndian.Uint32(pg[off+24:]),
		}
	}
	return nil
}

// saveCatalog serializes the catalog and commits it to file 0 with the
// write-then-flip protocol above.
func (db *DB) saveCatalog() error {
	// catMu spans the snapshot AND the file-0 rewrite, and is acquired
	// before db.mu (lock order: catMu > db.mu). Serializing only the write
	// would let two concurrent DDLs interleave so the older snapshot lands
	// last, durably dropping the newer table/FK until the next DDL.
	db.catMu.Lock()
	defer db.catMu.Unlock()
	db.mu.Lock()
	root := catalogRoot{TxSeq: db.txSeq.Load(), Devices: db.opts.Devices,
		Epoch: db.epochs.Current(), WALFile: uint32(db.log.FileID())}
	for _, tbl := range db.tables {
		// The backend describes its layout; what every table shares is ours.
		ct := tbl.b.catalogEntry()
		ct.Name, ct.NumFields, ct.Size = tbl.name, tbl.schema.NumFields, tbl.schema.Size
		root.Tables = append(root.Tables, ct)
	}
	for _, fk := range db.fks {
		root.FKs = append(root.FKs, catalogFK{
			Child: fk.Child.Name(), ChildField: fk.ChildField,
			Parent: fk.Parent.Name(), ParentField: fk.ParentField,
			Cascade: fk.OnDelete == Cascade,
		})
	}
	db.mu.Unlock()
	blob, err := json.Marshal(root)
	if err != nil {
		return err
	}
	need := uint64((len(blob) + sim.PageSize - 1) / sim.PageSize)
	if need == 0 {
		need = 1
	}
	have, err := db.disk.NumPages(db.catalog)
	if err != nil {
		return err
	}
	if have == 0 {
		if _, err := db.disk.Allocate(db.catalog); err != nil {
			return err // the pointer page
		}
		have = 1
	}
	// Write into the slot the pointer does not reference; grow it at the
	// file's end when the blob outgrew its reserved region (the old region
	// is abandoned — growth is rare and logarithmic, not per save).
	target := 1 - db.catPtr.live
	slot := &db.catPtr.slots[target]
	if slot.start == 0 || slot.cap < need {
		slot.start, slot.cap = uint64(have), need
		for uint64(have) < slot.start+need {
			if _, err := db.disk.Allocate(db.catalog); err != nil {
				return err
			}
			have++
		}
	}
	bufs := make([][]byte, need)
	for i := range bufs {
		bufs[i] = make([]byte, sim.PageSize)
		if off := i * sim.PageSize; off < len(blob) {
			copy(bufs[i], blob[off:])
		}
	}
	if err := db.disk.WriteRun(db.catalog, sim.PageNo(slot.start), bufs); err != nil {
		return err
	}
	slot.size = uint64(len(blob))
	slot.crc = crc32.Checksum(blob, catCRC)
	db.catPtr.live = target
	ptr := make([]byte, sim.PageSize)
	db.catPtr.encode(ptr)
	if err := db.disk.WritePage(db.catalog, 0, ptr); err != nil {
		return err
	}
	db.catEpoch, db.catTx = root.Epoch, root.TxSeq
	return nil
}

// loadCatalog reads the catalog from file 0: pointer page, then the live
// slot's blob, CRC-checked. The returned catalogPtr seeds the reopened
// DB's slot state so its next save alternates correctly.
func loadCatalog(disk *sim.Disk) (catalogRoot, catalogPtr, error) {
	var root catalogRoot
	var ptr catalogPtr
	n, err := disk.NumPages(0)
	if err != nil {
		return root, ptr, fmt.Errorf("bulkdel: no catalog on this disk: %w", err)
	}
	if n == 0 {
		return root, ptr, fmt.Errorf("bulkdel: catalog file is empty")
	}
	pg := make([]byte, sim.PageSize)
	if err := disk.ReadPage(0, 0, pg); err != nil {
		return root, ptr, err
	}
	if err := ptr.decode(pg); err != nil {
		return root, ptr, err
	}
	slot := ptr.slots[ptr.live]
	pages := (slot.size + uint64(sim.PageSize) - 1) / uint64(sim.PageSize)
	if slot.start == 0 || slot.size == 0 || slot.start+pages > uint64(n) {
		return root, ptr, fmt.Errorf("bulkdel: corrupt catalog pointer (slot %d: start=%d size=%d file=%d pages)",
			ptr.live, slot.start, slot.size, n)
	}
	blob := make([]byte, 0, pages*uint64(sim.PageSize))
	for p := slot.start; p < slot.start+pages; p++ {
		if err := disk.ReadPage(0, sim.PageNo(p), pg); err != nil {
			return root, ptr, err
		}
		blob = append(blob, pg...)
	}
	blob = blob[:slot.size]
	if crc32.Checksum(blob, catCRC) != slot.crc {
		return root, ptr, fmt.Errorf("bulkdel: corrupt catalog (checksum mismatch)")
	}
	if err := json.Unmarshal(blob, &root); err != nil {
		return root, ptr, fmt.Errorf("bulkdel: corrupt catalog: %w", err)
	}
	return root, ptr, nil
}

// RecoveryReport describes what Recover found and did.
type RecoveryReport struct {
	// BulkInProgress reports whether an interrupted bulk delete was found.
	BulkInProgress bool
	// Table the first interrupted statement targeted (see Tables for all —
	// concurrent statements can leave several unfinished at a crash).
	Table string
	// Tables targeted by every rolled-forward statement, in WAL
	// TBulkStart order.
	Tables []string
	// Statements is the number of interrupted bulk deletes rolled forward.
	Statements int
	// RolledForward records completed by the roll-forward, summed over all
	// interrupted statements.
	RolledForward int64
	// StructuresSkipped were already durable before the crash (summed).
	StructuresSkipped int
	// MovesReplayed counts rebalancer migrations re-applied from the WAL
	// (placements redone in log order, whether or not move-done was
	// logged — the catalog snapshot can predate a completed move).
	MovesReplayed int
	// MovesCompleted counts migrations the crash interrupted mid-copy,
	// now finished and acknowledged with a move-done record.
	MovesCompleted int
	// LSMReplayed counts LSM put/delete records re-applied to memtables
	// (records whose seq the manifest already covers are skipped).
	LSMReplayed int
}

// Recover reopens a database from its disk after a crash: it reloads the
// catalog, reattaches every table and index, replays the WAL analysis, and
// — following the paper's §3.2 — finishes any interrupted bulk delete
// instead of rolling it back.
func Recover(disk *sim.Disk, opts Options) (*DB, *RecoveryReport, error) {
	opts = opts.withDefaults()
	root, ptr, err := loadCatalog(disk)
	if err != nil {
		return nil, nil, err
	}
	if opts.Devices == 0 {
		opts.Devices = root.Devices // keep the crashed instance's layout
	}
	db := newDB(disk, opts)
	db.txSeq.Store(root.TxSeq)
	db.catPtr = ptr
	db.catEpoch, db.catTx = root.Epoch, root.TxSeq
	db.obs.Registry().Counter("recoveries_run").Add(1)
	for _, ct := range root.Tables {
		_, err := db.addTable(ct.Name, record.Schema{NumFields: ct.NumFields, Size: ct.Size},
			func(tbl *Table) (backend, error) {
				// The catalog entry says which backend reopens the table.
				switch ct.Backend {
				case BackendLSM:
					return openLSMBackend(tbl, ct)
				default:
					return openHeapBackend(tbl, ct)
				}
			})
		if err != nil {
			return nil, nil, err
		}
	}

	for _, fk := range root.FKs {
		action := Restrict
		if fk.Cascade {
			action = Cascade
		}
		if err := db.fkByNames(fk.Child, fk.ChildField, fk.Parent, fk.ParentField, action); err != nil {
			return nil, nil, err
		}
	}

	report := &RecoveryReport{}
	log, recs, err := wal.Open(disk, sim.FileID(root.WALFile))
	if err != nil {
		return nil, nil, err
	}
	db.log = log
	db.wireWAL()
	// Epochs are volatile; fast-forward the clock past every epoch the
	// crashed instance could have allocated: the catalog floor plus one per
	// logged commit is a safe upper bound (only committed statements advance
	// the clock, and the floor already covers commits before the last
	// catalog save — over-counting those merely skips epochs, which is
	// harmless).
	db.epochs.SetCurrent(root.Epoch + wal.CountCommits(recs))
	// The catalog's TxID floor can lag the log the same way. Commit records
	// gate LSM replay by TxID, so a TxID handed out twice would let a later
	// statement's commit adopt the records of an earlier, torn one.
	maxTx := db.txSeq.Load()
	for _, r := range recs {
		maxTx = max(maxTx, r.TxID)
	}
	db.txSeq.Store(maxTx)
	// LSM memtables are volatile; re-apply every logged put/delete the
	// manifest's flushed-seq watermark does not already cover. Each record
	// carries its own sequence number, so replay is order-independent and
	// idempotent across repeated recoveries.
	report.LSMReplayed = db.replayLSMRecords(recs)
	// Replay rebalancer moves in log order, after the catalog's placements
	// were re-applied above: a crash between a move's move-done record and
	// the next catalog save leaves the catalog pointing at the old device,
	// so the log — not the catalog — has the placement's last word. Redoing
	// a finished move is a placement no-op; an unfinished one is completed
	// here (the copy is idempotent: page content never changes, only the
	// arm it lives on) and acknowledged so the next recovery skips it.
	for _, mv := range wal.AnalyzeMoves(recs) {
		if int(mv.To) >= disk.NumDevices() {
			continue // array layout shrank out from under the log record
		}
		if err := disk.PlaceFile(sim.FileID(mv.File), int(mv.To)); err != nil {
			continue // file since dropped; nothing to place
		}
		report.MovesReplayed++
		if !mv.Done {
			// The placement redo above IS the copy in the simulator (a
			// file's pages live on exactly one arm); acknowledge it so
			// the next recovery does not redo the work.
			if _, err := log.Append(wal.TMoveDone, mv.TxID, mv.File, mv.To, nil); err != nil {
				return nil, nil, err
			}
			report.MovesCompleted++
		}
	}
	if report.MovesCompleted > 0 {
		if err := log.Flush(); err != nil {
			return nil, nil, err
		}
	}
	if report.MovesReplayed > 0 {
		if err := db.saveCatalog(); err != nil {
			return nil, nil, err
		}
	}
	// Concurrent statements interleave records in the shared log, so a
	// crash can leave several bulk deletes unfinished; roll each forward
	// in TBulkStart order (§3.2 — the roll-forwards are independent: each
	// statement owns its table and its materialized row-files).
	for _, bs := range wal.AnalyzeBulks(recs) {
		if bs.Finished {
			continue
		}
		report.BulkInProgress = true
		report.Statements++
		report.StructuresSkipped += len(bs.Done)
		// Matched against heap implementations only: an LSM table owns no
		// heap file a bulk-start record could name.
		victim, ok := db.heapOwning(bs.Table)
		if !ok {
			return nil, nil, fmt.Errorf("bulkdel: interrupted bulk delete on unknown table (heap file %d)", bs.Table)
		}
		if report.Table == "" {
			report.Table = victim.t.Name
		}
		report.Tables = append(report.Tables, victim.t.Name)
		field, ok := core.BulkStartField(recs, bs.TxID)
		if !ok {
			return nil, nil, fmt.Errorf("bulkdel: bulk-start record lacks the delete attribute")
		}
		deleted, err := db.resume(victim.target(), bs, recs, field, core.Options{})
		if err != nil {
			return nil, nil, fmt.Errorf("bulkdel: roll-forward on %s failed: %w", victim.t.Name, err)
		}
		report.RolledForward += deleted
	}
	return db, report, nil
}
