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
	Name      string `json:"name"`
	NumFields int    `json:"numFields"`
	Size      int    `json:"size"`
	// Heap tables: the heap's partition files in ordinal order (one for a
	// table without a partition spec) and their devices.
	HeapFiles   []uint32       `json:"heapFiles,omitempty"`
	HeapDevices []int          `json:"heapDevices,omitempty"`
	Indexes     []catalogIndex `json:"indexes"`
	// Partition is the heap's spec, present only when it has one.
	Partition *catalogPartition `json:"partition,omitempty"`
	// LSM-backed tables: Backend is "lsm" and LSM is the tree's manifest —
	// the durable level layout. A flush or compaction commits by saving the
	// catalog; the manifest swap in that single save is what makes it
	// atomic (the inputs and the output are never both referenced).
	Backend string      `json:"backend,omitempty"`
	LSM     *catalogLSM `json:"lsm,omitempty"`
}

// catalogLSM is an LSM tree's manifest as the catalog persists it: the
// tree's clocks and, per table, only what its trailer cannot say — the
// file, its device and its page count (lsm.Open reads the rest back).
type catalogLSM struct {
	Seq        uint64         `json:"seq"`
	FlushedSeq uint64         `json:"flushedSeq"`
	Tick       uint64         `json:"tick"`
	Created    uint64         `json:"created"`
	Levels     [][]catalogSST `json:"levels"`
}

type catalogSST struct {
	File   uint32 `json:"file"`
	Device int    `json:"device,omitempty"`
	Pages  int64  `json:"pages"`
}

// toCatalogLSM keeps what the catalog persists of a manifest.
func toCatalogLSM(m lsm.Manifest) *catalogLSM {
	c := &catalogLSM{Seq: m.Seq, FlushedSeq: m.FlushedSeq, Tick: m.Tick, Created: m.Created}
	for _, lvl := range m.Levels {
		out := make([]catalogSST, len(lvl))
		for i, meta := range lvl {
			out[i] = catalogSST{File: meta.File, Device: meta.Device, Pages: meta.Pages}
		}
		c.Levels = append(c.Levels, out)
	}
	return c
}

// manifest is the lsm.Manifest lsm.Open reopens the tree from.
func (c *catalogLSM) manifest() lsm.Manifest {
	m := lsm.Manifest{Seq: c.Seq, FlushedSeq: c.FlushedSeq, Tick: c.Tick, Created: c.Created}
	for _, lvl := range c.Levels {
		out := make([]lsm.Meta, len(lvl))
		for i, sst := range lvl {
			out[i] = lsm.Meta{File: sst.File, Device: sst.Device, Pages: sst.Pages}
		}
		m.Levels = append(m.Levels, out)
	}
	return m
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

// The catalog's on-disk layout is crash-atomic with one write per save:
// file 0 holds two slot regions, and a save writes the whole catalog into
// the region that does not hold the newest one, as one chained run. A slot
// starts with a header — magic, generation, blob size, both regions'
// extents — and a CRC-32C over that header and the blob; loadCatalog takes
// the valid slot of the highest generation. A save interrupted at any page,
// torn mid-page included (the simulator's tear faults cut WritePage and
// every page of a WriteRun), leaves its slot failing the CRC, and recovery
// falls back to the catalog before it, which the save never touched. This
// matters beyond DDL: LSM flushes and compactions commit their manifests
// through catalog saves, so the crash sweep drives saves at every fault
// ordinal.
const catMagic uint64 = 0x3242444c434154ff // a 0xff byte never starts a page of JSON

// slot header layout.
const (
	catHdrMagic      = 0
	catHdrGen        = 8
	catHdrSize       = 16 // blob bytes
	catHdrCap        = 20 // pages of this slot's region
	catHdrOtherStart = 24 // the other region, so a reopened DB knows
	catHdrOtherCap   = 28 // where its next save goes
	catHdrCRC        = 32
	catHdrLen        = 36
)

// catCRC is the catalog slot checksum polynomial (CRC-32C).
var catCRC = crc32.MakeTable(crc32.Castagnoli)

// catalogRegion is a run of file-0 pages one slot is written into (cap 0:
// not allocated yet).
type catalogRegion struct{ start, cap uint32 }

func (r catalogRegion) overlaps(o catalogRegion) bool {
	return r.cap > 0 && o.cap > 0 && r.start < o.start+o.cap && o.start < r.start+r.cap
}

// catalogSlots is the double-buffered catalog's state: the generation and
// region of the newest slot, and the other region, which the next save
// overwrites.
type catalogSlots struct {
	gen         uint64
	live, other catalogRegion
}

// catalogPages returns the pages a slot of blob bytes spans.
func catalogPages(blob int) uint32 {
	return uint32((catHdrLen + blob + sim.PageSize - 1) / sim.PageSize)
}

// encodeSlot frames blob as generation gen of a slot written into region
// self, naming other as the region the save after it goes to. It returns
// the pages the slot spans, which may be fewer than the region holds.
func encodeSlot(blob []byte, gen uint64, self, other catalogRegion) [][]byte {
	buf := make([]byte, int(catalogPages(len(blob)))*sim.PageSize)
	binary.LittleEndian.PutUint64(buf[catHdrMagic:], catMagic)
	binary.LittleEndian.PutUint64(buf[catHdrGen:], gen)
	binary.LittleEndian.PutUint32(buf[catHdrSize:], uint32(len(blob)))
	binary.LittleEndian.PutUint32(buf[catHdrCap:], self.cap)
	binary.LittleEndian.PutUint32(buf[catHdrOtherStart:], other.start)
	binary.LittleEndian.PutUint32(buf[catHdrOtherCap:], other.cap)
	copy(buf[catHdrLen:], blob)
	crc := crc32.Update(crc32.Checksum(buf[:catHdrCRC], catCRC), catCRC, blob)
	binary.LittleEndian.PutUint32(buf[catHdrCRC:], crc)
	pages := make([][]byte, len(buf)/sim.PageSize)
	for i := range pages {
		pages[i] = buf[i*sim.PageSize : (i+1)*sim.PageSize]
	}
	return pages
}

// decodeSlot parses the slot starting at pages[p]: its generation, regions
// and blob, or ok=false when no valid slot starts there.
func decodeSlot(pages [][]byte, p int) (slots catalogSlots, blob []byte, ok bool) {
	hdr := pages[p]
	if binary.LittleEndian.Uint64(hdr[catHdrMagic:]) != catMagic {
		return slots, nil, false
	}
	size := int(binary.LittleEndian.Uint32(hdr[catHdrSize:]))
	slots.gen = binary.LittleEndian.Uint64(hdr[catHdrGen:])
	slots.live = catalogRegion{start: uint32(p), cap: binary.LittleEndian.Uint32(hdr[catHdrCap:])}
	slots.other = catalogRegion{
		start: binary.LittleEndian.Uint32(hdr[catHdrOtherStart:]),
		cap:   binary.LittleEndian.Uint32(hdr[catHdrOtherCap:]),
	}
	n := uint64(len(pages))
	switch {
	case size > len(pages)*sim.PageSize:
		return slots, nil, false
	case slots.live.cap < catalogPages(size) || uint64(p)+uint64(slots.live.cap) > n:
		return slots, nil, false
	case uint64(slots.other.start)+uint64(slots.other.cap) > n || slots.live.overlaps(slots.other):
		return slots, nil, false
	}
	body := make([]byte, 0, int(slots.live.cap)*sim.PageSize)
	for _, pg := range pages[p : p+int(slots.live.cap)] {
		body = append(body, pg...)
	}
	blob = body[catHdrLen : catHdrLen+size]
	crc := crc32.Update(crc32.Checksum(hdr[:catHdrCRC], catCRC), catCRC, blob)
	if binary.LittleEndian.Uint32(hdr[catHdrCRC:]) != crc {
		return slots, nil, false
	}
	return slots, blob, true
}

// saveCatalog serializes the catalog and commits it to file 0 with one
// chained write into the slot region not holding the newest generation.
func (db *DB) saveCatalog() error {
	// catMu spans the snapshot AND the file-0 rewrite, and is acquired
	// before db.mu (lock order: catMu > db.mu). Serializing only the write
	// would let two concurrent DDLs interleave so the older snapshot lands
	// last, durably dropping the newer table/FK until the next DDL.
	db.catMu.Lock()
	defer db.catMu.Unlock()
	root, blob, err := db.catalogBlob()
	if err != nil {
		return err
	}
	// A region too small for the blob is abandoned for a fresh one at the
	// file's end (growth is rare and logarithmic, not per save).
	slots := &db.catSlots
	target := slots.other
	if need := catalogPages(len(blob)); target.cap < need {
		have, err := db.disk.NumPages(db.catalog)
		if err != nil {
			return err
		}
		target = catalogRegion{start: uint32(have), cap: need}
		for i := uint32(0); i < need; i++ {
			if _, err := db.disk.Allocate(db.catalog); err != nil {
				return err
			}
		}
		slots.other = target
	}
	pages := encodeSlot(blob, slots.gen+1, target, slots.live)
	if err := db.disk.WriteRun(db.catalog, sim.PageNo(target.start), pages); err != nil {
		return err
	}
	slots.gen++
	slots.live, slots.other = target, slots.live
	db.catEpoch, db.catTx = root.Epoch, root.TxSeq
	return nil
}

// catalogBlob snapshots the catalog and encodes it.
func (db *DB) catalogBlob() (catalogRoot, []byte, error) {
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
	return root, blob, err
}

// loadCatalog reads file 0 in one chained run and decodes the valid slot
// of the highest generation. The returned catalogSlots seeds the reopened
// DB's slot state, so its next save overwrites the older region.
func loadCatalog(disk *sim.Disk) (catalogRoot, catalogSlots, error) {
	var root catalogRoot
	var best catalogSlots
	n, err := disk.NumPages(0)
	if err != nil {
		return root, best, fmt.Errorf("bulkdel: no catalog on this disk: %w", err)
	}
	if n == 0 {
		return root, best, fmt.Errorf("bulkdel: catalog file is empty")
	}
	pages := make([][]byte, n)
	for i := range pages {
		pages[i] = make([]byte, sim.PageSize)
	}
	if err := disk.ReadRun(0, 0, pages); err != nil {
		return root, best, err
	}
	var blob []byte
	for p := range pages {
		if s, b, ok := decodeSlot(pages, p); ok && (blob == nil || s.gen > best.gen) {
			best, blob = s, b
		}
	}
	if blob == nil {
		return root, best, fmt.Errorf("bulkdel: corrupt catalog (no valid slot in %d pages)", n)
	}
	if err := json.Unmarshal(blob, &root); err != nil {
		return root, best, fmt.Errorf("bulkdel: corrupt catalog: %w", err)
	}
	return root, best, nil
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
	root, slots, err := loadCatalog(disk)
	if err != nil {
		return nil, nil, err
	}
	if opts.Devices == 0 {
		opts.Devices = root.Devices // keep the crashed instance's layout
	}
	db := newDB(disk, opts)
	db.txSeq.Store(root.TxSeq)
	db.catSlots = slots
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
