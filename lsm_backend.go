package bulkdel

import (
	"encoding/binary"
	"fmt"
	"math"

	"bulkdel/internal/cc"
	"bulkdel/internal/lsm"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
	"bulkdel/internal/wal"
)

// The LSM storage backend: the second implementation of the backend seam
// (table.go) behind the same public Table API. An LSM table keys every row on field 0 (upsert
// semantics — inserting an existing key overwrites the row) and stores it
// in an internal/lsm tree: memtable + WAL for the tail, SSTables on the
// simulated disk for the bulk, leveled compaction with delete-aware
// (Lethe-style) triggers for reclamation. Deletes write tombstones — a
// range predicate on field 0 costs a single range tombstone, O(1)
// foreground I/O, no matter how many rows it covers — and the space comes
// back within a bounded number of flushes via the tombstone-TTL
// compaction trigger.
//
// What LSM tables do not have: RIDs (rows are addressed by key),
// secondary indexes, and the ⋈̸ bulk-delete planner (tombstones make it
// unnecessary). The key is their one access path: a lookup on field 0 is a
// Get, a range on it a key-range merge. Every read merges the memtable and
// SSTables of one lsm.Snapshot, captured under the shared table lock and
// read latch-free with no lock held, so a scan callback may write to the
// table and a View holds one snapshot across its reads. Deletes take the
// engine's exclusive table lock and advance the commit epoch, so the
// statement lifecycle, observability, and locking semantics match the heap
// backend. The other mutations (inserts, forced compaction) hold the table
// lock exclusively too, exactly like heap inserts: seq allocation, the WAL
// append, the memtable apply, and any flush the mutation triggers must form
// one atomic unit, or a concurrent mutation's flush could publish a
// flushed-seq horizon covering a seq whose record is not yet in the
// memtable — WAL replay would then skip it and the write would vanish after
// a crash.

// BackendLSM is the Table.Backend() name of the LSM storage backend.
const BackendLSM = "lsm"

// The tree holds a row's key field as the entry key, so the value it
// stores — in the memtable, in SSTables and in the WAL payload — is the
// rest of the row, and the key is written once. lsmKeyLen is the width of
// that leading field, maxLSMRecordSize the largest row a data block holds.
const (
	lsmKeyLen        = 8
	maxLSMRecordSize = lsm.MaxRecordSize + lsmKeyLen
)

// lsmBackend owns the table's tree. The statement layer's shared fields
// (name for the WAL frame, schema, lock, db) are reached through tbl.
type lsmBackend struct {
	tbl  *Table
	tree *lsm.Tree
}

// newLSMBackend attaches a created or reopened tree. Flushes and
// compactions commit their manifest through the catalog: the new SSTable
// set becomes durable in the same write that the old one is forgotten,
// which is what makes them atomic under a crash.
func newLSMBackend(tbl *Table, tree *lsm.Tree) *lsmBackend {
	tree.SetPersist(tbl.db.saveCatalog)
	return &lsmBackend{tbl: tbl, tree: tree}
}

func (l *lsmBackend) kind() string { return BackendLSM }

// flush is a no-op: the memtable's durability comes from the WAL, and
// SSTables are flushed as they are built.
func (l *lsmBackend) flush() error { return nil }

func (l *lsmBackend) check() error { return l.tree.Check() }

// ownedFiles is empty: SSTable placement belongs to the manifest (files
// round-robin over the data devices as they are built), not the rebalancer.
func (l *lsmBackend) ownedFiles() []sim.FileID { return nil }

func (l *lsmBackend) explain(field int, _ Method, _ int) string {
	return fmt.Sprintf("LSMDelete(table=%s field=%d)\n  └─ tombstone write (range predicates: one range tombstone; O(1) I/O)\n", l.tbl.name, field)
}

// catalogEntry carries the manifest. Manifest() reads a lock-free snapshot
// published under the tree mutex, so a flush that calls back into
// saveCatalog while holding that mutex cannot deadlock here.
func (l *lsmBackend) catalogEntry() catalogTable {
	return catalogTable{Backend: BackendLSM, LSM: toCatalogLSM(l.tree.Manifest())}
}

// row rebuilds a row's fields from its key and the rest the tree stores.
func (l *lsmBackend) row(key int64, rest []byte) []int64 {
	out := make([]int64, l.tbl.schema.NumFields)
	out[0] = key
	for i := 1; i < len(out); i++ {
		out[i] = int64(binary.LittleEndian.Uint64(rest[(i-1)*8:]))
	}
	return out
}

// field returns field f of the row stored as key and rest.
func (l *lsmBackend) field(key int64, rest []byte, f int) int64 {
	if f == 0 {
		return key
	}
	if n := l.tbl.schema.NumFields; f < 0 || f >= n {
		panic(fmt.Sprintf("record: field %d out of range (%d fields)", f, n))
	}
	return int64(binary.LittleEndian.Uint64(rest[(f-1)*8:]))
}

// lsmDevices returns the data devices SSTables round-robin over: the
// array's data spindles when one is configured, else device 0.
func (db *DB) lsmDevices() []int {
	if db.opts.Devices > 1 {
		out := make([]int, db.opts.Devices)
		for i := range out {
			out[i] = i + 1
		}
		return out
	}
	return []int{0}
}

// newLSMTree creates the empty tree of an LSM table whose rows are
// recordSize bytes.
func (db *DB) newLSMTree(recordSize int, opts lsm.Options) *lsm.Tree {
	opts.Devices = db.lsmDevices()
	return lsm.New(db.pool, recordSize-lsmKeyLen, opts)
}

// CreateTableLSM adds an LSM-backed table of numFields int64 attributes
// padded to recordSize bytes, keyed on field 0.
func (db *DB) CreateTableLSM(name string, numFields, recordSize int) (*Table, error) {
	schema := record.Schema{NumFields: numFields, Size: recordSize}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	// Backend-specific bounds Schema.Validate has no business knowing:
	// one encoded entry must fit an SSTable data block, and LSM WAL
	// payloads frame the table name with a one-byte length.
	if recordSize > maxLSMRecordSize {
		return nil, fmt.Errorf("bulkdel: LSM record size %d exceeds the backend maximum %d", recordSize, maxLSMRecordSize)
	}
	if len(name) > 255 {
		return nil, fmt.Errorf("bulkdel: LSM table name is %d bytes; the WAL frame caps names at 255", len(name))
	}
	return db.created(db.addTable(name, schema, func(tbl *Table) (backend, error) {
		return newLSMBackend(tbl, db.newLSMTree(recordSize, lsm.Options{})), nil
	}))
}

// openLSMBackend reopens an LSM table from its catalog entry during
// Recover: the tree from its manifest, SSTable placements reapplied.
func openLSMBackend(tbl *Table, ct catalogTable) (backend, error) {
	db := tbl.db
	var m lsm.Manifest
	if ct.LSM != nil {
		m = ct.LSM.manifest()
	}
	tree, err := lsm.Open(db.pool, ct.Size-lsmKeyLen, lsm.Options{Devices: db.lsmDevices()}, m)
	if err != nil {
		return nil, fmt.Errorf("bulkdel: reopening LSM table %s: %w", ct.Name, err)
	}
	for _, lvl := range m.Levels {
		for _, meta := range lvl {
			if meta.Device > 0 {
				if err := db.disk.PlaceFile(sim.FileID(meta.File), meta.Device); err != nil {
					return nil, fmt.Errorf("bulkdel: placing SSTable %d of %s: %w", meta.File, ct.Name, err)
				}
			}
		}
	}
	return newLSMBackend(tbl, tree), nil
}

// lsmPayload frames an LSM WAL record payload: [1B name length][name][rest].
func lsmPayload(name string, rest []byte) []byte {
	p := make([]byte, 1+len(name)+len(rest))
	p[0] = byte(len(name))
	copy(p[1:], name)
	copy(p[1+len(name):], rest)
	return p
}

// splitLSMPayload undoes lsmPayload.
func splitLSMPayload(p []byte) (name string, rest []byte, ok bool) {
	if len(p) < 1 || len(p) < 1+int(p[0]) {
		return "", nil, false
	}
	n := int(p[0])
	return string(p[1 : 1+n]), p[1+n:], true
}

// log appends one LSM mutation record. The record
// is replayed into the memtable by Recover when its seq is newer than the
// manifest's flushed horizon. A single-record statement logs under tx 0
// and is atomic by itself; a record of a multi-record statement carries
// the statement's TxID and is replayed only if that TxID's commit record
// is durable too (see deleteKeys).
func (l *lsmBackend) log(t wal.Type, tx, a, b uint64, rest []byte) error {
	_, err := l.tbl.db.log.Append(t, tx, a, b, lsmPayload(l.tbl.name, rest))
	return err
}

// insert adds (or overwrites) the row keyed on fields[0]. The statement
// layer's exclusive lock makes NextSeq → WAL append → Put → MaybeFlush one
// atomic unit against every other mutator; see the file comment.
func (l *lsmBackend) insert(fields []int64) (RID, error) {
	if len(fields) == 0 {
		return record.NilRID, fmt.Errorf("bulkdel: LSM table %s: insert needs at least the key field", l.tbl.name)
	}
	rec, err := l.tbl.schema.Encode(fields)
	if err != nil {
		return record.NilRID, err
	}
	key, rest := fields[0], rec[lsmKeyLen:]
	seq := l.tree.NextSeq()
	if err := l.log(wal.TLSMPut, 0, uint64(key), seq, rest); err != nil {
		l.tree.AbandonSeq(seq)
		return record.NilRID, err
	}
	l.tree.Put(key, rest, seq)
	return record.NilRID, l.maybeFlush()
}

// maybeFlush lets the tree flush and compact if its thresholds say so; a
// flush that emptied the memtable may have left nothing live in the log, so
// the log is offered a restart.
func (l *lsmBackend) maybeFlush() error {
	if err := l.tree.MaybeFlush(); err != nil {
		return err
	}
	if l.tree.MemLen() > 0 {
		return nil
	}
	return l.tbl.db.restartWAL()
}

// count counts visible rows via a merged scan; a scan error reports -1.
func (l *lsmBackend) count() int64 {
	l.tbl.lock.Lock(cc.Shared)
	defer l.tbl.lock.Unlock(cc.Shared)
	n, err := l.tree.Count()
	if err != nil {
		return -1
	}
	return n
}

// hasIndexOnField: the key is the one access path.
func (l *lsmBackend) hasIndexOnField(field int) bool { return field == 0 }

// view pins one snapshot of the tree. The shared table lock is held only
// while capturing: a delete applies its point tombstones one DeletePoint at
// a time under the exclusive lock, so a capture without it could see half a
// delete.
func (l *lsmBackend) view() View {
	l.tbl.lock.Lock(cc.Shared)
	defer l.tbl.lock.Unlock(cc.Shared)
	return View{r: lsmView{l: l, s: l.tree.Snapshot()}, epoch: l.tbl.db.epochs.Current()}
}

// lsmView serves a View's reads from its pinned snapshot s.
type lsmView struct {
	l *lsmBackend
	s *lsm.Snapshot
}

func (v lsmView) get(RID, uint64) ([]int64, bool, error) { return nil, false, notOnLSM(v.l.tbl.name) }

// lookup is a Get on field 0, a filtered merged scan on any other field.
func (v lsmView) lookup(field int, val int64, _ uint64) ([][]int64, error) {
	if field != 0 {
		return v.lookupRange(field, val, val, 0)
	}
	rest, ok, err := v.s.Get(val)
	if err != nil || !ok {
		return nil, err
	}
	return [][]int64{v.l.row(val, rest)}, nil
}

// lookupRange is a key-range merge on field 0, a filtered merged scan
// otherwise. Results arrive in key order.
func (v lsmView) lookupRange(field int, lo, hi int64, _ uint64) ([][]int64, error) {
	if lo > hi {
		return nil, nil
	}
	var out [][]int64
	emit := func(key int64, rest []byte) error {
		if f := v.l.field(key, rest, field); f >= lo && f <= hi {
			out = append(out, v.l.row(key, rest))
		}
		return nil
	}
	klo, khi := int64(math.MinInt64), int64(math.MaxInt64)
	if field == 0 {
		klo, khi = lo, hi
	}
	err := v.s.ScanRange(klo, khi, emit)
	return out, err
}

// scan visits every row in key order. LSM rows have no RIDs; fn receives
// record.NilRID.
func (v lsmView) scan(fn func(rid RID, fields []int64) error, _ uint64) error {
	return v.s.ScanRange(math.MinInt64, math.MaxInt64, func(key int64, rest []byte) error {
		return fn(record.NilRID, v.l.row(key, rest))
	})
}

func (v lsmView) close(uint64) { v.s.Close() }

// keysWhere collects, by one merged scan, the keys of the rows whose field
// value satisfies match — the victims of a delete on a non-key field.
func (l *lsmBackend) keysWhere(field int, match func(v int64) bool) ([]int64, error) {
	var keys []int64
	err := l.tree.Scan(func(key int64, rest []byte) error {
		if match(l.field(key, rest, field)) {
			keys = append(keys, key)
		}
		return nil
	})
	return keys, err
}

// deleteIn serves Table.BulkDelete: every victim becomes a point
// tombstone. Victims on field 0 are probed first (so the result counts rows
// that actually existed and absent keys cost no tombstone); other fields
// collect their matching keys with one merged scan. The statement runs
// under the exclusive table lock, logs its tombstones as one crash-atomic
// group (deleteKeys), flushes the log at commit, and advances the commit
// epoch like any other committed delete.
func (l *lsmBackend) deleteIn(_ *statement, field int, values []int64) (*BulkResult, error) {
	var keys []int64
	if field == 0 {
		for _, v := range values {
			_, ok, err := l.tree.Get(v)
			if err != nil {
				return nil, err
			}
			if ok {
				keys = append(keys, v)
			}
		}
	} else {
		want := make(map[int64]bool, len(values))
		for _, v := range values {
			want[v] = true
		}
		var err error
		if keys, err = l.keysWhere(field, func(v int64) bool { return want[v] }); err != nil {
			return nil, err
		}
	}
	return l.commitDelete(&BulkResult{Victims: len(values)}, keys)
}

// deleteRange serves Table.DeleteRange. On field 0 it is one range
// tombstone — one WAL record, one memtable entry, Deleted = -1 (blind: the
// covered rows are invisible, their count unknown); any other field scans
// for the covered keys and deletes them like deleteIn.
func (l *lsmBackend) deleteRange(_ *statement, field int, lo, hi int64) (*BulkResult, error) {
	if field != 0 {
		keys, err := l.keysWhere(field, func(v int64) bool { return v >= lo && v <= hi })
		if err != nil {
			return nil, err
		}
		return l.commitDelete(&BulkResult{}, keys)
	}
	seq := l.tree.NextSeq()
	var seqBuf [8]byte
	binary.LittleEndian.PutUint64(seqBuf[:], seq)
	if err := l.log(wal.TLSMRangeDel, 0, uint64(lo), uint64(hi), seqBuf[:]); err != nil {
		l.tree.AbandonSeq(seq)
		return nil, err
	}
	l.tree.DeleteRange(lo, hi, seq)
	res, err := l.commitDelete(&BulkResult{}, nil)
	if err == nil {
		res.Deleted = -1
	}
	return res, err
}

// commitDelete is the tail of every LSM delete statement. It logs and
// applies one point tombstone per key as one crash-atomic group: the log may
// spill pages to disk mid-loop, so the records carry a fresh TxID and end
// with a commit record, and replay ignores the group unless the commit made
// it out — a crash deletes every key or none, never a prefix of the list.
// Then it makes the statement's tombstones durable, advances the commit
// epoch (an LSM delete commits exactly like a heap bulk delete does), and
// lets the tree flush/compact if its thresholds say so.
func (l *lsmBackend) commitDelete(res *BulkResult, keys []int64) (*BulkResult, error) {
	db := l.tbl.db
	if len(keys) > 0 {
		tx := db.nextTx()
		for _, k := range keys {
			seq := l.tree.NextSeq()
			if err := l.log(wal.TLSMDel, tx, uint64(k), seq, nil); err != nil {
				l.tree.AbandonSeq(seq)
				return nil, err
			}
			l.tree.DeletePoint(k, seq)
		}
		if _, err := db.log.Append(wal.TCommit, tx, 0, 0, nil); err != nil {
			return nil, err
		}
	}
	if err := db.log.Flush(); err != nil {
		return nil, err
	}
	db.epochs.Commit()
	if err := l.maybeFlush(); err != nil {
		return nil, err
	}
	res.Deleted = int64(len(keys))
	return res, nil
}

// CompactLSM runs the table's triggered compactions to quiescence, then
// keeps force-compacting until no SSTable carries a tombstone — the
// "space fully reclaimed" fixpoint the benchmark measures. It is a no-op
// on heap tables.
func (tbl *Table) CompactLSM() error {
	l, ok := tbl.b.(*lsmBackend)
	if !ok {
		return nil
	}
	// Like Insert: the forced flush must not interleave with a concurrent
	// insert's NextSeq → Put window, or the published flush horizon could
	// cover a not-yet-applied seq.
	tbl.lock.Lock(cc.Exclusive)
	defer tbl.lock.Unlock(cc.Exclusive)
	if err := l.tree.FlushMem(); err != nil {
		return err
	}
	if err := l.tree.DrainTombstones(); err != nil {
		return err
	}
	return tbl.db.restartWAL()
}

// LSMManifest returns the table's current LSM manifest (zero value for
// heap tables) — the level layout tests and tools inspect.
func (tbl *Table) LSMManifest() lsm.Manifest {
	if l, ok := tbl.b.(*lsmBackend); ok {
		return l.tree.Manifest()
	}
	return lsm.Manifest{}
}

// replayLSMRecords replays durable LSM WAL records into the freshly
// reopened trees: a record whose seq is at or below the manifest's
// flushed horizon is already inside an SSTable and is skipped; newer ones
// rebuild the memtable exactly as it was at the crash (order inside the
// log does not matter — every record carries its seq, and both memtable
// replacement and tombstone visibility compare seqs, not arrival order).
// A record logged under a TxID belongs to a multi-record statement and is
// applied only when that TxID's commit record is durable; an uncommitted
// one still has its seq noted, so the seq is never handed out again.
// Returns the number of records applied.
func (db *DB) replayLSMRecords(recs []wal.Record) int {
	committed := make(map[uint64]bool)
	for _, r := range recs {
		if r.Type == wal.TCommit {
			committed[r.TxID] = true
		}
	}
	applied := 0
	for _, r := range recs {
		switch r.Type {
		case wal.TLSMPut, wal.TLSMDel, wal.TLSMRangeDel:
		default:
			continue
		}
		live := r.TxID == 0 || committed[r.TxID]
		name, rest, ok := splitLSMPayload(r.Payload)
		if !ok {
			continue
		}
		var l *lsmBackend
		tbl, ok := db.tables[name]
		if ok {
			l, ok = tbl.b.(*lsmBackend)
		}
		if !ok {
			continue // table since dropped, or not an LSM table's record
		}
		tree := l.tree
		switch r.Type {
		case wal.TLSMPut:
			if len(rest) != l.tbl.schema.Size-lsmKeyLen {
				continue
			}
			tree.NoteReplayedSeq(r.B)
			if live && r.B > tree.FlushedSeq() {
				tree.Put(int64(r.A), rest, r.B)
				applied++
			}
		case wal.TLSMDel:
			tree.NoteReplayedSeq(r.B)
			if live && r.B > tree.FlushedSeq() {
				tree.DeletePoint(int64(r.A), r.B)
				applied++
			}
		case wal.TLSMRangeDel:
			if len(rest) != 8 {
				continue
			}
			seq := binary.LittleEndian.Uint64(rest)
			tree.NoteReplayedSeq(seq)
			if live && seq > tree.FlushedSeq() {
				tree.DeleteRange(int64(r.A), int64(r.B), seq)
				applied++
			}
		}
	}
	return applied
}
