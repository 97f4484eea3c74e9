package bulkdel

import (
	"encoding/binary"
	"fmt"
	"sort"

	"bulkdel/internal/cc"
	"bulkdel/internal/lsm"
	"bulkdel/internal/record"
	"bulkdel/internal/table"
	"bulkdel/internal/wal"
)

// The LSM storage backend: a second table implementation behind the same
// public Table API. An LSM table keys every row on field 0 (upsert
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
// secondary indexes, MVCC snapshot views, and the ⋈̸ bulk-delete planner
// (tombstones make it unnecessary). Readers instead merge the memtable
// and SSTables (point reads under the tree's own latch; scans snapshot
// their sources and merge latch-free, so scan callbacks may re-enter the
// table); deletes still take the engine's exclusive table lock and
// advance the commit epoch, so the statement lifecycle, observability,
// and locking semantics match the heap backend. Mutations under the
// shared lock (inserts, forced compaction) additionally serialize on the
// table's updMu, exactly like heap inserts: seq allocation, the WAL
// append, the memtable apply, and any flush the mutation triggers must
// form one atomic unit, or a concurrent mutation's flush could publish a
// flushed-seq horizon covering a seq whose record is not yet in the
// memtable — WAL replay would then skip it and the write would vanish
// after a crash.

// BackendLSM is the Options.Backend / Table.Backend() name of the LSM
// storage backend; the zero value selects the heap backend.
const BackendLSM = "lsm"

// Backend reports the table's storage backend: "heap" or "lsm".
func (tbl *Table) Backend() string {
	if tbl.lsm != nil {
		return BackendLSM
	}
	return "heap"
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

// CreateTableLSM adds an LSM-backed table of numFields int64 attributes
// padded to recordSize bytes, keyed on field 0.
func (db *DB) CreateTableLSM(name string, numFields, recordSize int) (*Table, error) {
	if db.crashed.Load() {
		return nil, errCrashed
	}
	schema := record.Schema{NumFields: numFields, Size: recordSize}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	// Backend-specific bounds Schema.Validate has no business knowing:
	// one encoded entry must fit an SSTable data block, and LSM WAL
	// payloads frame the table name with a one-byte length.
	if recordSize > lsm.MaxRecordSize {
		return nil, fmt.Errorf("bulkdel: LSM record size %d exceeds the backend maximum %d", recordSize, lsm.MaxRecordSize)
	}
	if len(name) > 255 {
		return nil, fmt.Errorf("bulkdel: LSM table name is %d bytes; the WAL frame caps names at 255", len(name))
	}
	db.mu.Lock()
	if _, ok := db.tables[name]; ok {
		db.mu.Unlock()
		return nil, fmt.Errorf("bulkdel: table %q already exists", name)
	}
	tree := lsm.New(db.pool, recordSize, lsm.Options{Devices: db.lsmDevices()})
	// The stub table.Table carries the schema and the lock; it has no heap
	// and no indexes — every data path branches to the tree first.
	t := &table.Table{Name: name, Schema: schema}
	t.Lock = db.cc.Lock(name)
	tbl := &Table{db: db, t: t, lsm: tree}
	db.tables[name] = tbl
	db.mu.Unlock()
	// Flushes and compactions commit their manifest through the catalog:
	// the new SSTable set becomes durable in the same write that the old
	// one is forgotten, which is what makes them atomic under a crash.
	tree.SetPersist(db.saveCatalog)
	if err := db.saveCatalog(); err != nil {
		return nil, err
	}
	return tbl, nil
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

// logLSM appends one LSM mutation record when the WAL is on. The record
// is replayed into the memtable by Recover when its seq is newer than the
// manifest's flushed horizon. A single-record statement logs under tx 0
// and is atomic by itself; a record of a multi-record statement carries
// the statement's TxID and is replayed only if that TxID's commit record
// is durable too (see lsmDeleteKeys).
func (tbl *Table) logLSM(t wal.Type, tx, a, b uint64, rest []byte) error {
	if tbl.db.log == nil {
		return nil
	}
	_, err := tbl.db.log.Append(t, tx, a, b, lsmPayload(tbl.t.Name, rest))
	return err
}

// lsmInsert adds (or overwrites) the row keyed on fields[0].
func (tbl *Table) lsmInsert(fields []int64) (RID, error) {
	if len(fields) == 0 {
		return record.NilRID, fmt.Errorf("bulkdel: LSM table %s: insert needs at least the key field", tbl.t.Name)
	}
	rec, err := tbl.t.Schema.Encode(fields)
	if err != nil {
		return record.NilRID, err
	}
	tbl.t.Lock.LockShared()
	defer tbl.t.Lock.UnlockShared()
	// updMu makes NextSeq → WAL append → Put → MaybeFlush one atomic unit
	// against the other shared-lock mutators (inserts, CompactLSM); see
	// the file comment. Delete statements hold the table exclusively, so
	// they cannot interleave here either.
	tbl.updMu.Lock()
	defer tbl.updMu.Unlock()
	key := fields[0]
	seq := tbl.lsm.NextSeq()
	if err := tbl.logLSM(wal.TLSMPut, 0, uint64(key), seq, rec); err != nil {
		tbl.lsm.AbandonSeq(seq)
		return record.NilRID, err
	}
	tbl.lsm.Put(key, rec, seq)
	if err := tbl.lsm.MaybeFlush(); err != nil {
		return record.NilRID, err
	}
	return record.NilRID, nil
}

// lsmCount counts visible rows via a merged scan.
func (tbl *Table) lsmCount() (int64, error) {
	tbl.t.Lock.LockShared()
	defer tbl.t.Lock.UnlockShared()
	return tbl.lsm.Count()
}

// lsmLookup serves Table.Lookup: a point read on field 0, a filtered
// merged scan on any other field.
func (tbl *Table) lsmLookup(field int, v int64) ([][]int64, error) {
	tbl.t.Lock.LockShared()
	defer tbl.t.Lock.UnlockShared()
	if field == 0 {
		rec, ok, err := tbl.lsm.Get(v)
		if err != nil || !ok {
			return nil, err
		}
		vals, err := tbl.t.Schema.Decode(rec)
		if err != nil {
			return nil, err
		}
		return [][]int64{vals}, nil
	}
	var out [][]int64
	err := tbl.lsm.Scan(func(_ int64, rec []byte) error {
		if tbl.t.Schema.Field(rec, field) != v {
			return nil
		}
		vals, err := tbl.t.Schema.Decode(rec)
		if err != nil {
			return err
		}
		out = append(out, vals)
		return nil
	})
	return out, err
}

// lsmLookupRange serves Table.LookupRange: a key-range merge on field 0,
// a filtered merged scan otherwise. Results arrive in key order.
func (tbl *Table) lsmLookupRange(field int, lo, hi int64) ([][]int64, error) {
	if lo > hi {
		return nil, nil
	}
	tbl.t.Lock.LockShared()
	defer tbl.t.Lock.UnlockShared()
	var out [][]int64
	emit := func(rec []byte) error {
		vals, err := tbl.t.Schema.Decode(rec)
		if err != nil {
			return err
		}
		out = append(out, vals)
		return nil
	}
	if field == 0 {
		err := tbl.lsm.ScanRange(lo, hi, func(_ int64, rec []byte) error {
			return emit(rec)
		})
		return out, err
	}
	err := tbl.lsm.Scan(func(_ int64, rec []byte) error {
		if v := tbl.t.Schema.Field(rec, field); v >= lo && v <= hi {
			return emit(rec)
		}
		return nil
	})
	return out, err
}

// lsmScan serves Table.Scan in key order. LSM rows have no RIDs; fn
// receives record.NilRID.
func (tbl *Table) lsmScan(fn func(rid RID, fields []int64) error) error {
	tbl.t.Lock.LockShared()
	defer tbl.t.Lock.UnlockShared()
	return tbl.lsm.Scan(func(_ int64, rec []byte) error {
		vals, err := tbl.t.Schema.Decode(rec)
		if err != nil {
			return err
		}
		return fn(record.NilRID, vals)
	})
}

// lsmBulkDelete serves Table.BulkDelete on an LSM table: every victim
// becomes a point tombstone. Victims on field 0 are probed first (so the
// result counts rows that actually existed and absent keys cost no
// tombstone); other fields collect their matching keys with one merged
// scan. The statement runs under the exclusive table lock, logs its
// tombstones as one crash-atomic group (lsmDeleteKeys), flushes the log at
// commit, and advances the commit epoch like any other committed delete.
func (tbl *Table) lsmBulkDelete(field int, values []int64, opts BulkOptions) (*BulkResult, error) {
	stmt, held, err := tbl.db.beginStatementTimeout("bulk-delete", tbl.t.Name,
		[]cc.Claim{{Table: tbl.t.Name, Mode: cc.Exclusive}}, opts.LockWait)
	if err != nil {
		return nil, fmt.Errorf("bulkdel: bulk delete on %s: %w", tbl.t.Name, err)
	}
	defer tbl.db.endStatement(stmt, held)
	res := &BulkResult{Victims: len(values)}

	var keys []int64
	if field == 0 {
		for _, v := range values {
			_, ok, err := tbl.lsm.Get(v)
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
		err := tbl.lsm.Scan(func(key int64, rec []byte) error {
			if want[tbl.t.Schema.Field(rec, field)] {
				keys = append(keys, key)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if err := tbl.lsmDeleteKeys(keys); err != nil {
		return nil, err
	}
	res.Deleted = int64(len(keys))
	if err := tbl.lsmCommitDelete(); err != nil {
		return nil, err
	}
	return res, nil
}

// lsmDeleteKeys logs and applies one point tombstone per key as one
// crash-atomic group: the log may spill pages to disk mid-loop, so the
// records carry a fresh TxID and end with a commit record, and replay
// ignores the group unless the commit made it out — a crash deletes every
// key or none, never a prefix of the list. The caller flushes the log.
func (tbl *Table) lsmDeleteKeys(keys []int64) error {
	if len(keys) == 0 {
		return nil
	}
	var tx uint64
	if tbl.db.log != nil {
		tx = tbl.db.nextTx()
	}
	for _, k := range keys {
		seq := tbl.lsm.NextSeq()
		if err := tbl.logLSM(wal.TLSMDel, tx, uint64(k), seq, nil); err != nil {
			tbl.lsm.AbandonSeq(seq)
			return err
		}
		tbl.lsm.DeletePoint(k, seq)
	}
	if tbl.db.log != nil {
		if _, err := tbl.db.log.Append(wal.TCommit, tx, 0, 0, nil); err != nil {
			return err
		}
	}
	return nil
}

// DeleteRange deletes every row whose field value lies in [lo, hi], both
// bounds inclusive.
//
// On an LSM table with field == 0 this is the backend's signature move:
// one range tombstone is logged and dropped into the memtable — O(1)
// foreground I/O regardless of how many rows the range covers — and the
// result's Deleted is -1 (a blind delete does not know the count; the
// covered rows disappear from every read immediately and their space is
// reclaimed by delete-aware compaction within TombstoneTTL flushes).
// Non-key fields fall back to a merged scan issuing point tombstones.
//
// On a heap table the range is resolved to its distinct field values and
// handed to the regular ⋈̸ BulkDelete machinery.
func (tbl *Table) DeleteRange(field int, lo, hi int64, opts BulkOptions) (*BulkResult, error) {
	if tbl.db.crashed.Load() {
		return nil, errCrashed
	}
	if lo > hi {
		return &BulkResult{}, nil
	}
	if tbl.lsm == nil {
		rows, err := tbl.LookupRange(field, lo, hi)
		if err != nil {
			return nil, err
		}
		seen := make(map[int64]bool, len(rows))
		vals := make([]int64, 0, len(rows))
		for _, row := range rows {
			if v := row[field]; !seen[v] {
				seen[v] = true
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return &BulkResult{}, nil
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		return tbl.BulkDelete(field, vals, opts)
	}

	stmt, held, err := tbl.db.beginStatementTimeout("bulk-delete", tbl.t.Name,
		[]cc.Claim{{Table: tbl.t.Name, Mode: cc.Exclusive}}, opts.LockWait)
	if err != nil {
		return nil, fmt.Errorf("bulkdel: range delete on %s: %w", tbl.t.Name, err)
	}
	defer tbl.db.endStatement(stmt, held)
	res := &BulkResult{}
	if field == 0 {
		seq := tbl.lsm.NextSeq()
		var seqBuf [8]byte
		binary.LittleEndian.PutUint64(seqBuf[:], seq)
		if err := tbl.logLSM(wal.TLSMRangeDel, 0, uint64(lo), uint64(hi), seqBuf[:]); err != nil {
			tbl.lsm.AbandonSeq(seq)
			return nil, err
		}
		tbl.lsm.DeleteRange(lo, hi, seq)
		res.Deleted = -1 // blind: covered rows are invisible, count unknown
	} else {
		var keys []int64
		err := tbl.lsm.Scan(func(key int64, rec []byte) error {
			if v := tbl.t.Schema.Field(rec, field); v >= lo && v <= hi {
				keys = append(keys, key)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if err := tbl.lsmDeleteKeys(keys); err != nil {
			return nil, err
		}
		res.Deleted = int64(len(keys))
	}
	if err := tbl.lsmCommitDelete(); err != nil {
		return nil, err
	}
	return res, nil
}

// lsmCommitDelete is the tail of every LSM delete statement: make the
// tombstones durable, advance the commit epoch (an LSM delete commits
// exactly like a heap bulk delete does), and let the tree flush/compact
// if its thresholds say so.
func (tbl *Table) lsmCommitDelete() error {
	if tbl.db.log != nil {
		if err := tbl.db.log.Flush(); err != nil {
			return err
		}
	}
	tbl.db.epochs.Commit()
	return tbl.lsm.MaybeFlush()
}

// CompactLSM runs the table's triggered compactions to quiescence, then
// keeps force-compacting until no SSTable carries a tombstone — the
// "space fully reclaimed" fixpoint the benchmark measures. It is a no-op
// on heap tables.
func (tbl *Table) CompactLSM() error {
	if tbl.lsm == nil {
		return nil
	}
	tbl.t.Lock.LockShared()
	defer tbl.t.Lock.UnlockShared()
	// Like lsmInsert: the forced flush must not interleave with a
	// concurrent insert's NextSeq → Put window, or the published flush
	// horizon could cover a not-yet-applied seq.
	tbl.updMu.Lock()
	defer tbl.updMu.Unlock()
	if err := tbl.lsm.FlushMem(); err != nil {
		return err
	}
	return tbl.lsm.DrainTombstones()
}

// LSMManifest returns the table's current LSM manifest (zero value for
// heap tables) — the level layout tests and tools inspect.
func (tbl *Table) LSMManifest() lsm.Manifest {
	if tbl.lsm == nil {
		return lsm.Manifest{}
	}
	return tbl.lsm.Manifest()
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
		tbl := db.tables[name]
		if tbl == nil || tbl.lsm == nil {
			continue
		}
		tree := tbl.lsm
		switch r.Type {
		case wal.TLSMPut:
			if len(rest) != tbl.t.Schema.Size {
				continue
			}
			tree.NoteReplayedSeq(r.B)
			if live && r.B > tree.FlushedSeq() {
				tree.Put(int64(r.A), append([]byte(nil), rest...), r.B)
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
