// Epoch-based MVCC snapshot state: the volatile version store that lets
// point lookups, range lookups, and scans proceed while a bulk delete
// holds the table's exclusive lock.
//
// The scheme is deliberately minimal. Deletes are the only versioned
// operation (the paper's workload), and nothing here is durable: a crash
// discards every snapshot, recovery rolls interrupted deletes forward and
// fast-forwards the epoch clock from the catalog + WAL commit count, so
// no durable structure ever references an epoch.
//
//   - Every row's slot carries a volatile *birth* epoch (the clock value
//     when it was inserted; absent = 0 = always visible).
//   - A delete retains each victim's bytes as a *pending* version before
//     tombstoning the slot, and stamps all its pending versions with a
//     fresh commit epoch E at its commit point (§3.1 early release for
//     bulk deletes; the index-maintenance step for single-row deletes).
//   - A reader at snapshot S sees a physical row iff birth ≤ S, and a
//     version iff birth ≤ S and (pending or E > S).
//
// Within one statement this gives repeatable reads: a row visible at the
// statement's first read stays visible (its delete, committing later,
// gets E > S), and a row deleted before the snapshot never reappears.
// Inserts are intentionally weaker — a concurrent insert may become
// visible mid-statement (read-committed for inserts); closing that would
// require stamping births atomically with the physical insert, which the
// delete-centric workload does not need.
package table

import (
	"errors"
	"math"
	"sort"
	"sync"

	"bulkdel/internal/cc"
	"bulkdel/internal/heap"
	"bulkdel/internal/record"
)

// version is one retained pre-delete row image.
type version struct {
	rec   []byte
	birth uint64 // birth epoch of the row the image belongs to
	epoch uint64 // delete commit epoch; 0 = delete still in flight
}

// MVCC is a table's volatile multi-version state. All methods are safe
// for concurrent use.
type MVCC struct {
	// Clock is the DB-wide commit counter shared by every table.
	Clock *cc.EpochClock

	mu       sync.Mutex
	versions map[record.RID][]version
	births   map[record.RID]uint64
	pending  map[uint64][]record.RID // retain token → rids retained under it
	tokenSeq uint64
	retained int64 // lifetime retained-version count, for metrics
	liveByte int64 // bytes held by currently retained versions

}

// NewMVCC returns empty snapshot state bound to a clock.
func NewMVCC(clock *cc.EpochClock) *MVCC {
	return &MVCC{
		Clock:    clock,
		versions: make(map[record.RID][]version),
		births:   make(map[record.RID]uint64),
		pending:  make(map[uint64][]record.RID),
	}
}

// RecordBirth stamps a freshly inserted row with the current epoch. The
// zero epoch is the implicit default, so nothing is stored before the
// first commit ever bumps the clock.
func (m *MVCC) RecordBirth(rid record.RID) {
	e := m.Clock.Current()
	m.mu.Lock()
	if e == 0 {
		// A stale entry from a previous row in a reused slot must not
		// outlive that row.
		delete(m.births, rid)
	} else {
		m.births[rid] = e
	}
	m.mu.Unlock()
}

// ForgetBirth drops the stamp of a row whose insert was taken back.
func (m *MVCC) ForgetBirth(rid record.RID) {
	m.mu.Lock()
	delete(m.births, rid)
	m.mu.Unlock()
}

// NewToken opens a retain set for one deleting statement. Every victim the
// statement retains is grouped under the token and stamped together at
// CommitToken.
func (m *MVCC) NewToken() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tokenSeq++
	return m.tokenSeq
}

// Retain records a victim's pre-delete image as a pending version. Must be
// called before the slot is tombstoned, so no snapshot ever observes the
// row in neither place. The bytes are copied.
func (m *MVCC) Retain(token uint64, rid record.RID, rec []byte) {
	m.mu.Lock()
	m.versions[rid] = append(m.versions[rid], version{
		rec:   append([]byte(nil), rec...),
		birth: m.births[rid],
	})
	m.pending[token] = append(m.pending[token], rid)
	m.retained++
	m.liveByte += int64(len(rec))
	m.mu.Unlock()
}

// CommitToken allocates a fresh commit epoch, stamps every version the
// token retained with it, and returns it. Allocation and stamping happen
// under one mutex hold, so a reader whose snapshot postdates the epoch can
// never observe the versions still pending (they would flicker: pending is
// visible to everyone, the stamped epoch is not).
func (m *MVCC) CommitToken(token uint64) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.Clock.Commit()
	for _, rid := range m.pending[token] {
		vs := m.versions[rid]
		for i := len(vs) - 1; i >= 0; i-- {
			if vs[i].epoch == 0 {
				vs[i].epoch = e
				break
			}
		}
	}
	delete(m.pending, token)
	m.pruneLocked()
	return e
}

// AbortToken discards a token's pending versions — used when a single-row
// delete fails after retaining (the row is still live, so the image must
// not linger as an always-visible pending version).
func (m *MVCC) AbortToken(token uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rid := range m.pending[token] {
		vs := m.versions[rid]
		for i := len(vs) - 1; i >= 0; i-- {
			if vs[i].epoch == 0 {
				m.liveByte -= int64(len(vs[i].rec))
				vs = append(vs[:i], vs[i+1:]...)
				break
			}
		}
		if len(vs) == 0 {
			delete(m.versions, rid)
		} else {
			m.versions[rid] = vs
		}
	}
	delete(m.pending, token)
}

// Prune drops versions no open snapshot can see. Called after commits and
// when a snapshot closes; with no snapshots open it empties the store.
func (m *MVCC) Prune() {
	m.mu.Lock()
	m.pruneLocked()
	m.mu.Unlock()
}

func (m *MVCC) pruneLocked() {
	horizon, ok := m.Clock.Horizon()
	for rid, vs := range m.versions {
		keep := vs[:0]
		for _, v := range vs {
			// Pending versions always stay; a committed version is needed
			// only while some snapshot predates its epoch.
			if v.epoch == 0 || (ok && v.epoch > horizon) {
				keep = append(keep, v)
			} else {
				m.liveByte -= int64(len(v.rec))
			}
		}
		if len(keep) == 0 {
			delete(m.versions, rid)
		} else {
			m.versions[rid] = keep
		}
	}
}

// VisibleVersion returns the retained image visible to snapshot s, if any.
func (m *MVCC) VisibleVersion(rid record.RID, s uint64) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, v := range m.versions[rid] {
		if v.birth <= s && (v.epoch == 0 || v.epoch > s) {
			return v.rec, true
		}
	}
	return nil, false
}

// BirthVisible reports whether the physical row at rid (if live) belongs
// to snapshot s: its birth predates the snapshot.
func (m *MVCC) BirthVisible(rid record.RID, s uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.births[rid] <= s
}

// visibleDeleted calls fn for every retained version visible to s, in
// RID order (deterministic output for scans). fn receives the version's
// bytes; it must not retain them.
func (m *MVCC) visibleDeleted(s uint64, fn func(rid record.RID, rec []byte)) {
	m.mu.Lock()
	rids := make([]record.RID, 0, len(m.versions))
	for rid := range m.versions {
		rids = append(rids, rid)
	}
	sort.Slice(rids, func(i, j int) bool { return rids[i].Less(rids[j]) })
	for _, rid := range rids {
		for _, v := range m.versions[rid] {
			if v.birth <= s && (v.epoch == 0 || v.epoch > s) {
				fn(rid, v.rec)
				break // at most one version of a rid is visible to s
			}
		}
	}
	m.mu.Unlock()
}

// RetainedCount returns the lifetime number of retained versions.
func (m *MVCC) RetainedCount() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.retained
}

// LiveVersions returns the number of currently retained versions.
func (m *MVCC) LiveVersions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.versions)
}

// RetainedBytes returns the bytes currently held by retained versions —
// the version store's live memory footprint. It rises as deletes retain
// pre-images and falls back to zero as pruning drops versions behind the
// snapshot horizon.
func (m *MVCC) RetainedBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.liveByte
}

// Reset discards all snapshot state. Structural passes (repartition,
// rebalance, traditional/drop-create deletes, bulk updates) call it: they
// rewrite RIDs wholesale, and the Structural lock they hold guarantees no
// snapshot reader is open on the table.
func (m *MVCC) Reset() {
	m.mu.Lock()
	m.versions = make(map[record.RID][]version)
	m.births = make(map[record.RID]uint64)
	m.pending = make(map[uint64][]record.RID)
	m.liveByte = 0
	m.mu.Unlock()
}

// ---- Snapshot read paths ----

// SnapshotRow resolves one RID for snapshot s: the retained version if the
// row was deleted after the snapshot, the physical row if its birth
// predates it, nothing otherwise. A slot that vanished resolves through the
// version store (retention runs before tombstoning, so a visible row is
// always in one of the two places); a failed read is returned.
func (t *Table) SnapshotRow(rid record.RID, s uint64) ([]int64, bool, error) {
	m := t.MVCC
	rec, ok := m.VisibleVersion(rid, s)
	if !ok {
		var err error
		if rec, err = t.Heap.Get(rid); err != nil && !errors.Is(err, heap.ErrNoRecord) {
			return nil, false, err
		}
		// The slot vanished (or was truncated) between the version check and
		// the read, or an insert reused it (birth is checked after the read,
		// so the new birth postdates s): whatever this snapshot may see is a
		// version now.
		if ok = err == nil && m.BirthVisible(rid, s); !ok {
			rec, ok = m.VisibleVersion(rid, s)
		}
	}
	if !ok {
		return nil, false, nil
	}
	row, err := t.Schema.Decode(rec)
	return row, err == nil, err
}

// SnapshotLookup emits every row with lo ≤ row[field] ≤ hi (lo == hi is the
// point form) that snapshot s sees, as (rid, row). It is the one place a read
// chooses between the table's index and its heap:
//
//   - the index arm, when an index covers the field and its gate admits the
//     reader (no bulk pass owns the tree): search the tree, resolve each RID
//     with SnapshotRow, then add the rows whose delete postdates the
//     snapshot — their index entries are already gone, only the version
//     store has them. Key order, then those.
//   - the scan arm otherwise: SnapshotScan, filtered.
//
// usedIndex reports the arm. An emitted RID names the snapshot's image of
// the row, which may be a retained version and no longer a live slot.
func (t *Table) SnapshotLookup(field int, lo, hi int64, s uint64, emit func(rid record.RID, row []int64) error) (usedIndex bool, err error) {
	if lo > hi {
		return true, nil
	}
	in := func(row []int64) bool { return lo <= row[field] && row[field] <= hi }
	ix := t.IndexOnField(field)
	if ix == nil || !ix.Gate.TryRead() {
		return false, t.SnapshotScan(s, func(rid record.RID, row []int64) error {
			if !in(row) {
				return nil
			}
			return emit(rid, row)
		})
	}
	var rids []record.RID
	if lo == hi {
		rids, err = ix.Tree.Search(ix.EncodeKey(lo))
	} else {
		// SearchRange's hi bound is exclusive; hi+1 would overflow at the
		// top of the key space, so MaxInt64 becomes an open-ended scan.
		var hiKey []byte
		if hi < math.MaxInt64 {
			hiKey = ix.EncodeKey(hi + 1)
		}
		err = ix.Tree.SearchRange(ix.EncodeKey(lo), hiKey, func(_ []byte, rid record.RID) error {
			rids = append(rids, rid)
			return nil
		})
	}
	ix.Gate.ExitRead()
	if err != nil {
		return true, err
	}
	seen := make(map[record.RID]bool, len(rids))
	for _, rid := range rids {
		row, ok, err := t.SnapshotRow(rid, s)
		if err != nil {
			return true, err
		}
		seen[rid] = true
		// A slot a deleted row left may already hold a new row with a key
		// in range; the snapshot's image is the old row, checked here.
		if ok && in(row) {
			if err := emit(rid, row); err != nil {
				return true, err
			}
		}
	}
	t.MVCC.visibleDeleted(s, func(rid record.RID, rec []byte) {
		if v := t.Schema.Field(rec, field); err != nil || seen[rid] || v < lo || v > hi {
			return
		}
		var row []int64
		if row, err = t.Schema.Decode(rec); err == nil {
			err = emit(rid, row)
		}
	})
	return true, err
}

// SnapshotScan visits every row visible to snapshot s: one physical pass
// over the heap (each live slot resolved live against the version store),
// then the visible versions of rows whose slots were already tombstoned or
// truncated. The emitted set is exact; order is physical for surviving
// rows with retained rows appended in RID order.
func (t *Table) SnapshotScan(s uint64, fn func(rid record.RID, row []int64) error) error {
	m := t.MVCC
	emitted := make(map[record.RID]bool)
	err := t.Heap.Scan(func(rid record.RID, rec []byte) error {
		// Queried live, per slot: a delete may land mid-scan, but it
		// retains before it tombstones, so every visible row is observed
		// in at least one of its two homes; emitted dedupes the overlap.
		if vrec, ok := m.VisibleVersion(rid, s); ok {
			rec = vrec
		} else if !m.BirthVisible(rid, s) {
			return nil
		}
		emitted[rid] = true
		row, err := t.Schema.Decode(rec)
		if err != nil {
			return err
		}
		return fn(rid, row)
	})
	if err != nil {
		return err
	}
	var derr error
	m.visibleDeleted(s, func(rid record.RID, rec []byte) {
		if derr != nil || emitted[rid] {
			return
		}
		row, e := t.Schema.Decode(rec)
		if e != nil {
			derr = e
			return
		}
		derr = fn(rid, row)
	})
	return derr
}
