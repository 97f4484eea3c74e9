// Package table ties a heap file and its B-link indexes into a catalog
// object and implements the paper's two baseline delete strategies:
//
//   - the *traditional* horizontal, record-at-a-time delete (with and
//     without pre-sorting the victim list — the paper's "sorted/trad" and
//     "not sorted/trad"), and
//   - *drop & create*: drop the secondary indexes, delete using only the
//     access-path index, and rebuild the dropped indexes afterwards.
//
// The vertical bulk delete itself — the paper's contribution — lives in
// package core and operates on the Target view exported from here.
package table

import (
	"fmt"
	"sort"

	"bulkdel/internal/btree"
	"bulkdel/internal/buffer"
	"bulkdel/internal/cc"
	"bulkdel/internal/core"
	"bulkdel/internal/heap"
	"bulkdel/internal/keyenc"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
)

// DefaultSortBudget is the working memory used for index builds and victim
// sorting when the caller does not override it — 5 MB, the paper's default
// ("our prototype uses only 10 MB of main memory", half of which the
// experiments grant to sorting; Figures 7/8/10 use 5 MB).
const DefaultSortBudget = 5 << 20

// IndexDef describes one index over a single integer attribute.
type IndexDef struct {
	Name string
	// Field is the attribute position in the schema.
	Field int
	// KeyLen is the encoded key width (>= 8). Wider keys shrink fan-out
	// and grow the tree — the knob of the paper's Experiment 3.
	KeyLen int
	// Unique enforces key uniqueness and forces the index to be
	// processed before the table lock is released (paper §3.1).
	Unique bool
	// Clustered records that the heap is loaded in this attribute's
	// order, so RID order implies key order (paper's Experiment 5).
	Clustered bool
	// Priority ranks application-critical indexes for processing order.
	Priority int
}

// Index is one secondary or primary access path. Gate owns Tree: readers,
// updaters and the bulk pass enter only through it.
type Index struct {
	Def  IndexDef
	Tree *btree.Tree
	Gate *cc.Gate
}

// EncodeKey encodes an attribute value for this index's key width.
func (ix *Index) EncodeKey(v int64) []byte {
	return keyenc.Int64Key(v, ix.Def.KeyLen)
}

// Table is a base table with its indexes. Heap is the storage behind the
// table: one heap file per partition of the table's partition spec (a
// single file without one), whose partitions can live on different
// devices.
type Table struct {
	Name   string
	Schema record.Schema
	Heap   *heap.Heap
	Idx    []*Index
	// Lock is the §3 coarse table lock; a DB replaces the private one with
	// the shared instance from its cc.Manager so ordered multi-table
	// acquisition and the DML entry points contend on one object.
	Lock *cc.TableLock
	// SortBudget is the working memory for index builds and victim sorts.
	SortBudget int
	// MVCC is the table's volatile snapshot-read state, never nil; a DB
	// replaces it with one on its shared epoch clock. See mvcc.go.
	MVCC *MVCC

	pool *buffer.Pool
}

// Create makes an empty table whose heap is split by spec — one partition
// for the zero spec. Partition device placement is the caller's concern
// (see internal/place).
func Create(pool *buffer.Pool, name string, schema record.Schema, spec heap.PartitionSpec) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	h, err := heap.CreateHeap(pool, schema, spec)
	if err != nil {
		return nil, err
	}
	return newTable(pool, name, schema, h), nil
}

// Open reattaches a table to its heap's partition files during crash
// recovery; the caller attaches the reopened indexes to Idx.
func Open(pool *buffer.Pool, name string, schema record.Schema, spec heap.PartitionSpec, files []sim.FileID) (*Table, error) {
	h, err := heap.OpenHeap(pool, files, schema, spec)
	if err != nil {
		return nil, err
	}
	return newTable(pool, name, schema, h), nil
}

// newTable wraps a heap. The lock and the MVCC clock start out private to
// the table; a DB swaps in its manager's lock and its shared clock.
func newTable(pool *buffer.Pool, name string, schema record.Schema, h *heap.Heap) *Table {
	return &Table{
		Name:       name,
		Schema:     schema,
		Heap:       h,
		Lock:       &cc.TableLock{},
		SortBudget: DefaultSortBudget,
		MVCC:       NewMVCC(cc.NewEpochClock()),
		pool:       pool,
	}
}

// Pool returns the table's buffer pool.
func (t *Table) Pool() *buffer.Pool { return t.pool }

// Target builds the bulk-delete executor's view of the table: its heap,
// schema and pool, and every index with its gate.
func (t *Table) Target() *core.Target {
	tgt := &core.Target{Name: t.Name, Heap: t.Heap, Schema: t.Schema, Pool: t.pool}
	for _, ix := range t.Idx {
		tgt.Indexes = append(tgt.Indexes, core.IndexRef{
			Name: ix.Def.Name, Tree: ix.Tree, Field: ix.Def.Field,
			Unique: ix.Def.Unique, Clustered: ix.Def.Clustered,
			Priority: ix.Def.Priority, Gate: ix.Gate,
		})
	}
	return tgt
}

// FindIndex returns the index with the given name, or nil.
func (t *Table) FindIndex(name string) *Index {
	for _, ix := range t.Idx {
		if ix.Def.Name == name {
			return ix
		}
	}
	return nil
}

// IndexOnField returns the first index over the field, or nil.
func (t *Table) IndexOnField(field int) *Index {
	for _, ix := range t.Idx {
		if ix.Def.Field == field {
			return ix
		}
	}
	return nil
}

// Insert puts the record in the heap and an entry in every index: an online
// index directly, an offline one through its side-file (blocking briefly
// when the side-file is quiesced). An index that refuses its entry — a
// unique index the key is already in — fails the insert as a whole: the
// entries made so far, the birth stamp and the heap record are taken back
// before the error is returned.
func (t *Table) Insert(fields []int64) (record.RID, error) {
	rec, err := t.Schema.Encode(fields)
	if err != nil {
		return record.NilRID, err
	}
	rid, err := t.Heap.Insert(rec)
	if err != nil {
		return record.NilRID, err
	}
	// Birth is stamped before any index entry exists, so an index-path
	// snapshot reader that can see the entry always has the birth to
	// filter the row by.
	t.MVCC.RecordBirth(rid)
	for i, ix := range t.Idx {
		err := t.applyIndexOp(ix, cc.Op{Kind: cc.OpInsert, Key: ix.EncodeKey(t.Schema.Field(rec, ix.Def.Field)), RID: rid})
		if err == nil {
			continue
		}
		for _, done := range t.Idx[:i] {
			key := done.EncodeKey(t.Schema.Field(rec, done.Def.Field))
			if uerr := t.applyIndexOp(done, cc.Op{Kind: cc.OpDelete, Key: key, RID: rid}); uerr != nil {
				return record.NilRID, fmt.Errorf("%w (and removing the entry from index %s failed: %v)", err, done.Def.Name, uerr)
			}
		}
		t.MVCC.ForgetBirth(rid)
		if uerr := t.Heap.Delete(rid); uerr != nil {
			return record.NilRID, fmt.Errorf("%w (and removing the record failed: %v)", err, uerr)
		}
		return record.NilRID, err
	}
	return rid, nil
}

// applyIndexOp routes one index maintenance operation through the index's
// gate (cc.Gate.Update): applied to an online tree, queued in an offline
// one's side-file.
func (t *Table) applyIndexOp(ix *Index, op cc.Op) error {
	return ix.Gate.Update(op, func() error { return ApplyOp(ix.Tree, op) })
}

// ApplyOp applies one index maintenance operation to tree. Deleting an
// absent entry is a no-op: the bulk delete may have removed it already.
func ApplyOp(tree *btree.Tree, op cc.Op) error {
	if op.Kind == cc.OpInsert {
		return tree.Insert(op.Key, op.RID)
	}
	if err := tree.Delete(op.Key, op.RID); err != btree.ErrNotFound {
		return err
	}
	return nil
}

// DeleteRow removes one row by RID, maintaining all indexes (side-file
// aware). It reads the record first to compute the index keys.
func (t *Table) DeleteRow(rid record.RID) error {
	rec, err := t.Heap.Get(rid)
	if err != nil {
		return err
	}
	// Retain the image before tombstoning so a concurrent snapshot reader
	// always finds the row in the heap or the version store; the version
	// is stamped with a fresh epoch once the indexes are maintained.
	token := t.MVCC.NewToken()
	t.MVCC.Retain(token, rid, rec)
	if err := t.Heap.Delete(rid); err != nil {
		t.MVCC.AbortToken(token)
		return err
	}
	// The slot is tombstoned: from here the delete commits even if index
	// maintenance fails below, so the retained version must be stamped
	// either way — a version left pending would stay visible to every
	// future snapshot and never prune.
	defer t.MVCC.CommitToken(token)
	for _, ix := range t.Idx {
		key := ix.EncodeKey(t.Schema.Field(rec, ix.Def.Field))
		if err := t.applyIndexOp(ix, cc.Op{Kind: cc.OpDelete, Key: key, RID: rid}); err != nil {
			return err
		}
	}
	return nil
}

// CreateIndex builds a new index over the current table contents: one heap
// scan feeding an external sort feeding a bottom-up bulk load — the
// "create" half of the drop-&-create baseline.
func (t *Table) CreateIndex(def IndexDef) (*Index, error) {
	if def.Field < 0 || def.Field >= t.Schema.NumFields {
		return nil, fmt.Errorf("table %s: index field %d out of range", t.Name, def.Field)
	}
	if def.KeyLen == 0 {
		def.KeyLen = keyenc.Int64Width
	}
	if def.KeyLen < keyenc.Int64Width {
		return nil, fmt.Errorf("table %s: key length %d below %d", t.Name, def.KeyLen, keyenc.Int64Width)
	}
	if t.FindIndex(def.Name) != nil {
		return nil, fmt.Errorf("table %s: index %q already exists", t.Name, def.Name)
	}
	tree, err := btree.Create(t.pool, def.KeyLen, def.Unique)
	if err != nil {
		return nil, err
	}
	ix := &Index{Def: def, Tree: tree, Gate: cc.NewGate()}
	if t.Heap.Count() > 0 {
		if err := t.Target().BuildIndex(tree, def.Field, t.SortBudget); err != nil {
			return nil, err
		}
	}
	t.Idx = append(t.Idx, ix)
	return ix, nil
}

// DropIndex removes an index and its file.
func (t *Table) DropIndex(name string) error {
	for i, ix := range t.Idx {
		if ix.Def.Name == name {
			if err := ix.Tree.Drop(); err != nil {
				return err
			}
			t.Idx = append(t.Idx[:i], t.Idx[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("table %s: no index %q", t.Name, name)
}

// Repartition rebuilds the table's heap under a new partition spec — one
// partition for the zero spec. Every RID changes, so each index is reset
// and rebuilt from the new heap (file IDs and device placements survive).
// The caller holds the table's exclusive lock and re-saves the catalog
// afterwards.
func (t *Table) Repartition(spec heap.PartitionSpec) error {
	ns, err := heap.CreateHeap(t.pool, t.Schema, spec)
	if err != nil {
		return err
	}
	err = t.Heap.Scan(func(_ record.RID, rec []byte) error {
		_, err := ns.Insert(rec)
		return err
	})
	if err != nil {
		_ = ns.Drop()
		return err
	}
	old := t.Heap
	t.Heap = ns
	// Every RID changed; volatile snapshot state would point at garbage.
	// The Structural lock the caller holds guarantees no snapshot reader
	// is open on the table.
	t.MVCC.Reset()
	for _, ix := range t.Idx {
		if err := ix.Tree.ResetEmpty(); err != nil {
			return err
		}
		if t.Heap.Count() > 0 {
			if err := t.Target().BuildIndex(ix.Tree, ix.Def.Field, t.SortBudget); err != nil {
				return err
			}
		}
	}
	if err := old.Drop(); err != nil {
		return err
	}
	return t.Flush()
}

// Flush persists the heap and every index.
func (t *Table) Flush() error {
	if err := t.Heap.Flush(); err != nil {
		return err
	}
	for _, ix := range t.Idx {
		if err := ix.Tree.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// CheckConsistency verifies that the heap and every index agree exactly:
// each live record has one entry per index and no index holds extras. It is
// the integration-test oracle after bulk deletes. It reads each tree through
// its gate, waiting for an index a bulk pass still owns; the caller keeps
// updaters out of the heap.
func (t *Table) CheckConsistency() error {
	for _, ix := range t.Idx {
		ix.Gate.Read()
		err := ix.Tree.CheckInvariants()
		n := ix.Tree.Count()
		ix.Gate.ExitRead()
		if err != nil {
			return fmt.Errorf("table %s index %s: %w", t.Name, ix.Def.Name, err)
		}
		if n != t.Heap.Count() {
			return fmt.Errorf("table %s index %s: %d entries for %d records",
				t.Name, ix.Def.Name, n, t.Heap.Count())
		}
	}
	// Collect heap contents once.
	type pair struct {
		key int64
		rid record.RID
	}
	perIndex := make([][]pair, len(t.Idx))
	err := t.Heap.Scan(func(rid record.RID, rec []byte) error {
		for i, ix := range t.Idx {
			perIndex[i] = append(perIndex[i], pair{key: t.Schema.Field(rec, ix.Def.Field), rid: rid})
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, ix := range t.Idx {
		want := perIndex[i]
		sort.Slice(want, func(a, b int) bool {
			if want[a].key != want[b].key {
				return want[a].key < want[b].key
			}
			return want[a].rid.Less(want[b].rid)
		})
		j := 0
		ix.Gate.Read()
		err := ix.Tree.ScanAll(func(k []byte, rid record.RID) error {
			if j >= len(want) {
				return fmt.Errorf("index %s has extra entry %d/%s", ix.Def.Name, keyenc.Int64(k), rid)
			}
			if keyenc.Int64(k) != want[j].key || rid != want[j].rid {
				return fmt.Errorf("index %s entry %d is (%d,%s), heap says (%d,%s)",
					ix.Def.Name, j, keyenc.Int64(k), rid, want[j].key, want[j].rid)
			}
			j++
			return nil
		})
		ix.Gate.ExitRead()
		if err != nil {
			return fmt.Errorf("table %s: %w", t.Name, err)
		}
		if j != len(want) {
			return fmt.Errorf("table %s index %s: scanned %d entries, heap has %d",
				t.Name, ix.Def.Name, j, len(want))
		}
	}
	return nil
}
