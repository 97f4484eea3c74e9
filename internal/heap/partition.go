// Partitioned heap storage: the base table's heap split into N partitions
// by hash or key range on the table's delete key, each partition a separate
// sim file placeable on its own device.
//
// The paper's thesis is that a bulk delete goes fast when the victim list
// is laid out to match the physical structure it is applied to. Partitioning
// the heap on the delete key extends that to the base table itself:
//
//   - each partition is an independent sequential pass, so the heap ⋈̸ can
//     run one DAG node per partition across the device array instead of one
//     serial scan on a single spindle;
//   - key-range partitioning aligns whole key ranges with whole files, so a
//     delete that covers a partition's entire range drops the partition's
//     data pages as a metadata operation and never scans them.
//
// RIDs stay the engine-wide record address: a partitioned heap tags the
// partition ordinal into the high bits of RID.Page (see TagPage), so index
// entries, WAL payloads, and materialized row-file formats are unchanged,
// and a RID list sorted bytewise visits partitions contiguously
// (partition-major order) and pages sequentially within each.
package heap

import (
	"errors"
	"fmt"

	"bulkdel/internal/buffer"
	"bulkdel/internal/page"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
)

// partShift is the bit position of the partition tag within a RID's page
// number: pages 0..2^24-1 address within a partition, bits 24..31 name the
// partition. A single partition file is capped at 16M pages (64 GiB) and a
// table at 256 partitions — both far beyond what the simulation exercises.
const partShift = 24

// MaxPartitions is the largest partition count a spec may request.
const MaxPartitions = 1 << (32 - partShift)

const pageMask = sim.PageNo(1)<<partShift - 1

// TagPage encodes a partition ordinal into a partition-local page number,
// yielding the external page number stored in RIDs. Partition 0's pages are
// tagged with 0, so a single-file heap's RIDs are their own tagged form.
func TagPage(part int, p sim.PageNo) sim.PageNo {
	return p | sim.PageNo(part)<<partShift
}

// SplitPage decodes an external page number into (partition ordinal,
// partition-local page number).
func SplitPage(p sim.PageNo) (int, sim.PageNo) {
	return int(p >> partShift), p & pageMask
}

// ErrPageRange reports a page-editor seek outside the file's data pages.
// Bulk-delete resume probes RIDs whose pages a whole-partition truncate may
// already have released; it distinguishes that from corruption via this
// sentinel.
var ErrPageRange = errors.New("page outside data pages")

// ErrNoRecord reports a Get of a RID that holds no record: a dead or
// never-used slot, or a page a truncate released. Any other Get error is a
// failed read, not an answer.
var ErrNoRecord = errors.New("no record at RID")

// Editor is the page-at-a-time bulk-edit interface over a Store: Seek pins
// one data page (reading it, on a miss, in one run with the pages through
// upTo), DeleteSlot/MarkDirty mutate it, the next Seek (or Close) unpins it.
// *PageEditor implements it for a single file; a partitioned store routes
// seeks to per-partition editors by the page's partition tag.
type Editor interface {
	Seek(p, upTo sim.PageNo) (page.Slotted, error)
	DeleteSlot(slot int) error
	MarkDirty()
	Close()
}

// Store is the heap abstraction the engine operates on — either a single
// *File or a *Partitioned set of files. All record addresses crossing this
// interface are external (partition-tagged) RIDs.
type Store interface {
	ID() sim.FileID
	RecordSize() int
	Count() int64
	Insert(rec []byte) (record.RID, error)
	Get(rid record.RID) ([]byte, error)
	Delete(rid record.RID) error
	Update(rid record.RID, rec []byte) error
	Scan(fn func(rid record.RID, rec []byte) error) error
	Edit() (Editor, error)
	// Parts returns the underlying partition files in ordinal order; a
	// single-file heap returns itself as the only partition.
	Parts() []*File
	Flush() error
	Drop() error
}

// Edit starts a bulk-edit pass over a single-file heap (EditPages behind
// the Store interface).
func (f *File) Edit() (Editor, error) {
	ed, err := f.EditPages()
	if err != nil {
		return nil, err
	}
	return ed, nil
}

// Parts returns the file itself as partition 0.
func (f *File) Parts() []*File { return []*File{f} }

// Truncate discards every record in the heap by releasing its data pages —
// a metadata operation on the simulated disk (the header page survives, so
// the file reopens as an empty heap). Dirty frames are flushed first so the
// header is durable, then all frames are discarded along with the pages.
func (f *File) Truncate() error {
	f.latch.Lock()
	defer f.latch.Unlock()
	return f.truncateLocked()
}

// TruncateWith is Truncate with MVCC retention: when retain is non-nil,
// every live record is handed to it (keyed by partition-local RID) before
// the pages are released. Retention is unconditional, matching the
// per-row delete paths: an "any snapshot open?" check here — however it
// is latched — races a reader that registers its snapshot after the
// check but before the delete's commit epoch is stamped. That snapshot
// predates the commit, so it is entitled to see every truncated row, yet
// the rows would be in neither the heap nor the version store. The
// metadata-only fast path therefore survives only with snapshot reads
// off (retain == nil); with MVCC on, the retention pass prices itself as
// the extra scan it is.
func (f *File) TruncateWith(retain func(rid record.RID, rec []byte)) error {
	f.latch.Lock()
	defer f.latch.Unlock()
	if retain != nil {
		n, err := f.pool.Disk().NumPages(f.id)
		if err != nil {
			return err
		}
		for p := sim.PageNo(1); p < n; p++ {
			fr, err := f.pool.GetForScan(f.id, p, buffer.FullRun)
			if err != nil {
				return err
			}
			sp := page.Wrap(fr.Data())
			for s := 0; s < sp.NumSlots(); s++ {
				if !sp.InUse(s) {
					continue
				}
				rec, err := sp.Get(s)
				if err != nil {
					f.pool.Unpin(fr, false)
					return err
				}
				f.pool.Disk().ChargeRecords(1)
				retain(record.RID{Page: p, Slot: uint16(s)}, rec)
			}
			f.pool.Unpin(fr, false)
		}
	}
	return f.truncateLocked()
}

func (f *File) truncateLocked() error {
	if err := f.pool.FlushFile(f.id); err != nil {
		return err
	}
	f.pool.Invalidate(f.id)
	if err := f.pool.Disk().TruncateFile(f.id, 1); err != nil {
		return err
	}
	f.count = 0
	f.fsm = freeMap{}
	f.tail = sim.InvalidPage
	return nil
}

// PartitionSpec declares how a table's heap is split. Exactly one of
// HashParts / RangeBounds is set.
type PartitionSpec struct {
	// Field is the attribute partitioning routes on — the table's primary
	// or expected delete key.
	Field int
	// HashParts > 0 selects hash partitioning into that many partitions.
	HashParts int
	// RangeBounds selects key-range partitioning: partition i holds keys
	// below RangeBounds[i]; the final partition is unbounded above, so
	// len(RangeBounds) bounds yield len(RangeBounds)+1 partitions. Bounds
	// must be strictly increasing.
	RangeBounds []int64
}

// NumParts returns the partition count the spec describes (0 if unset).
func (s PartitionSpec) NumParts() int {
	if s.HashParts > 0 {
		return s.HashParts
	}
	if len(s.RangeBounds) > 0 {
		return len(s.RangeBounds) + 1
	}
	return 0
}

// Validate checks the spec against a schema.
func (s PartitionSpec) Validate(schema record.Schema) error {
	if s.HashParts > 0 && len(s.RangeBounds) > 0 {
		return fmt.Errorf("heap: partition spec sets both hash and range")
	}
	n := s.NumParts()
	if n < 2 {
		return fmt.Errorf("heap: partition spec needs at least 2 partitions")
	}
	if n > MaxPartitions {
		return fmt.Errorf("heap: %d partitions exceeds the maximum %d", n, MaxPartitions)
	}
	if s.Field < 0 || s.Field >= schema.NumFields {
		return fmt.Errorf("heap: partition field %d out of range", s.Field)
	}
	for i := 1; i < len(s.RangeBounds); i++ {
		if s.RangeBounds[i] <= s.RangeBounds[i-1] {
			return fmt.Errorf("heap: range bounds must be strictly increasing")
		}
	}
	return nil
}

// Route returns the partition ordinal for a key value.
func (s PartitionSpec) Route(v int64) int {
	if s.HashParts > 0 {
		return int(uint64(v) % uint64(s.HashParts))
	}
	lo, hi := 0, len(s.RangeBounds)
	for lo < hi { // first bound strictly above v
		mid := (lo + hi) / 2
		if v < s.RangeBounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Range returns partition p's key interval [lo, hi) for a range spec; ok is
// false for hash specs (hash partitions hold no contiguous range). The
// first partition's lo and the last partition's hi are unbounded (math
// min/max int64).
func (s PartitionSpec) Range(p int) (lo, hi int64, ok bool) {
	if len(s.RangeBounds) == 0 || p < 0 || p > len(s.RangeBounds) {
		return 0, 0, false
	}
	lo = int64(-1 << 63)
	hi = int64(1<<63 - 1)
	if p > 0 {
		lo = s.RangeBounds[p-1]
	}
	if p < len(s.RangeBounds) {
		hi = s.RangeBounds[p]
	}
	return lo, hi, true
}

// Partitioned is a heap Store made of one File per partition. Its identity
// (ID) is partition 0's file ID — the stable handle WAL records and lock
// footprints use for the whole store.
type Partitioned struct {
	parts  []*File
	spec   PartitionSpec
	schema record.Schema
}

// CreatePartitioned makes a new partitioned heap: one file per partition of
// the spec. Device placement is the caller's concern (see internal/place).
func CreatePartitioned(pool *buffer.Pool, schema record.Schema, spec PartitionSpec) (*Partitioned, error) {
	if err := spec.Validate(schema); err != nil {
		return nil, err
	}
	ph := &Partitioned{spec: spec, schema: schema}
	for i := 0; i < spec.NumParts(); i++ {
		f, err := Create(pool, schema.Size)
		if err != nil {
			return nil, err
		}
		ph.parts = append(ph.parts, f)
	}
	return ph, nil
}

// OpenPartitioned reattaches a partitioned heap from its catalog state: the
// partition file IDs in ordinal order plus the spec they were created with.
func OpenPartitioned(pool *buffer.Pool, ids []sim.FileID, schema record.Schema, spec PartitionSpec) (*Partitioned, error) {
	if err := spec.Validate(schema); err != nil {
		return nil, err
	}
	if len(ids) != spec.NumParts() {
		return nil, fmt.Errorf("heap: %d partition files for a %d-partition spec", len(ids), spec.NumParts())
	}
	ph := &Partitioned{spec: spec, schema: schema}
	for _, id := range ids {
		f, err := Open(pool, id)
		if err != nil {
			return nil, err
		}
		ph.parts = append(ph.parts, f)
	}
	return ph, nil
}

// ID returns partition 0's file ID — the store's stable identity.
func (ph *Partitioned) ID() sim.FileID { return ph.parts[0].ID() }

// RecordSize returns the fixed record size.
func (ph *Partitioned) RecordSize() int { return ph.parts[0].RecordSize() }

// Count returns the number of live records across all partitions.
func (ph *Partitioned) Count() int64 {
	var n int64
	for _, p := range ph.parts {
		n += p.Count()
	}
	return n
}

// Spec returns the partitioning spec.
func (ph *Partitioned) Spec() PartitionSpec { return ph.spec }

// Parts returns the partition files in ordinal order.
func (ph *Partitioned) Parts() []*File { return ph.parts }

// PartForKey returns the partition ordinal the spec routes a key to.
func (ph *Partitioned) PartForKey(v int64) int { return ph.spec.Route(v) }

// Insert routes the record to its partition by the partition field and
// returns the partition-tagged RID.
func (ph *Partitioned) Insert(rec []byte) (record.RID, error) {
	if len(rec) != ph.RecordSize() {
		return record.NilRID, fmt.Errorf("heap: record is %d bytes, store holds %d", len(rec), ph.RecordSize())
	}
	part := ph.spec.Route(ph.schema.Field(rec, ph.spec.Field))
	rid, err := ph.parts[part].Insert(rec)
	if err != nil {
		return record.NilRID, err
	}
	if rid.Page > pageMask {
		return record.NilRID, fmt.Errorf("heap: partition %d overflows the %d-page partition limit", part, pageMask)
	}
	return record.RID{Page: TagPage(part, rid.Page), Slot: rid.Slot}, nil
}

func (ph *Partitioned) resolve(rid record.RID) (*File, record.RID, error) {
	part, raw := SplitPage(rid.Page)
	if part >= len(ph.parts) {
		return nil, record.NilRID, fmt.Errorf("heap: %s names partition %d of %d", rid, part, len(ph.parts))
	}
	return ph.parts[part], record.RID{Page: raw, Slot: rid.Slot}, nil
}

// Get returns a copy of the record at the tagged RID.
func (ph *Partitioned) Get(rid record.RID) ([]byte, error) {
	f, raw, err := ph.resolve(rid)
	if err != nil {
		return nil, err
	}
	return f.Get(raw)
}

// Delete tombstones the record at the tagged RID.
func (ph *Partitioned) Delete(rid record.RID) error {
	f, raw, err := ph.resolve(rid)
	if err != nil {
		return err
	}
	return f.Delete(raw)
}

// Update overwrites the record at the tagged RID in place. The partition
// field must keep a value routing to the same partition.
func (ph *Partitioned) Update(rid record.RID, rec []byte) error {
	f, raw, err := ph.resolve(rid)
	if err != nil {
		return err
	}
	if len(rec) == ph.RecordSize() {
		part, _ := SplitPage(rid.Page)
		if ph.spec.Route(ph.schema.Field(rec, ph.spec.Field)) != part {
			return fmt.Errorf("heap: update moves record across partitions")
		}
	}
	return f.Update(raw, rec)
}

// Scan visits every live record in partition-major, then physical, order —
// exactly the bytewise sort order of the tagged RIDs.
func (ph *Partitioned) Scan(fn func(rid record.RID, rec []byte) error) error {
	for i, p := range ph.parts {
		err := p.Scan(func(rid record.RID, rec []byte) error {
			return fn(record.RID{Page: TagPage(i, rid.Page), Slot: rid.Slot}, rec)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Flush writes every partition's dirty pages back.
func (ph *Partitioned) Flush() error {
	for _, p := range ph.parts {
		if err := p.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Drop discards every partition file.
func (ph *Partitioned) Drop() error {
	for _, p := range ph.parts {
		if err := p.Drop(); err != nil {
			return err
		}
	}
	return nil
}

// Edit starts a bulk-edit pass over the store: seeks take tagged page
// numbers and are routed to a lazily opened per-partition editor. A RID
// list in sorted order degenerates to one sequential pass per partition.
func (ph *Partitioned) Edit() (Editor, error) {
	return &partEditor{ph: ph, eds: make([]*PageEditor, len(ph.parts)), cur: -1}, nil
}

type partEditor struct {
	ph  *Partitioned
	eds []*PageEditor
	cur int // partition of the last successful Seek
}

// Seek reads ahead through upTo only within p's partition: the next
// partition's pages live in another file.
func (e *partEditor) Seek(p, upTo sim.PageNo) (page.Slotted, error) {
	part, raw := SplitPage(p)
	upPart, rawUpTo := SplitPage(upTo)
	if upPart != part {
		rawUpTo = raw
	}
	if part >= len(e.ph.parts) {
		return page.Slotted{}, fmt.Errorf("heap: seek to page %d names partition %d of %d: %w",
			p, part, len(e.ph.parts), ErrPageRange)
	}
	if e.eds[part] == nil {
		ed, err := e.ph.parts[part].EditPages()
		if err != nil {
			return page.Slotted{}, err
		}
		e.eds[part] = ed
	}
	sp, err := e.eds[part].Seek(raw, rawUpTo)
	if err != nil {
		return page.Slotted{}, err
	}
	e.cur = part
	return sp, nil
}

func (e *partEditor) DeleteSlot(slot int) error {
	if e.cur < 0 {
		return fmt.Errorf("heap: DeleteSlot without Seek")
	}
	return e.eds[e.cur].DeleteSlot(slot)
}

func (e *partEditor) MarkDirty() {
	if e.cur >= 0 {
		e.eds[e.cur].MarkDirty()
	}
}

func (e *partEditor) Close() {
	for _, ed := range e.eds {
		if ed != nil {
			ed.Close()
		}
	}
}
