// The table heap: a Heap is one File per partition, the partitions split by
// hash or key range on the table's delete key, each a separate sim file
// placeable on its own device. A table without a partition spec is a
// one-partition Heap.
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
// RIDs stay the engine-wide record address: a heap tags the partition
// ordinal into the high bits of RID.Page (see TagPage), so index entries,
// WAL payloads, and materialized row-file formats are unchanged, and a RID
// list sorted bytewise visits partitions contiguously (partition-major
// order) and pages sequentially within each.
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
// tagged with 0, so a one-partition heap's RIDs are its file's page numbers.
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

// TruncateWith discards every record in the file by releasing its data
// pages — a metadata operation on the simulated disk (the header page
// survives, so the file reopens as an empty heap file). Dirty frames are
// flushed first so the header is durable, then all frames are discarded
// along with the pages. When retain is non-nil, every live record is handed
// to it (keyed by partition-local RID) before the pages are released.
// Retention is unconditional, matching the per-row delete paths: an "any
// snapshot open?" check here — however it is latched — races a reader that
// registers its snapshot after the check but before the delete's commit
// epoch is stamped. That snapshot predates the commit, so it is entitled to
// see every truncated row, yet the rows would be in neither the heap nor the
// version store. The metadata-only fast path therefore survives only with
// retain == nil; with a retention hook, the pass prices itself as the extra
// scan it is.
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
	f.filled = f.filled[:0]
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

// NumParts returns the partition count the spec describes: 1 for the zero
// spec, whose Route sends every key to partition 0.
func (s PartitionSpec) NumParts() int {
	if s.HashParts > 0 {
		return s.HashParts
	}
	return len(s.RangeBounds) + 1
}

// Validate checks the spec against a schema. The zero spec is the
// one-partition heap; a spec that declares partitioning needs at least 2.
func (s PartitionSpec) Validate(schema record.Schema) error {
	if s.HashParts > 0 && len(s.RangeBounds) > 0 {
		return fmt.Errorf("heap: partition spec sets both hash and range")
	}
	n := s.NumParts()
	if n < 2 && s.HashParts != 0 {
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

// Heap is a table's heap: one File per partition of its spec, a single
// file under the zero spec. Its identity (ID) is partition 0's file ID — the
// stable handle WAL records and lock footprints use for the whole heap.
type Heap struct {
	parts  []*File
	spec   PartitionSpec
	schema record.Schema
}

// CreateHeap makes a new heap: one file per partition of the spec. Device
// placement is the caller's concern (see internal/place).
func CreateHeap(pool *buffer.Pool, schema record.Schema, spec PartitionSpec) (*Heap, error) {
	if err := spec.Validate(schema); err != nil {
		return nil, err
	}
	if spec.NumParts() == 1 {
		spec = PartitionSpec{} // one partition routes on no field
	}
	h := &Heap{spec: spec, schema: schema}
	for i := 0; i < spec.NumParts(); i++ {
		f, err := Create(pool, schema.Size)
		if err != nil {
			return nil, err
		}
		h.parts = append(h.parts, f)
	}
	return h, nil
}

// OpenHeap reattaches a heap from its catalog state: the partition file IDs
// in ordinal order plus the spec they were created with.
func OpenHeap(pool *buffer.Pool, ids []sim.FileID, schema record.Schema, spec PartitionSpec) (*Heap, error) {
	if err := spec.Validate(schema); err != nil {
		return nil, err
	}
	if len(ids) != spec.NumParts() {
		return nil, fmt.Errorf("heap: %d partition files for a %d-partition spec", len(ids), spec.NumParts())
	}
	h := &Heap{spec: spec, schema: schema}
	for _, id := range ids {
		f, err := Open(pool, id)
		if err != nil {
			return nil, err
		}
		h.parts = append(h.parts, f)
	}
	return h, nil
}

// Part returns partition i as a one-partition heap: its RIDs are the
// partition file's own, untagged page numbers.
func (h *Heap) Part(i int) *Heap {
	return &Heap{parts: h.parts[i : i+1], schema: h.schema}
}

// ID returns partition 0's file ID — the heap's stable identity.
func (h *Heap) ID() sim.FileID { return h.parts[0].ID() }

// Count returns the number of live records across all partitions.
func (h *Heap) Count() int64 {
	var n int64
	for _, p := range h.parts {
		n += p.Count()
	}
	return n
}

// Spec returns the partitioning spec.
func (h *Heap) Spec() PartitionSpec { return h.spec }

// Parts returns the partition files in ordinal order.
func (h *Heap) Parts() []*File { return h.parts }

// Insert routes the record to its partition by the partition field and
// returns the partition-tagged RID.
func (h *Heap) Insert(rec []byte) (record.RID, error) {
	if len(rec) != h.schema.Size {
		return record.NilRID, fmt.Errorf("heap: record is %d bytes, heap stores %d", len(rec), h.schema.Size)
	}
	part := h.spec.Route(h.schema.Field(rec, h.spec.Field))
	rid, err := h.parts[part].Insert(rec)
	if err != nil {
		return record.NilRID, err
	}
	if rid.Page > pageMask {
		return record.NilRID, fmt.Errorf("heap: partition %d overflows the %d-page partition limit", part, pageMask)
	}
	return record.RID{Page: TagPage(part, rid.Page), Slot: rid.Slot}, nil
}

func (h *Heap) resolve(rid record.RID) (*File, record.RID, error) {
	part, raw := SplitPage(rid.Page)
	if part >= len(h.parts) {
		return nil, record.NilRID, fmt.Errorf("heap: %s names partition %d of %d: %w", rid, part, len(h.parts), ErrNoRecord)
	}
	return h.parts[part], record.RID{Page: raw, Slot: rid.Slot}, nil
}

// Get returns a copy of the record at the tagged RID; ErrNoRecord if it
// holds none.
func (h *Heap) Get(rid record.RID) ([]byte, error) {
	f, raw, err := h.resolve(rid)
	if err != nil {
		return nil, err
	}
	return f.Get(raw)
}

// Delete tombstones the record at the tagged RID.
func (h *Heap) Delete(rid record.RID) error {
	f, raw, err := h.resolve(rid)
	if err != nil {
		return err
	}
	return f.Delete(raw)
}

// Update overwrites the record at the tagged RID in place. The partition
// field must keep a value routing to the same partition.
func (h *Heap) Update(rid record.RID, rec []byte) error {
	f, raw, err := h.resolve(rid)
	if err != nil {
		return err
	}
	if len(rec) == h.schema.Size {
		part, _ := SplitPage(rid.Page)
		if h.spec.Route(h.schema.Field(rec, h.spec.Field)) != part {
			return fmt.Errorf("heap: update moves record across partitions")
		}
	}
	return f.Update(raw, rec)
}

// Scan visits every live record in partition-major, then physical, order —
// exactly the bytewise sort order of the tagged RIDs. The rec slice is only
// valid during the call; fn may re-enter the heap (see File.Scan).
func (h *Heap) Scan(fn func(rid record.RID, rec []byte) error) error {
	for i, p := range h.parts {
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
func (h *Heap) Flush() error {
	for _, p := range h.parts {
		if err := p.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Drop discards every partition file.
func (h *Heap) Drop() error {
	for _, p := range h.parts {
		if err := p.Drop(); err != nil {
			return err
		}
	}
	return nil
}

// Editor gives a bulk operation page-at-a-time access to the heap, so it
// can delete many records on a page with one pin. Seek pins one data page
// (reading it, on a miss, in one run with the pages through upTo),
// DeleteSlot and MarkDirty mutate it, the next Seek (or Close) unpins it.
// Seeks take tagged page numbers and go to a lazily started PageEditor of
// the page's partition, so a RID list in sorted order is one sequential
// pass per partition.
type Editor struct {
	h   *Heap
	eds []*PageEditor
	cur int // partition of the last successful Seek
}

// Edit starts a bulk-edit pass over the heap.
func (h *Heap) Edit() *Editor {
	return &Editor{h: h, eds: make([]*PageEditor, len(h.parts)), cur: -1}
}

// Seek positions the editor on tagged page p and returns the slotted page.
// It reads ahead through upTo only within p's partition: the next
// partition's pages live in another file.
func (e *Editor) Seek(p, upTo sim.PageNo) (page.Slotted, error) {
	part, raw := SplitPage(p)
	upPart, rawUpTo := SplitPage(upTo)
	if upPart != part {
		rawUpTo = raw
	}
	if part >= len(e.h.parts) {
		return page.Slotted{}, fmt.Errorf("heap: seek to page %d names partition %d of %d: %w",
			p, part, len(e.h.parts), ErrPageRange)
	}
	if e.eds[part] == nil {
		ed, err := e.h.parts[part].EditPages()
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

// DeleteSlot tombstones a slot on the currently seeked page.
func (e *Editor) DeleteSlot(slot int) error {
	if e.cur < 0 {
		return fmt.Errorf("heap: DeleteSlot without Seek")
	}
	return e.eds[e.cur].DeleteSlot(slot)
}

// MarkDirty flags the currently seeked page as mutated.
func (e *Editor) MarkDirty() {
	if e.cur >= 0 {
		e.eds[e.cur].MarkDirty()
	}
}

// Close unpins every partition's current page.
func (e *Editor) Close() {
	for _, ed := range e.eds {
		if ed != nil {
			ed.Close()
		}
	}
}
