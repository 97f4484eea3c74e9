// Package heap implements the base table's heap: unordered (or
// load-ordered) storage made of slotted pages, addressed by RID. A table's
// heap is a Heap: one File per partition, a single File for a table
// without a partition spec (see partition.go).
//
// The paper's table R lives in a heap file. Its properties that the
// bulk-delete algorithms exploit are all present here:
//
//   - records never move when other records are deleted (tombstoned slots),
//     so index entries stay valid during a bulk delete;
//   - the file can be scanned sequentially at chained-I/O speed, which is
//     what the hash-based bulk delete does ("all pages of table R are
//     scanned and the RID of each record is probed");
//   - a victim list sorted by RID visits pages in physical order, which is
//     what the sort/merge bulk delete does;
//   - a clustered table is simply a heap file loaded in key order (the
//     paper's "R is sorted by attribute A" scenario of Experiment 5).
//
// Page 0 of each File is a header page holding the record size; data pages
// start at page 1.
package heap

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"bulkdel/internal/buffer"
	"bulkdel/internal/page"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
)

// PageTypeData marks heap data pages.
const PageTypeData = uint8('H')

const headerMagic = 0x48454150 // "HEAP"

// File is one partition's heap file of fixed-size records.
type File struct {
	pool    *buffer.Pool
	id      sim.FileID
	recSize int
	count   int64
	// fsm tracks data pages known to have free space (from deletes or
	// partially filled tails). It is a performance hint, not a source of
	// truth: losing it only costs space reuse, never correctness.
	fsm freeMap
	// tail is the last data page inserts are currently filling.
	tail sim.PageNo
	// filled lists the pages other than the tail that inserts filled since
	// they were last handed to Pool.Retire, which takes them a read-ahead's
	// worth at a time.
	filled []sim.PageNo
	// latch closes the torn-page window between in-place writers and the
	// unlatched readers MVCC snapshot reads admit during a delete: an
	// Insert that triggers a page Compact rewrites live record bytes, so
	// a concurrent Get of the same page could read a half-moved record
	// (see compact_race_test.go). Writers (Insert/Delete/Update/TruncateWith
	// and the bulk editor's DeleteSlot) hold it exclusively; Get and Scan
	// hold it shared per page. Bulk passes' read-only page views skip it —
	// the exclusive table lock excludes every other writer.
	latch sync.RWMutex
	// PageHooks are handed to the page operations of the file's inserts and
	// updates — test interception points; production files leave them zero.
	PageHooks page.Hooks
}

// freeMap is a set of page numbers, one bit per page, that can name its
// lowest member and count a run of consecutive members. Every word below lo
// is zero.
type freeMap struct {
	words []uint64
	lo    int
}

func (m *freeMap) has(p sim.PageNo) bool {
	w := int(p / 64)
	return w < len(m.words) && m.words[w]&(1<<(p%64)) != 0
}

func (m *freeMap) add(p sim.PageNo) {
	w := int(p / 64)
	for len(m.words) <= w {
		m.words = append(m.words, 0)
	}
	m.words[w] |= 1 << (p % 64)
	m.lo = min(m.lo, w)
}

func (m *freeMap) remove(p sim.PageNo) {
	if w := int(p / 64); w < len(m.words) {
		m.words[w] &^= 1 << (p % 64)
	}
}

func (m *freeMap) lowest() (sim.PageNo, bool) {
	for ; m.lo < len(m.words); m.lo++ {
		if w := m.words[m.lo]; w != 0 {
			return sim.PageNo(m.lo*64 + bits.TrailingZeros64(w)), true
		}
	}
	return 0, false
}

// run counts the members p, p+1, ... up to the first page not in the map,
// at most max.
func (m *freeMap) run(p sim.PageNo, max int) int {
	n := 1
	for n < max && m.has(p+sim.PageNo(n)) {
		n++
	}
	return n
}

// Create makes a new heap file for records of recSize bytes.
func Create(pool *buffer.Pool, recSize int) (*File, error) {
	if recSize <= 0 || page.Capacity(recSize) < 1 {
		return nil, fmt.Errorf("heap: unusable record size %d", recSize)
	}
	id := pool.Disk().CreateFile()
	fr, err := pool.NewPage(id) // header page 0
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(fr.Data()[0:], headerMagic)
	binary.LittleEndian.PutUint32(fr.Data()[4:], uint32(recSize))
	pool.Unpin(fr, true)
	return &File{
		pool:    pool,
		id:      id,
		recSize: recSize,
		tail:    sim.InvalidPage,
	}, nil
}

// Open attaches to an existing heap file, validating the header and
// recounting the records (the count and free-space map are volatile).
func Open(pool *buffer.Pool, id sim.FileID) (*File, error) {
	fr, err := pool.Get(id, 0)
	if err != nil {
		return nil, err
	}
	magic := binary.LittleEndian.Uint32(fr.Data()[0:])
	recSize := int(binary.LittleEndian.Uint32(fr.Data()[4:]))
	pool.Unpin(fr, false)
	if magic != headerMagic {
		return nil, fmt.Errorf("heap: file %d is not a heap file", id)
	}
	f := &File{
		pool:    pool,
		id:      id,
		recSize: recSize,
		tail:    sim.InvalidPage,
	}
	cap := page.Capacity(recSize)
	n, err := pool.Disk().NumPages(id)
	if err != nil {
		return nil, err
	}
	for p := sim.PageNo(1); p < n; p++ {
		fr, err := pool.GetForScan(id, p, buffer.FullRun)
		if err != nil {
			return nil, err
		}
		sp := page.Wrap(fr.Data())
		live := sp.LiveCount()
		f.count += int64(live)
		if live < cap {
			f.fsm.add(p)
		}
		pool.Unpin(fr, false)
	}
	return f, nil
}

// ID returns the underlying file ID.
func (f *File) ID() sim.FileID { return f.id }

// RecordSize returns the fixed record size.
func (f *File) RecordSize() int { return f.recSize }

// Count returns the number of live records.
func (f *File) Count() int64 {
	f.latch.RLock()
	defer f.latch.RUnlock()
	return f.count
}

// NumPages returns the file size in pages, including the header page.
func (f *File) NumPages() (sim.PageNo, error) {
	return f.pool.Disk().NumPages(f.id)
}

// Insert stores rec and returns its RID, reusing freed space when known.
func (f *File) Insert(rec []byte) (record.RID, error) {
	if len(rec) != f.recSize {
		return record.NilRID, fmt.Errorf("heap: record is %d bytes, file stores %d", len(rec), f.recSize)
	}
	f.latch.Lock()
	defer f.latch.Unlock()
	// Try pages believed to have space: the tail first, then the FSM.
	try := make([]sim.PageNo, 0, 2)
	if f.tail != sim.InvalidPage {
		try = append(try, f.tail)
	}
	// One candidate per insert, and the lowest page rather than any: the
	// same statements then place the same rows, and a refill works its way
	// up the file instead of hopping over it.
	if p, ok := f.fsm.lowest(); ok && p != f.tail {
		try = append(try, p)
	}
	for _, p := range try {
		if rid, ok, err := f.insertAt(p, rec); ok || err != nil {
			return rid, err
		}
	}
	// Grow the file.
	fr, err := f.pool.NewPage(f.id)
	if err != nil {
		return record.NilRID, err
	}
	sp := page.Wrap(fr.Data())
	sp.Init(PageTypeData)
	slot, ok := sp.Insert(rec)
	if !ok {
		f.pool.Unpin(fr, true)
		return record.NilRID, fmt.Errorf("heap: record of %d bytes does not fit an empty page", len(rec))
	}
	rid := record.RID{Page: fr.Page(), Slot: uint16(slot)}
	f.tail = fr.Page()
	if sp.Fits(f.recSize) {
		f.fsm.add(fr.Page())
	}
	f.pool.Unpin(fr, true)
	f.count++
	f.pool.Disk().ChargeRecords(1)
	return rid, nil
}

// insertAt stores rec on page p, a page believed to have room; ok is false
// when it had none. A page the insert leaves unable to take another record
// leaves the free map, and, unless it is the tail, joins f.filled: no insert
// reads it again until a delete frees a slot. Once a read-ahead's worth of
// pages is filled, the next insertAt retires them before it places its
// record, so a failed write-back fails an insert that changed nothing.
func (f *File) insertAt(p sim.PageNo, rec []byte) (rid record.RID, ok bool, err error) {
	ra := f.pool.ReadAhead()
	if len(f.filled) >= ra {
		if err := f.pool.Retire(f.id, f.filled); err != nil {
			return record.NilRID, false, err
		}
		f.filled = f.filled[:0]
	}
	tail := p == f.tail
	// A refill after a delete works up the free pages: a missed p is read
	// together with the free pages that follow it, in one chained run (the
	// tail has none after it).
	fr, err := f.pool.GetForScan(f.id, p, f.fsm.run(p, ra))
	if err != nil {
		return record.NilRID, false, err
	}
	sp := page.Wrap(fr.Data()).WithHooks(&f.PageHooks)
	slot, ok := sp.Insert(rec)
	if ok && sp.Fits(f.recSize) {
		f.pool.Unpin(fr, true)
	} else {
		f.fsm.remove(p)
		if tail {
			f.tail = sim.InvalidPage
		}
		if !ok {
			f.pool.Unpin(fr, false)
			return record.NilRID, false, nil
		}
		f.pool.Unpin(fr, true)
		if !tail {
			f.filled = append(f.filled, p)
		}
	}
	f.count++
	f.pool.Disk().ChargeRecords(1)
	return record.RID{Page: p, Slot: uint16(slot)}, true, nil
}

// Get returns a copy of the record at rid; ErrNoRecord if it holds none.
func (f *File) Get(rid record.RID) ([]byte, error) {
	f.latch.RLock()
	defer f.latch.RUnlock()
	fr, err := f.pool.Get(f.id, rid.Page)
	if err != nil {
		// The latch keeps a truncate out, so the size is the one the read saw.
		if n, nerr := f.NumPages(); nerr == nil && rid.Page >= n {
			return nil, fmt.Errorf("heap: %s past the end of the file: %w", rid, ErrNoRecord)
		}
		return nil, err
	}
	defer f.pool.Unpin(fr, false)
	sp := page.Wrap(fr.Data())
	if sp.Type() != PageTypeData {
		return nil, fmt.Errorf("heap: page %d is not a data page: %w", rid.Page, ErrNoRecord)
	}
	rec, err := sp.Get(int(rid.Slot))
	if err != nil {
		return nil, fmt.Errorf("heap: %s: %v: %w", rid, err, ErrNoRecord)
	}
	out := make([]byte, len(rec))
	copy(out, rec)
	f.pool.Disk().ChargeRecords(1)
	return out, nil
}

// Delete removes the record at rid. The slot is tombstoned; surviving RIDs
// are unaffected.
func (f *File) Delete(rid record.RID) error {
	f.latch.Lock()
	defer f.latch.Unlock()
	fr, err := f.pool.Get(f.id, rid.Page)
	if err != nil {
		return err
	}
	sp := page.Wrap(fr.Data())
	if err := sp.Delete(int(rid.Slot)); err != nil {
		f.pool.Unpin(fr, false)
		return fmt.Errorf("heap: %s: %w", rid, err)
	}
	f.fsm.add(rid.Page)
	f.pool.Unpin(fr, true)
	f.count--
	f.pool.Disk().ChargeRecords(1)
	return nil
}

// Update overwrites the record at rid in place.
func (f *File) Update(rid record.RID, rec []byte) error {
	if len(rec) != f.recSize {
		return fmt.Errorf("heap: record is %d bytes, file stores %d", len(rec), f.recSize)
	}
	f.latch.Lock()
	defer f.latch.Unlock()
	fr, err := f.pool.Get(f.id, rid.Page)
	if err != nil {
		return err
	}
	sp := page.Wrap(fr.Data()).WithHooks(&f.PageHooks)
	if err := sp.Update(int(rid.Slot), rec); err != nil {
		f.pool.Unpin(fr, false)
		return fmt.Errorf("heap: %s: %w", rid, err)
	}
	f.pool.Unpin(fr, true)
	f.pool.Disk().ChargeRecords(1)
	return nil
}

// Scan calls fn for every live record in physical (RID) order, using
// chained sequential I/O. The rec slice is only valid during the call.
// Returning a non-nil error from fn stops the scan and propagates it.
// fn is invoked on a copy of each page taken under the file latch, never
// with the latch held — so callbacks are free to re-enter latched
// operations (Get, Delete, a nested Scan) on the same heap.
func (f *File) Scan(fn func(rid record.RID, rec []byte) error) error {
	var buf []byte
	for p := sim.PageNo(1); ; p++ {
		// Latched per page, not across the whole scan: in-place writers
		// interleave between pages instead of stalling for the full pass.
		// The page is copied and both the pin and the latch are dropped
		// before fn runs, so the callback may re-enter latched reads (or
		// writes) on this heap without deadlocking against a writer queued
		// between the two read-locks.
		f.latch.RLock()
		// The page count is re-read under the latch each iteration: a
		// whole-partition truncate (which holds the latch exclusively) may
		// release the remaining pages between two iterations, and an MVCC
		// snapshot scan is entitled to keep running through that — the
		// truncated rows reach it through the version store, not an I/O
		// error on a released page.
		n, err := f.pool.Disk().NumPages(f.id)
		if err != nil {
			f.latch.RUnlock()
			return err
		}
		if p >= n {
			f.latch.RUnlock()
			return nil
		}
		fr, err := f.pool.GetForScan(f.id, p, buffer.FullRun)
		if err != nil {
			f.latch.RUnlock()
			return err
		}
		if buf == nil {
			buf = make([]byte, len(fr.Data()))
		}
		copy(buf, fr.Data())
		f.pool.Unpin(fr, false)
		f.latch.RUnlock()
		sp := page.Wrap(buf)
		seen := 0
		for s := 0; s < sp.NumSlots() && err == nil; s++ {
			if !sp.InUse(s) {
				continue
			}
			var rec []byte
			if rec, err = sp.Get(s); err == nil {
				seen++
				err = fn(record.RID{Page: p, Slot: uint16(s)}, rec)
			}
		}
		// One charge per page for the records handed to fn, those of a
		// page the scan stopped on included.
		f.pool.Disk().ChargeRecords(seen)
		if err != nil {
			return err
		}
	}
}

// PageEditor gives a bulk operation direct, page-at-a-time access to the
// heap so it can delete many records on a page with one pin. It visits the
// data pages its caller seeks, in whatever order, and reads each one missing
// from the pool together with the pages the caller says it will seek next.
type PageEditor struct {
	f    *File
	n    sim.PageNo
	cur  sim.PageNo
	fr   *buffer.Frame
	dirt bool
}

// EditPages starts a sequential pass over the heap's data pages.
func (f *File) EditPages() (*PageEditor, error) {
	n, err := f.pool.Disk().NumPages(f.id)
	if err != nil {
		return nil, err
	}
	return &PageEditor{f: f, n: n, cur: 0}, nil
}

// Seek positions the editor on data page p and returns the slotted page. A
// p missing from the pool is read in one chained run with the pages after it
// through upTo (upTo ≤ p reads p alone), so a caller that will seek those
// next finds them resident. The page stays pinned until the next Seek or
// Close.
func (e *PageEditor) Seek(p, upTo sim.PageNo) (page.Slotted, error) {
	if p < 1 || p >= e.n {
		return page.Slotted{}, fmt.Errorf("heap: edit of page %d outside data pages [1,%d): %w", p, e.n, ErrPageRange)
	}
	if e.fr != nil {
		if e.fr.Page() == p {
			return page.Wrap(e.fr.Data()), nil
		}
		e.f.pool.Unpin(e.fr, e.dirt)
		e.fr = nil
		e.dirt = false
	}
	fr, err := e.f.pool.GetForScan(e.f.id, p, int(min(upTo, e.n-1))-int(p)+1)
	if err != nil {
		return page.Slotted{}, err
	}
	e.fr = fr
	e.cur = p
	return page.Wrap(fr.Data()), nil
}

// DeleteSlot tombstones a slot on the currently seeked page. The file
// latch is held for the mutation so concurrent snapshot readers never see
// a torn slot directory.
func (e *PageEditor) DeleteSlot(slot int) error {
	if e.fr == nil {
		return fmt.Errorf("heap: DeleteSlot without Seek")
	}
	e.f.latch.Lock()
	defer e.f.latch.Unlock()
	sp := page.Wrap(e.fr.Data())
	if err := sp.Delete(slot); err != nil {
		return fmt.Errorf("heap: %d.%d: %w", e.cur, slot, err)
	}
	e.dirt = true
	e.fr.MarkDirty() // visible to checkpoint flushes while still pinned
	e.f.count--
	e.f.fsm.add(e.cur)
	e.f.pool.Disk().ChargeRecords(1)
	return nil
}

// MarkDirty flags the currently seeked page as mutated — used by callers
// that update record bytes in place (fixed-width field updates).
func (e *PageEditor) MarkDirty() {
	if e.fr != nil {
		e.dirt = true
		e.fr.MarkDirty()
	}
}

// NumDataPages returns the number of data pages the editor covers.
func (e *PageEditor) NumDataPages() int { return int(e.n) - 1 }

// Close unpins the current page.
func (e *PageEditor) Close() {
	if e.fr != nil {
		e.f.pool.Unpin(e.fr, e.dirt)
		e.fr = nil
		e.dirt = false
	}
}

// Flush writes the heap's dirty pages back to disk.
func (f *File) Flush() error { return f.pool.FlushFile(f.id) }

// Drop discards the heap file entirely.
func (f *File) Drop() error { return f.pool.DropFile(f.id) }
