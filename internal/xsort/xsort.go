// Package xsort implements k-way external merge sort for fixed-width rows
// under a byte budget.
//
// The sort/merge bulk-delete plans of the paper (§2.2.1, Figure 3) sort the
// victim lists — keys extracted from table D, RIDs produced by the first
// bulk-delete operator, ⟨B,RID⟩ / ⟨C,RID⟩ pairs for the secondary indexes —
// so that each subsequent bulk delete visits its table or index in physical
// order. The paper stresses that "only the (small) lists of keys and RIDs
// need to be sorted", and that with enough memory the sort is a single
// in-memory pass; when the victim list outgrows the budget, runs are
// spilled to disk and merged, exactly like a classic sort/merge join build.
//
// Rows are opaque fixed-width byte strings compared with a caller-supplied
// comparator, or in byte order when it is nil. In memory they sit packed in
// one buffer, with a small fixed-size entry per row that the sort moves: in
// byte order the entry carries the row's first 16 bytes as big-endian
// integers, so most comparisons never touch the row. slices.SortFunc orders
// the entries with the pdqsort package sort runs on a slice of rows; given
// the same comparison results it makes the same comparisons, so the compares
// charged to the simulated clock do not depend on the layout. Spilled runs
// are RowFiles, regions of one temporary file on the simulated disk, so that
// the I/O they cause is priced into the experiment clock; SpillCost prices
// that I/O ahead of a sort.
package xsort

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"bulkdel/internal/sim"
)

// Sorter accumulates rows and produces them in sorted order.
type Sorter struct {
	disk    *sim.Disk
	rowSize int
	budget  int                   // bytes of working memory
	compare func(a, b []byte) int // nil: byte order, by prefix first

	maxRows int     // rows held in memory before spilling
	rows    []byte  // the rows in memory, packed in arrival order
	ents    []entry // one per row in memory: what the in-memory sort orders
	runs    []*RowFile
	file    sim.FileID
	haveTmp bool
	rowsIn  int64
	done    bool
}

// entry is one in-memory row as the sort sees it: its offset in the packed
// buffer and, in byte order, its first 16 bytes as big-endian integers
// (zero past the end of a shorter row, which every row shares).
type entry struct {
	hi, lo uint64
	off    int
}

// prefixLen is how many leading bytes of a row an entry carries.
const prefixLen = 16

// New creates a sorter for rows of rowSize bytes under a memory budget of
// budgetBytes. compare orders two rows; nil sorts them in byte order, the
// common case (an order-preserving encoding), the fastest.
func New(disk *sim.Disk, rowSize, budgetBytes int, compare func(a, b []byte) int) (*Sorter, error) {
	if rowSize <= 0 || rowSize > sim.PageSize {
		return nil, fmt.Errorf("xsort: unusable row size %d", rowSize)
	}
	return &Sorter{
		disk:    disk,
		rowSize: rowSize,
		budget:  budgetBytes,
		compare: compare,
		maxRows: maxRows(rowSize, budgetBytes),
	}, nil
}

// maxRows is how many rows of rowSize bytes a sorter holds in memory under
// budget bytes before it spills a run.
func maxRows(rowSize, budget int) int { return max(budget/rowSize, 16) }

// RowsAdded returns the number of rows fed into the sorter.
func (s *Sorter) RowsAdded() int64 { return s.rowsIn }

// Spilled reports whether the input exceeded memory and runs were written
// to disk.
func (s *Sorter) Spilled() bool { return len(s.runs) > 0 }

// Add copies a row into the sorter.
func (s *Sorter) Add(row []byte) error {
	if s.done {
		return fmt.Errorf("xsort: Add after Finish")
	}
	if len(row) != s.rowSize {
		return fmt.Errorf("xsort: row is %d bytes, sorter uses %d", len(row), s.rowSize)
	}
	if len(s.ents) == cap(s.ents) {
		s.grow()
	}
	e := entry{off: len(s.rows)}
	if s.compare == nil {
		e.hi, e.lo = prefix(row)
	}
	s.rows = append(s.rows, row...)
	s.ents = append(s.ents, e)
	s.rowsIn++
	if len(s.ents) >= s.maxRows {
		return s.spill()
	}
	return nil
}

// grow doubles the room for rows in memory, up to maxRows and no further.
func (s *Sorter) grow() {
	n := min(max(2*cap(s.ents), 64), s.maxRows)
	s.ents = append(make([]entry, 0, n), s.ents...)
	s.rows = append(make([]byte, 0, n*s.rowSize), s.rows...)
}

// prefix reads a row's first prefixLen bytes as two big-endian integers,
// zero-padded, so that comparing them compares the bytes.
func prefix(row []byte) (hi, lo uint64) {
	if len(row) >= prefixLen {
		return binary.BigEndian.Uint64(row), binary.BigEndian.Uint64(row[8:])
	}
	var b [prefixLen]byte
	copy(b[:], row)
	return binary.BigEndian.Uint64(b[:]), binary.BigEndian.Uint64(b[8:])
}

// rowOf returns e's row, its place in the packed buffer, capped so that
// appending to it cannot reach the next row.
func (s *Sorter) rowOf(e entry) []byte {
	return s.rows[e.off : e.off+s.rowSize : e.off+s.rowSize]
}

// sortBuf sorts the entries in memory, charging every comparison made.
func (s *Sorter) sortBuf() {
	cmps, rows, rs := 0, s.rows, s.rowSize
	if s.compare != nil {
		slices.SortFunc(s.ents, func(a, b entry) int {
			cmps++
			return s.compare(rows[a.off:a.off+rs], rows[b.off:b.off+rs])
		})
	} else {
		slices.SortFunc(s.ents, func(a, b entry) int {
			cmps++
			if a.hi != b.hi {
				return cmp.Compare(a.hi, b.hi)
			}
			if a.lo != b.lo || rs <= prefixLen {
				return cmp.Compare(a.lo, b.lo)
			}
			return bytes.Compare(rows[a.off+prefixLen:a.off+rs], rows[b.off+prefixLen:b.off+rs])
		})
	}
	s.disk.ChargeCompares(cmps)
}

// compareRows orders two rows as the sorter does.
func (s *Sorter) compareRows(a, b []byte) int {
	if s.compare == nil {
		return bytes.Compare(a, b)
	}
	return s.compare(a, b)
}

// newRun starts a run at the end of the temporary file, creating the file
// on first use.
func (s *Sorter) newRun() (*RowFile, error) {
	if !s.haveTmp {
		s.file = s.disk.CreateFile()
		s.haveTmp = true
	}
	n, err := s.disk.NumPages(s.file)
	if err != nil {
		return nil, err
	}
	return &RowFile{disk: s.disk, file: s.file, start: n, rowSize: s.rowSize}, nil
}

// spill sorts the rows in memory and writes them as a run.
func (s *Sorter) spill() error {
	if len(s.ents) == 0 {
		return nil
	}
	s.sortBuf()
	run, err := s.newRun()
	if err != nil {
		return err
	}
	for _, e := range s.ents {
		if err := run.Append(s.rowOf(e)); err != nil {
			return err
		}
	}
	if err := run.Seal(); err != nil {
		return err
	}
	s.runs = append(s.runs, run)
	s.rows, s.ents = s.rows[:0], s.ents[:0]
	return nil
}

// Iterator yields rows in sorted order. A returned row stays valid after
// later calls; the caller must not modify it.
type Iterator struct {
	next  func() ([]byte, bool, error)
	close func() error
}

// Next returns the next row, or ok=false at the end.
func (it *Iterator) Next() ([]byte, bool, error) { return it.next() }

// Close releases temporary resources.
func (it *Iterator) Close() error {
	if it.close != nil {
		return it.close()
	}
	return nil
}

// Close drops the spill file, if the sorter wrote one. It is the way out of
// a sort abandoned before Finish or before its iterator ran dry, and what
// the iterator's Close does; calling it again is harmless.
func (s *Sorter) Close() error {
	s.done = true
	s.rows, s.ents = nil, nil
	if !s.haveTmp {
		return nil
	}
	s.haveTmp = false
	return s.disk.DropFile(s.file)
}

// Finish completes the sort and returns an iterator over the rows in order.
// The sorter cannot be reused afterwards.
func (s *Sorter) Finish() (*Iterator, error) {
	if s.done {
		return nil, fmt.Errorf("xsort: Finish called twice")
	}
	s.done = true
	if len(s.runs) == 0 {
		// Everything fit in memory: one in-memory sort, no I/O. The rows
		// handed out are pieces of the packed buffer, in entry order;
		// nothing writes the buffer again.
		s.sortBuf()
		rows, ents, rs := s.rows, s.ents, s.rowSize
		s.rows, s.ents = nil, nil
		return &Iterator{next: func() ([]byte, bool, error) {
			if len(ents) == 0 {
				rows = nil
				return nil, false, nil
			}
			off := ents[0].off
			ents = ents[1:]
			return rows[off : off+rs : off+rs], true, nil
		}}, nil
	}
	// Spill the tail, then merge runs, multi-pass if the fan-in exceeds
	// one read buffer per run.
	if err := s.spill(); err != nil {
		return nil, err
	}
	s.rows, s.ents = nil, nil
	width := fanIn(s.budget)
	runs := s.runs
	for len(runs) > width {
		var next []*RowFile
		for base := 0; base < len(runs); base += width {
			merged, err := s.mergeToRun(runs[base:min(base+width, len(runs))])
			if err != nil {
				return nil, err
			}
			next = append(next, merged)
		}
		runs = next
	}
	return s.mergeIterator(runs)
}

// Merge finishes sorters of one row size and order — typically filled by
// independent workers, one each — and merges their outputs into one sorted
// stream, charging a compare per head it weighs. A single sorter's stream is
// its own Finish. Closing the iterator closes every sorter.
func Merge(srts []*Sorter) (*Iterator, error) {
	if len(srts) == 1 {
		return srts[0].Finish()
	}
	its := make([]*Iterator, len(srts))
	for i, s := range srts {
		it, err := s.Finish()
		if err != nil {
			return nil, err
		}
		its[i] = it
	}
	// heads[i] is stream i's next row (nil once it ran dry). A stream is
	// pulled again only after its head went out; rows stay valid, so the
	// head goes out as is.
	heads, stale := make([][]byte, len(its)), make([]bool, len(its))
	for i := range stale {
		stale[i] = true
	}
	next := func() ([]byte, bool, error) {
		best := -1
		for i, it := range its {
			if stale[i] {
				row, ok, err := it.Next()
				if err != nil {
					return nil, false, err
				}
				heads[i], stale[i] = nil, false
				if ok {
					heads[i] = row
				}
			}
			if heads[i] == nil {
				continue
			}
			if best >= 0 {
				srts[i].disk.ChargeCompares(1)
				if srts[i].compareRows(heads[i], heads[best]) >= 0 {
					continue
				}
			}
			best = i
		}
		if best < 0 {
			return nil, false, nil
		}
		stale[best] = true
		return heads[best], true, nil
	}
	closeAll := func() error {
		var first error
		for _, s := range srts {
			if err := s.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	return &Iterator{next: next, close: closeAll}, nil
}

// mergeBufPages is the chained-I/O read buffer per run during merges.
const mergeBufPages = 4

// fanIn is how many runs one merge reads at once under budget bytes: a
// read buffer of mergeBufPages pages per run, less one for the output.
func fanIn(budget int) int { return max(budget/(sim.PageSize*mergeBufPages)-1, 2) }

// runReader streams one run in chained reads of mergeBufPages pages; cur
// is its next row, nil once the run is exhausted.
type runReader struct {
	next func() ([]byte, bool, error)
	cur  []byte
}

func (r *runReader) advance() (err error) {
	r.cur, _, err = r.next()
	return err
}

// mergeHeap is a binary min-heap of run readers ordered by current row.
type mergeHeap struct {
	s       *Sorter
	readers []*runReader
}

func (h *mergeHeap) lessRR(a, b *runReader) bool {
	h.s.disk.ChargeCompares(1)
	return h.s.compareRows(a.cur, b.cur) < 0
}

func (h *mergeHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.lessRR(h.readers[i], h.readers[p]) {
			break
		}
		h.readers[i], h.readers[p] = h.readers[p], h.readers[i]
		i = p
	}
}

func (h *mergeHeap) down(i int) {
	n := len(h.readers)
	for {
		l, r := 2*i+1, 2*i+2
		sm := i
		if l < n && h.lessRR(h.readers[l], h.readers[sm]) {
			sm = l
		}
		if r < n && h.lessRR(h.readers[r], h.readers[sm]) {
			sm = r
		}
		if sm == i {
			return
		}
		h.readers[i], h.readers[sm] = h.readers[sm], h.readers[i]
		i = sm
	}
}

func (s *Sorter) openReaders(runs []*RowFile) (*mergeHeap, error) {
	h := &mergeHeap{s: s}
	for _, r := range runs {
		next, err := r.reader(0, mergeBufPages)
		if err != nil {
			return nil, err
		}
		rr := &runReader{next: next}
		if err := rr.advance(); err != nil {
			return nil, err
		}
		if rr.cur != nil {
			h.readers = append(h.readers, rr)
		}
	}
	for i := len(h.readers)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h, nil
}

// pop yields the globally smallest row and refills the heap.
func (h *mergeHeap) pop() ([]byte, bool, error) {
	if len(h.readers) == 0 {
		return nil, false, nil
	}
	top := h.readers[0]
	row := top.cur
	if err := top.advance(); err != nil {
		return nil, false, err
	}
	if top.cur == nil {
		last := len(h.readers) - 1
		h.readers[0] = h.readers[last]
		h.readers = h.readers[:last]
	}
	if len(h.readers) > 0 {
		h.down(0)
	}
	return row, true, nil
}

// mergeToRun merges runs into one new run on disk (one intermediate pass).
func (s *Sorter) mergeToRun(runs []*RowFile) (*RowFile, error) {
	h, err := s.openReaders(runs)
	if err != nil {
		return nil, err
	}
	out, err := s.newRun()
	if err != nil {
		return nil, err
	}
	for {
		row, ok, err := h.pop()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, out.Seal()
		}
		if err := out.Append(row); err != nil {
			return nil, err
		}
	}
}

// mergeIterator streams the final merge of runs. A popped row stays valid
// (see RowFile.reader), so it is handed out as is.
func (s *Sorter) mergeIterator(runs []*RowFile) (*Iterator, error) {
	h, err := s.openReaders(runs)
	if err != nil {
		return nil, err
	}
	return &Iterator{next: h.pop, close: s.Close}, nil
}
