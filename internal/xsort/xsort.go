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
// comparator (usually bytes.Compare over an order-preserving encoding).
// Spilled runs are RowFiles, regions of one temporary file on the simulated
// disk, so that the I/O they cause is priced into the experiment clock.
package xsort

import (
	"bytes"
	"fmt"
	"sort"

	"bulkdel/internal/sim"
)

// Sorter accumulates rows and produces them in sorted order.
type Sorter struct {
	disk    *sim.Disk
	rowSize int
	budget  int // bytes of working memory
	compare func(a, b []byte) int

	maxRows int // rows held in memory before spilling
	buf     [][]byte
	runs    []*RowFile
	file    sim.FileID
	haveTmp bool
	rowsIn  int64
	done    bool
}

// New creates a sorter for rows of rowSize bytes under a memory budget of
// budgetBytes. compare orders two rows; bytes.Compare is the common choice.
func New(disk *sim.Disk, rowSize, budgetBytes int, compare func(a, b []byte) int) (*Sorter, error) {
	if rowSize <= 0 || rowSize > sim.PageSize {
		return nil, fmt.Errorf("xsort: unusable row size %d", rowSize)
	}
	if compare == nil {
		compare = bytes.Compare
	}
	maxRows := budgetBytes / rowSize
	if maxRows < 16 {
		maxRows = 16
	}
	return &Sorter{
		disk:    disk,
		rowSize: rowSize,
		budget:  budgetBytes,
		compare: compare,
		maxRows: maxRows,
	}, nil
}

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
	s.buf = append(s.buf, append([]byte(nil), row...))
	s.rowsIn++
	if len(s.buf) >= s.maxRows {
		return s.spill()
	}
	return nil
}

func (s *Sorter) sortBuf() {
	cmps := 0
	sort.Slice(s.buf, func(i, j int) bool {
		cmps++
		return s.compare(s.buf[i], s.buf[j]) < 0
	})
	s.disk.ChargeCompares(cmps)
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

// spill sorts the in-memory buffer and writes it as a run.
func (s *Sorter) spill() error {
	if len(s.buf) == 0 {
		return nil
	}
	s.sortBuf()
	run, err := s.newRun()
	if err != nil {
		return err
	}
	for _, row := range s.buf {
		if err := run.Append(row); err != nil {
			return err
		}
	}
	if err := run.Seal(); err != nil {
		return err
	}
	s.runs = append(s.runs, run)
	s.buf = s.buf[:0]
	return nil
}

// Iterator yields rows in sorted order. The returned slice is only valid
// until the next call.
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
		// Everything fit in memory: one in-memory sort, no I/O.
		s.sortBuf()
		i := 0
		buf := s.buf
		s.buf = nil
		return &Iterator{next: func() ([]byte, bool, error) {
			if i >= len(buf) {
				return nil, false, nil
			}
			r := buf[i]
			i++
			return r, true, nil
		}}, nil
	}
	// Spill the tail, then merge runs, multi-pass if the fan-in exceeds
	// one read buffer per run.
	if err := s.spill(); err != nil {
		return nil, err
	}
	fanIn := s.budget/(sim.PageSize*mergeBufPages) - 1
	if fanIn < 2 {
		fanIn = 2
	}
	runs := s.runs
	for len(runs) > fanIn {
		var next []*RowFile
		for base := 0; base < len(runs); base += fanIn {
			n := fanIn
			if base+n > len(runs) {
				n = len(runs) - base
			}
			merged, err := s.mergeToRun(runs[base : base+n])
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
	// pulled again only after its head was copied out, so the row stays
	// valid while it waits.
	heads, stale := make([][]byte, len(its)), make([]bool, len(its))
	for i := range stale {
		stale[i] = true
	}
	var out []byte
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
				if srts[i].compare(heads[i], heads[best]) >= 0 {
					continue
				}
			}
			best = i
		}
		if best < 0 {
			return nil, false, nil
		}
		out, stale[best] = append(out[:0], heads[best]...), true
		return out, true, nil
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
	return h.s.compare(a.cur, b.cur) < 0
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
