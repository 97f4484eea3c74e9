package xsort

import (
	"fmt"

	"bulkdel/internal/sim"
)

// RowFile is a run of fixed-width rows on the simulated disk, packed
// PageSize/rowSize to a page from a given page of a file on, written and
// read with chained I/O. It is the one on-disk format of a row list: the
// sorter's spilled and merged runs are RowFiles inside its temporary file,
// and bulk deletes materialize their intermediate victim lists — the sorted
// RID list and the per-index ⟨key, RID⟩ lists — as RowFiles of their own,
// to stable storage as the paper's roll-forward recovery requires ("the
// results of the join variants ... should be materialized to stable
// storage"), and as partition buckets for the hash + range-partitioning
// plan.
type RowFile struct {
	disk    *sim.Disk
	file    sim.FileID
	start   sim.PageNo // first page of the run
	rowSize int
	rows    int64
	pages   int
	wbuf    [][]byte // pending chunk of full pages
	cur     []byte   // page being filled
	curRows int
	sealed  bool
}

// ChunkPages is the length of a row file's chained writes and reads (the
// sorter's merge reads in shorter runs of mergeBufPages).
const ChunkPages = 16

// NewRowFile creates an empty row file in a file of its own on device dev;
// dev < 0 takes the default placement, so callers thread a device hint
// through without branching.
func NewRowFile(disk *sim.Disk, rowSize int, dev int) (*RowFile, error) {
	if rowSize <= 0 || rowSize > sim.PageSize {
		return nil, fmt.Errorf("xsort: unusable row size %d", rowSize)
	}
	if dev < 0 {
		return &RowFile{disk: disk, file: disk.CreateFile(), rowSize: rowSize}, nil
	}
	id, err := disk.CreateFileOn(dev)
	if err != nil {
		return nil, err
	}
	return &RowFile{disk: disk, file: id, rowSize: rowSize}, nil
}

// OpenRowFile attaches to an existing row file with a known row count
// (recovery: the count travels in the WAL payload).
func OpenRowFile(disk *sim.Disk, file sim.FileID, rowSize int, rows int64) (*RowFile, error) {
	n, err := disk.NumPages(file)
	if err != nil {
		return nil, err
	}
	rpp := int64(sim.PageSize / rowSize)
	if rows > int64(n)*rpp {
		return nil, fmt.Errorf("xsort: row file %d too short for %d rows", file, rows)
	}
	return &RowFile{disk: disk, file: file, rowSize: rowSize, rows: rows, pages: int(n), sealed: true}, nil
}

// File returns the file the rows live in.
func (r *RowFile) File() sim.FileID { return r.file }

// Rows returns the number of rows appended.
func (r *RowFile) Rows() int64 { return r.rows }

func (r *RowFile) rowsPerPage() int { return sim.PageSize / r.rowSize }

// Append adds one row (copied).
func (r *RowFile) Append(row []byte) error {
	if r.sealed {
		return fmt.Errorf("xsort: append to sealed row file")
	}
	if len(row) != r.rowSize {
		return fmt.Errorf("xsort: row is %d bytes, file uses %d", len(row), r.rowSize)
	}
	if r.cur == nil {
		r.cur = make([]byte, sim.PageSize)
		r.curRows = 0
	}
	copy(r.cur[r.curRows*r.rowSize:], row)
	r.curRows++
	r.rows++
	if r.curRows == r.rowsPerPage() {
		r.wbuf = append(r.wbuf, r.cur)
		r.cur = nil
		if len(r.wbuf) >= ChunkPages {
			return r.flushChunk()
		}
	}
	return nil
}

// flushChunk writes the pending pages at the end of the run, which is the
// end of its file: a file holds one run being written at a time.
func (r *RowFile) flushChunk() error {
	if len(r.wbuf) == 0 {
		return nil
	}
	for range r.wbuf {
		if _, err := r.disk.Allocate(r.file); err != nil {
			return err
		}
	}
	if err := r.disk.WriteRun(r.file, r.start+sim.PageNo(r.pages), r.wbuf); err != nil {
		return err
	}
	r.pages += len(r.wbuf)
	r.wbuf = nil
	return nil
}

// Seal flushes everything to disk; the file becomes read-only.
func (r *RowFile) Seal() error {
	if r.sealed {
		return nil
	}
	if r.cur != nil {
		r.wbuf = append(r.wbuf, r.cur)
		r.cur = nil
	}
	if err := r.flushChunk(); err != nil {
		return err
	}
	r.sealed = true
	return nil
}

// Iterate streams rows [from, Rows()) in order.
func (r *RowFile) Iterate(from int64, fn func(row []byte) error) error {
	next, err := r.Iterator(from)
	if err != nil {
		return err
	}
	for {
		row, ok, err := next()
		if err != nil || !ok {
			return err
		}
		if err := fn(row); err != nil {
			return err
		}
	}
}

// Iterator returns a pull iterator over rows [from, Rows()), read with
// chained I/O a chunk of ChunkPages pages at a time.
func (r *RowFile) Iterator(from int64) (func() ([]byte, bool, error), error) {
	return r.reader(from, ChunkPages)
}

// reader is Iterator with chained reads of chunk pages. Each chunk is read
// into fresh buffers, so a returned row stays valid after the reader has
// moved on: the merge heap holds a popped row while its run advances. A row
// is capped, so appending to it cannot reach the next.
func (r *RowFile) reader(from int64, chunk int) (func() ([]byte, bool, error), error) {
	if !r.sealed {
		return nil, fmt.Errorf("xsort: iterate over unsealed row file")
	}
	pos := max(from, 0) // absolute row index
	rpp := int64(r.rowsPerPage())
	var bufs [][]byte
	bufStart := sim.InvalidPage
	return func() ([]byte, bool, error) {
		if pos >= r.rows {
			return nil, false, nil
		}
		pg := sim.PageNo(pos / rpp)
		if bufStart == sim.InvalidPage || int(pg) >= int(bufStart)+len(bufs) {
			next := make([][]byte, min(chunk, r.pages-int(pg)))
			for i := range next {
				next[i] = make([]byte, sim.PageSize)
			}
			if err := r.disk.ReadRun(r.file, r.start+pg, next); err != nil {
				return nil, false, err
			}
			bufs, bufStart = next, pg
		}
		off := int(pos%rpp) * r.rowSize
		pos++
		return bufs[pg-bufStart][off : off+r.rowSize : off+r.rowSize], true, nil
	}, nil
}

// Drop releases the file.
func (r *RowFile) Drop() error { return r.disk.DropFile(r.file) }
