package core

import (
	"fmt"

	"bulkdel/internal/sim"
)

// rowFile is a sequential file of fixed-width rows on the simulated disk,
// written and read with chained I/O. Bulk deletes use row files to
// materialize intermediate victim lists — the sorted RID list and the
// per-index ⟨key, RID⟩ lists — to stable storage, which the paper requires
// for its roll-forward recovery ("the results of the join variants ...
// should be materialized to stable storage"), and as partition buckets for
// the hash + range-partitioning plan.
type rowFile struct {
	disk    *sim.Disk
	file    sim.FileID
	rowSize int
	rows    int64
	pages   int
	wbuf    [][]byte // pending chunk of full pages
	cur     []byte   // page being filled
	curRows int
	sealed  bool
}

const rowFileChunk = 16 // pages per chained write/read

// newRowFileOn creates an empty row file on device dev; dev < 0 takes the
// default placement, so callers thread a device hint through without
// branching.
func newRowFileOn(disk *sim.Disk, rowSize int, dev int) (*rowFile, error) {
	if rowSize <= 0 || rowSize > sim.PageSize {
		return nil, fmt.Errorf("core: unusable row size %d", rowSize)
	}
	if dev < 0 {
		return &rowFile{disk: disk, file: disk.CreateFile(), rowSize: rowSize}, nil
	}
	id, err := disk.CreateFileOn(dev)
	if err != nil {
		return nil, err
	}
	return &rowFile{disk: disk, file: id, rowSize: rowSize}, nil
}

// openRowFile attaches to an existing row file with a known row count
// (recovery: the count travels in the WAL payload).
func openRowFile(disk *sim.Disk, file sim.FileID, rowSize int, rows int64) (*rowFile, error) {
	n, err := disk.NumPages(file)
	if err != nil {
		return nil, err
	}
	rpp := int64(sim.PageSize / rowSize)
	if rows > int64(n)*rpp {
		return nil, fmt.Errorf("core: row file %d too short for %d rows", file, rows)
	}
	return &rowFile{disk: disk, file: file, rowSize: rowSize, rows: rows, pages: int(n), sealed: true}, nil
}

func (r *rowFile) rowsPerPage() int { return sim.PageSize / r.rowSize }

// append adds one row (copied).
func (r *rowFile) append(row []byte) error {
	if r.sealed {
		return fmt.Errorf("core: append to sealed row file")
	}
	if len(row) != r.rowSize {
		return fmt.Errorf("core: row is %d bytes, file uses %d", len(row), r.rowSize)
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
		if len(r.wbuf) >= rowFileChunk {
			return r.flushChunk()
		}
	}
	return nil
}

func (r *rowFile) flushChunk() error {
	if len(r.wbuf) == 0 {
		return nil
	}
	start := sim.PageNo(r.pages)
	for range r.wbuf {
		if _, err := r.disk.Allocate(r.file); err != nil {
			return err
		}
	}
	if err := r.disk.WriteRun(r.file, start, r.wbuf); err != nil {
		return err
	}
	r.pages += len(r.wbuf)
	r.wbuf = nil
	return nil
}

// seal flushes everything to disk; the file becomes read-only.
func (r *rowFile) seal() error {
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

// iterate streams rows [from, rows) in order. The row slice passed to fn is
// only valid during the call.
func (r *rowFile) iterate(from int64, fn func(row []byte) error) error {
	next, err := r.iterator(from)
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

// iterator returns a pull iterator over rows [from, rows), read with chained
// I/O a chunk of rowFileChunk pages at a time. A returned row is valid until
// the iterator crosses into the next chunk.
func (r *rowFile) iterator(from int64) (rowIter, error) {
	if !r.sealed {
		return nil, fmt.Errorf("core: iterate over unsealed row file")
	}
	pos := max(from, 0) // absolute row index
	rpp := int64(r.rowsPerPage())
	var chunk [][]byte
	chunkStart := sim.InvalidPage
	return func() ([]byte, bool, error) {
		if pos >= r.rows {
			return nil, false, nil
		}
		pg := sim.PageNo(pos / rpp)
		if chunkStart == sim.InvalidPage || int(pg) >= int(chunkStart)+len(chunk) {
			bufs := make([][]byte, min(rowFileChunk, r.pages-int(pg)))
			for i := range bufs {
				bufs[i] = make([]byte, sim.PageSize)
			}
			if err := r.disk.ReadRun(r.file, pg, bufs); err != nil {
				return nil, false, err
			}
			chunk, chunkStart = bufs, pg
		}
		off := int(pos%rpp) * r.rowSize
		pos++
		return chunk[pg-chunkStart][off : off+r.rowSize], true, nil
	}, nil
}

// drop releases the file.
func (r *rowFile) drop() error { return r.disk.DropFile(r.file) }
