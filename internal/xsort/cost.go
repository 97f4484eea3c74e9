package xsort

import (
	"cmp"
	"slices"
	"time"

	"bulkdel/internal/sim"
)

// Cost is what a sort does on the simulated disk, compares aside.
type Cost struct {
	Reads, Writes int64         // pages transferred
	Positionings  int64         // head movements that paid a seek
	Time          time.Duration // positioning and transfer charges
}

// SpillCost estimates what sorting rows rows of rowSize bytes under budget
// bytes costs on a disk with cost model cm. Rows that fit in memory cost
// nothing; otherwise the estimate lays the sort out as New, Add and Finish
// do — runs of maxRows rows written ChunkPages pages at a time, merged fanIn
// runs at a time, multi-pass if need be, through reads of mergeBufPages
// pages — and prices every access after the one before. Its one guess is the
// order a merge reads its runs in: that of uniformly spread keys, each run
// consumed at the pace of its share of the rows. The sort is taken to have
// the disk to itself.
func SpillCost(cm sim.CostModel, rows int64, rowSize, budget int) Cost {
	if rowSize <= 0 || rowSize > sim.PageSize {
		return Cost{}
	}
	per := int64(maxRows(rowSize, budget))
	if rows < per {
		return Cost{}
	}
	k := &costSim{cm: cm, rpp: int64(sim.PageSize / rowSize), head: -1}
	var runs []run
	for left := rows; left > 0; left -= per {
		r := run{start: k.end}
		k.append(&r, min(left, per))
		k.seal(&r)
		runs = append(runs, r)
	}
	f := fanIn(budget)
	for len(runs) > f {
		var next []run
		for base := 0; base < len(runs); base += f {
			next = append(next, k.merge(runs[base:min(base+f, len(runs))], false))
		}
		runs = next
	}
	k.merge(runs, true)
	return k.c
}

// run is a run the estimate lays out in the temporary file: its first
// page, its rows so far and the pages written of them.
type run struct{ start, rows, written int64 }

// costSim replays a sort's accesses to its temporary file.
type costSim struct {
	cm   sim.CostModel
	rpp  int64 // rows per page
	end  int64 // pages in the file
	head int64 // the page the last access ended on; -1 before the first
	c    Cost
}

func (k *costSim) pages(rows int64) int64 { return (rows + k.rpp - 1) / k.rpp }

// io prices a chained access to n pages from page p.
func (k *costSim) io(p, n int64, write bool) {
	charge, seek := k.cm.Seek+k.cm.Rotation, true
	if k.head >= 0 {
		charge, seek = k.cm.Position(sim.PageNo(k.head), sim.PageNo(p))
	}
	if seek {
		k.c.Positionings++
	}
	k.c.Time += charge + time.Duration(n)*k.cm.TransferPage
	if write {
		k.c.Writes += n
	} else {
		k.c.Reads += n
	}
	k.head = p + n - 1
}

// append adds n rows to w, writing each chunk of full pages as it fills, at
// the end of the file.
func (k *costSim) append(w *run, n int64) {
	w.rows += n
	for w.rows/k.rpp-w.written >= ChunkPages {
		k.io(w.start+w.written, ChunkPages, true)
		w.written += ChunkPages
		k.end = w.start + w.written
	}
}

// seal writes what is left of w, its last page partial or not.
func (k *costSim) seal(w *run) {
	if n := k.pages(w.rows) - w.written; n > 0 {
		k.io(w.start+w.written, n, true)
		w.written += n
		k.end = w.start + w.written
	}
}

// merge reads runs at once into a new run, or for the final merge into the
// caller. Each run's first chunk is read up front; its next one when the
// output reaches the run's share of the rows read so far.
func (k *costSim) merge(runs []run, final bool) run {
	type read struct {
		at    float64 // output rows before it
		page  int64
		pages int64
	}
	var total int64
	for _, r := range runs {
		total += r.rows
	}
	chunk := mergeBufPages * k.rpp
	var reads []read
	for _, r := range runs {
		k.io(r.start, min(mergeBufPages, k.pages(r.rows)), false)
		for row := chunk; row < r.rows; row += chunk {
			pg := row / k.rpp
			at := float64(row) / float64(r.rows) * float64(total)
			reads = append(reads, read{at, r.start + pg, min(mergeBufPages, k.pages(r.rows)-pg)})
		}
	}
	slices.SortStableFunc(reads, func(a, b read) int { return cmp.Compare(a.at, b.at) })
	w := run{start: k.end}
	for _, r := range reads {
		if !final {
			k.append(&w, int64(r.at)-w.rows)
		}
		k.io(r.page, r.pages, false)
	}
	if !final {
		k.append(&w, total-w.rows)
		k.seal(&w)
	}
	return w
}
