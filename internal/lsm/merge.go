package lsm

import (
	"math"
	"sort"

	"bulkdel/internal/sim"
)

// Read paths: every lookup merges the memtable with the SSTables, newest
// first, and judges visibility against the union of range tombstones. The
// LSM invariant (compaction only ever moves a key's newer versions into a
// level above its older ones) makes the first point entry found walking
// memtable → L0 newest→oldest → L1 → L2 … the winning version.

// maxCoveringSeq returns the highest seq of any range tombstone covering
// key (0 if none).
func maxCoveringSeq(rts []RangeTomb, key int64) uint64 {
	var max uint64
	for _, rt := range rts {
		if key >= rt.Lo && key <= rt.Hi && rt.Seq > max {
			max = rt.Seq
		}
	}
	return max
}

// getIn is the one point lookup: the first entry for key in mem (sorted by
// key), then L0 newest→oldest, then each deeper level, is the winner, and it
// is visible when it is a put newer than rseq, the highest range tombstone
// covering key. A level >= 1 is key-disjoint and sorted, so a binary search
// names its one table that can hold key.
func getIn(mem []entry, levels [][]*SSTable, rseq uint64, key int64) ([]byte, bool, error) {
	if i := sort.Search(len(mem), func(i int) bool { return mem[i].key >= key }); i < len(mem) && mem[i].key == key {
		return settle(mem[i], rseq)
	}
	for li, lvl := range levels {
		lo, hi := 0, len(lvl) // L0: every table, newest first
		if li > 0 {
			lo = sort.Search(len(lvl), func(i int) bool { return lvl[i].MaxKey >= key })
			hi = min(lo+1, len(lvl))
		}
		for i := hi - 1; i >= lo; i-- {
			e, ok, err := lvl[i].get(key)
			if err != nil {
				return nil, false, err
			}
			if ok {
				return settle(e, rseq)
			}
		}
	}
	return nil, false, nil
}

// settle judges the winning entry: visible when it is a put newer than
// rseq.
func settle(e entry, rseq uint64) ([]byte, bool, error) {
	if e.kind == kindPut && e.seq > rseq {
		return e.val, true, nil
	}
	return nil, false, nil
}

// Get returns the record stored under key, if visible. It reads the live
// tree under the mutex and copies nothing; a Snapshot serves a sequence of
// reads that must agree.
func (t *Tree) Get(key int64) ([]byte, bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return getIn(t.mem.entries, t.levels, maxCoveringSeq(t.rtombs, key), key)
}

// Snapshot is a read handle on one state of the tree: the memtable's
// entries, the level slices and the range-tombstone union, captured under
// the tree mutex once. Its reads run without the mutex, so a callback may
// re-enter the tree, and they see neither later writes nor later flushes
// and compactions: SSTables are immutable, and the files a compaction
// supersedes while any snapshot is open are parked, not dropped, until the
// last one closes. A Snapshot must be closed; it is not safe for concurrent
// use.
type Snapshot struct {
	t      *Tree
	mem    []entry
	levels [][]*SSTable
	rtombs []RangeTomb
	closed bool
}

// Snapshot captures the tree's current state. The memtable slice is copied
// because put shifts entries within its backing array in place; the level
// slices and the tombstone union are replaced, never edited, so sharing
// them is enough.
func (t *Tree) Snapshot() *Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.scans++
	return &Snapshot{
		t:      t,
		mem:    append([]entry(nil), t.mem.entries...),
		levels: append([][]*SSTable(nil), t.levels...),
		rtombs: t.rtombs,
	}
}

// Get returns the record stored under key in the snapshot, if visible.
func (s *Snapshot) Get(key int64) ([]byte, bool, error) {
	return getIn(s.mem, s.levels, maxCoveringSeq(s.rtombs, key), key)
}

// Close releases the snapshot; when it was the last one open, the files
// superseded while any was open are dropped. Idempotent.
func (s *Snapshot) Close() {
	if s.closed {
		return
	}
	s.closed = true
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	t.scans--
	if t.scans > 0 {
		return
	}
	for _, sst := range t.obsolete {
		// Best-effort: a failed drop leaks an unreferenced file, which is
		// exactly what a crash between commit and drop leaves behind.
		_ = t.pool.DropFile(sim.FileID(sst.File))
	}
	t.obsolete = nil
}

// mergeSrc is one head of the k-way merge.
type mergeSrc struct {
	cur  entry
	ok   bool
	next func() (entry, bool, error)
}

func (s *mergeSrc) advance() error {
	e, ok, err := s.next()
	s.cur, s.ok = e, ok
	return err
}

// kmerge is the one k-way merge, shared by reads and compaction: a head per
// source, each yielding its run in key order. The winner is the smallest
// key among the heads, in its highest-seq version.
type kmerge struct {
	disk  *sim.Disk
	heads []mergeSrc
}

// newMerge primes one head per source, in order.
func newMerge(disk *sim.Disk, srcs []func() (entry, bool, error)) (*kmerge, error) {
	m := &kmerge{disk: disk, heads: make([]mergeSrc, len(srcs))}
	for i, next := range srcs {
		m.heads[i].next = next
		if err := m.heads[i].advance(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// peek returns the next winner, charging one compare per live head; ok is
// false once every head is spent. The winner stays at its head until skip,
// so a caller that stops at it reads no further block.
func (m *kmerge) peek() (win entry, ok bool) {
	best := -1
	live := 0
	for i := range m.heads {
		h := &m.heads[i]
		if !h.ok {
			continue
		}
		live++
		if best == -1 || h.cur.key < m.heads[best].cur.key ||
			(h.cur.key == m.heads[best].cur.key && h.cur.seq > m.heads[best].cur.seq) {
			best = i
		}
	}
	if best == -1 {
		return entry{}, false
	}
	m.disk.ChargeCompares(live)
	return m.heads[best].cur, true
}

// skip advances every head past key: the winner and every older version of
// it.
func (m *kmerge) skip(key int64) error {
	for i := range m.heads {
		h := &m.heads[i]
		for h.ok && h.cur.key == key {
			if err := h.advance(); err != nil {
				return err
			}
		}
	}
	return nil
}

// chain walks a run of tables — key-disjoint and sorted by key, as a level
// >= 1 is — as one merge source from the first entry >= lo; a table's
// blocks are read only when the walk reaches it, ahead blocks at a time
// (see sstIter).
func chain(run []*SSTable, lo int64, ahead int) func() (entry, bool, error) {
	var it *sstIter
	return func() (entry, bool, error) {
		for {
			if it != nil {
				if e, ok, err := it.next(); ok || err != nil {
					return e, ok, err
				}
			}
			if len(run) == 0 {
				return entry{}, false, nil
			}
			first := it == nil
			it, run = run[0].iter(ahead), run[1:]
			if first {
				if err := it.seek(lo); err != nil {
					return entry{}, false, err
				}
			}
		}
	}
}

// ScanRange calls fn for every record visible in the snapshot with
// lo <= key <= hi, in key order, by a k-way merge of a head per run: the
// memtable, each L0 table, and each deeper level's tables overlapping the
// range.
func (s *Snapshot) ScanRange(lo, hi int64, fn func(key int64, rec []byte) error) error {
	mem := s.mem
	i := sort.Search(len(mem), func(i int) bool { return mem[i].key >= lo })
	srcs := []func() (entry, bool, error){func() (entry, bool, error) {
		if i >= len(mem) {
			return entry{}, false, nil
		}
		e := mem[i]
		i++
		return e, true, nil
	}}
	for li, lvl := range s.levels {
		if li == 0 {
			for _, sst := range lvl {
				if sst.Blocks > 0 && overlaps(sst.Meta, lo, hi) {
					srcs = append(srcs, chain([]*SSTable{sst}, lo, 1))
				}
			}
			continue
		}
		first := sort.Search(len(lvl), func(i int) bool { return lvl[i].MaxKey >= lo })
		end := first
		for end < len(lvl) && lvl[end].MinKey <= hi {
			end++
		}
		if end > first {
			srcs = append(srcs, chain(lvl[first:end], lo, 1))
		}
	}
	m, err := newMerge(s.t.pool.Disk(), srcs)
	if err != nil {
		return err
	}
	for {
		win, ok := m.peek()
		if !ok || win.key > hi {
			return nil
		}
		if err := m.skip(win.key); err != nil {
			return err
		}
		if win.kind == kindPut && win.seq > maxCoveringSeq(s.rtombs, win.key) {
			m.disk.ChargeRecords(1)
			if err := fn(win.key, win.val); err != nil {
				return err
			}
		}
	}
}

// ScanRange calls fn for every visible record with lo <= key <= hi, in key
// order, on a snapshot taken for the call, so fn may re-enter the tree (a
// lookup from inside a table scan callback must work on an LSM table just
// as it does on the heap backend).
func (t *Tree) ScanRange(lo, hi int64, fn func(key int64, rec []byte) error) error {
	s := t.Snapshot()
	defer s.Close()
	return s.ScanRange(lo, hi, fn)
}

// Scan calls fn for every visible record in key order.
func (t *Tree) Scan(fn func(key int64, rec []byte) error) error {
	return t.ScanRange(math.MinInt64, math.MaxInt64, fn)
}

// Count returns the number of visible records.
func (t *Tree) Count() (int64, error) {
	var n int64
	err := t.Scan(func(int64, []byte) error { n++; return nil })
	return n, err
}
