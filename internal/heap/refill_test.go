package heap

import (
	"errors"
	"math/rand"
	"testing"

	"bulkdel/internal/page"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
)

// refillRecSize is the refill tests' row: 30 to a page.
const refillRecSize = 128

// fullHeap makes a heap of pages data pages, every one full (so no tail
// takes the next insert), flushed and evicted, and returns it with the RIDs
// of its rows in insert order.
func fullHeap(t *testing.T, pages int) (*File, []record.RID) {
	t.Helper()
	f, err := Create(testPool(64), refillRecSize)
	if err != nil {
		t.Fatal(err)
	}
	var rids []record.RID
	for range pages * page.Capacity(refillRecSize) {
		r, err := f.Insert(rec(refillRecSize, 1))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, r)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	f.pool.InvalidateAll()
	return f, rids
}

// refillIO is the I/O of a refill's heap reads, and how many pages it wrote.
type refillIO struct{ reads, runs, positioned, writes uint64 }

// sweepIO is the I/O of the one insert that wrote: which insert it was
// (1-based), the pages it wrote, and its positioned and sequential
// operations, its reads included.
type sweepIO struct{ insert, writes, positioned, seq uint64 }

// refill deletes the first row of each page every stride pages, flushes and
// evicts the heap, then inserts as many rows; after each insert a read of
// another file takes the disk arm away, as a table's index leaves do. The
// file must not grow: every insert reuses a freed slot, and at most one
// insert may write.
func refill(t *testing.T, pages, stride int) (refillIO, sweepIO) {
	t.Helper()
	f, rids := fullHeap(t, pages)
	per := page.Capacity(refillRecSize)
	n := 0
	for p := 0; p < pages; p += stride {
		if err := f.Delete(rids[p*per]); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	f.pool.InvalidateAll()
	before, _ := f.NumPages()
	d := f.pool.Disk()
	other := d.CreateFile()
	if _, err := d.Allocate(other); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, sim.PageSize)
	var sw sweepIO
	d.ResetStats()
	for i := range n {
		st := d.Stats()
		if _, err := f.Insert(rec(refillRecSize, 2)); err != nil {
			t.Fatal(err)
		}
		if after := d.Stats(); after.Writes != st.Writes {
			if sw.insert != 0 {
				t.Fatalf("inserts %d and %d both wrote", sw.insert, i+1)
			}
			sw = sweepIO{insert: uint64(i + 1), writes: after.Writes - st.Writes,
				positioned: after.RandomOps + after.NearOps - st.RandomOps - st.NearOps,
				seq:        after.SeqOps - st.SeqOps}
		}
		if err := d.ReadPage(other, 0, buf); err != nil {
			t.Fatal(err)
		}
	}
	if after, _ := f.NumPages(); after != before {
		t.Fatalf("refill grew the file from %d to %d pages", before, after)
	}
	st := d.Stats()
	// Each read of the other file is positioned: it follows a heap read or
	// a read of the same page.
	return refillIO{reads: st.Reads - uint64(n), runs: st.ChainedRuns, positioned: st.RandomOps - uint64(n), writes: st.Writes}, sw
}

// TestDenseRefillReadsChainedRuns: a delete that frees a slot on every page
// leaves a dense free map, and the refill reads it the way a scan would — in
// chained runs of free pages (capped at the pool's read-ahead, 32 pages for a
// 64-frame pool), one positioning per run instead of one per page. The
// pages it fills are written a read-ahead's worth at a time: the 33rd insert
// writes the first 32 in one page-order sweep at one positioning, which
// leaves the arm just before the second run, so that run reads on
// unpositioned.
func TestDenseRefillReadsChainedRuns(t *testing.T) {
	io, sw := refill(t, 48, 1)
	if want := (refillIO{reads: 48, runs: 2, positioned: 2, writes: 32}); io != want {
		t.Fatalf("refill of 48 free pages: %+v, want %+v", io, want)
	}
	// 31 sequential writes after the first, and the second run's read.
	if want := (sweepIO{insert: 33, writes: 32, positioned: 1, seq: 32}); sw != want {
		t.Fatalf("the refill's write-back: %+v, want %+v", sw, want)
	}
}

// TestSparseRefillReadsSinglePages: free pages with used pages between them
// are read one at a time, each positioned — the I/O of single-page reads: no
// run bridges a page the refill does not need. Its 24 filled pages are
// fewer than a batch, so nothing is written.
func TestSparseRefillReadsSinglePages(t *testing.T) {
	io, sw := refill(t, 48, 2)
	if want := (refillIO{reads: 24, runs: 0, positioned: 24}); io != want || sw != (sweepIO{}) {
		t.Fatalf("refill of 24 scattered free pages: %+v, write-back %+v; want %+v and none", io, sw, want)
	}
}

// TestRefillWriteFaultFailsInsertUnchanged: a write failing in the batch
// write-back fails the insert that triggered it before it places its
// record: the count, the records and the free map are as they were. A retry
// writes the batch and places the record on the page the failed insert
// would have used.
func TestRefillWriteFaultFailsInsertUnchanged(t *testing.T) {
	f, rids := fullHeap(t, 40)
	per := page.Capacity(refillRecSize)
	for p := range 40 {
		if err := f.Delete(rids[p*per]); err != nil {
			t.Fatal(err)
		}
	}
	for range 32 { // fills pages 1-32: a full batch
		if _, err := f.Insert(rec(refillRecSize, 2)); err != nil {
			t.Fatal(err)
		}
	}
	live := func() int {
		n := 0
		if err := f.Scan(func(record.RID, []byte) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	count, rows := f.Count(), live()
	d := f.pool.Disk()
	d.SetFaultPlan(sim.NewFaultPlan().FailWriteAt(2, nil))
	if _, err := f.Insert(rec(refillRecSize, 3)); !errors.Is(err, sim.ErrInjected) {
		t.Fatalf("insert during a failing write-back: err = %v, want the injected fault", err)
	}
	d.SetFaultPlan(nil)
	if f.Count() != count || live() != rows || !f.fsm.has(33) {
		t.Fatalf("after the failed insert: count %d, %d rows, page 33 free %v; want %d, %d, true",
			f.Count(), live(), f.fsm.has(33), count, rows)
	}
	d.ResetStats()
	r, err := f.Insert(rec(refillRecSize, 3))
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if w := d.Stats().Writes; r.Page != 33 || w != 31 {
		t.Fatalf("retry placed its record on page %d and wrote %d pages; want page 33 and the 31 left dirty", r.Page, w)
	}
	// Page 33, which the retry filled, begins the next batch.
	if f.Count() != count+1 || len(f.filled) != 1 {
		t.Fatalf("after the retry: count %d, %d pages awaiting write-back; want %d, 1", f.Count(), len(f.filled), count+1)
	}
}

// TestTruncateDropsFilledBatch: a truncate forgets the pages inserts filled
// before it, so a page number the file reuses afterwards — a tail page here
// — is not written back with a stale batch.
func TestTruncateDropsFilledBatch(t *testing.T) {
	f, rids := fullHeap(t, 32)
	per := page.Capacity(refillRecSize)
	for p := range 31 {
		if err := f.Delete(rids[p*per]); err != nil {
			t.Fatal(err)
		}
	}
	for range 31 {
		if _, err := f.Insert(rec(refillRecSize, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if len(f.filled) != 31 {
		t.Fatalf("%d filled pages before the truncate, want 31", len(f.filled))
	}
	if err := f.TruncateWith(nil); err != nil {
		t.Fatal(err)
	}
	d := f.pool.Disk()
	d.ResetStats()
	// Two full tail pages; then page 1 is refilled, the file's one filled
	// page since the truncate, and a new tail page takes two more rows.
	var first record.RID
	for i := range 2 * per {
		r, err := f.Insert(rec(refillRecSize, 3))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = r
		}
	}
	if err := f.Delete(first); err != nil {
		t.Fatal(err)
	}
	for range 3 {
		if _, err := f.Insert(rec(refillRecSize, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if w := d.Stats().Writes; w != 0 || len(f.filled) != 1 {
		t.Fatalf("after the truncate: %d pages written, %d awaiting write-back; want 0, 1", w, len(f.filled))
	}
}

// TestFreeMapKeepsCompactablePage: a page whose free bytes are split between
// its free area and a dead record stays in the free map — it used to be
// dropped when its contiguous free space fell below a record, so the file
// grew beside a free slot. The sequence is a delete of 3 rows, an insert,
// a delete of one more: the page then takes 3 inserts, the last one after
// a compaction.
func TestFreeMapKeepsCompactablePage(t *testing.T) {
	f, rids := fullHeap(t, 2)
	for _, r := range rids[:3] {
		if err := f.Delete(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Insert(rec(refillRecSize, 2)); err != nil {
		t.Fatal(err)
	}
	if err := f.Delete(rids[3]); err != nil {
		t.Fatal(err)
	}
	before, _ := f.NumPages()
	for i := range 3 {
		r, err := f.Insert(rec(refillRecSize, 3))
		if err != nil {
			t.Fatal(err)
		}
		if r.Page != 1 {
			t.Fatalf("insert %d went to page %d, want 1 (its free slot)", i, r.Page)
		}
	}
	if after, _ := f.NumPages(); after != before {
		t.Fatalf("file grew from %d to %d pages", before, after)
	}
}

// TestFreeMapAgainstModel: the free map's lowest member and runs agree with
// a map through random adds and removes.
func TestFreeMapAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m freeMap
	model := map[sim.PageNo]bool{}
	for step := range 5000 {
		p := sim.PageNo(1 + rng.Intn(300))
		if rng.Intn(3) == 0 {
			m.remove(p)
			delete(model, p)
		} else {
			m.add(p)
			model[p] = true
		}
		low, ok := m.lowest()
		want := sim.PageNo(0)
		for q := range model {
			if want == 0 || q < want {
				want = q
			}
		}
		if ok != (len(model) > 0) || low != want {
			t.Fatalf("step %d: lowest = %d, %v; want %d", step, low, ok, want)
		}
		if ok {
			n := 1
			for n < 32 && model[low+sim.PageNo(n)] {
				n++
			}
			if got := m.run(low, 32); got != n {
				t.Fatalf("step %d: run from %d = %d, want %d", step, low, got, n)
			}
		}
	}
}
