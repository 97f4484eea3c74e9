package heap

import (
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

// refillIO is the I/O of a refill's heap reads.
type refillIO struct{ reads, runs, positioned uint64 }

// refill deletes the first row of each page every stride pages, flushes and
// evicts the heap, then inserts as many rows; after each insert a read of
// another file takes the disk arm away, as a table's index leaves do. The
// file must not grow: every insert reuses a freed slot.
func refill(t *testing.T, pages, stride int) refillIO {
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
	d.ResetStats()
	for range n {
		if _, err := f.Insert(rec(refillRecSize, 2)); err != nil {
			t.Fatal(err)
		}
		if err := d.ReadPage(other, 0, buf); err != nil {
			t.Fatal(err)
		}
	}
	if after, _ := f.NumPages(); after != before {
		t.Fatalf("refill grew the file from %d to %d pages", before, after)
	}
	st := d.Stats()
	if st.Writes != 0 {
		t.Fatalf("refill wrote %d pages", st.Writes)
	}
	// Each read of the other file is positioned: it follows a heap read or
	// a read of the same page.
	return refillIO{reads: st.Reads - uint64(n), runs: st.ChainedRuns, positioned: st.RandomOps - uint64(n)}
}

// TestDenseRefillReadsChainedRuns: a delete that frees a slot on every page
// leaves a dense free map, and the refill reads it the way a scan would — in
// chained runs of free pages (capped at the pool's read-ahead, 32 pages for a
// 64-frame pool), one positioning per run instead of one per page.
func TestDenseRefillReadsChainedRuns(t *testing.T) {
	if got, want := refill(t, 48, 1), (refillIO{reads: 48, runs: 2, positioned: 2}); got != want {
		t.Fatalf("refill of 48 free pages: %+v, want %+v", got, want)
	}
}

// TestSparseRefillReadsSinglePages: free pages with used pages between them
// are read one at a time, each positioned — the I/O of single-page reads: no
// run bridges a page the refill does not need.
func TestSparseRefillReadsSinglePages(t *testing.T) {
	if got, want := refill(t, 48, 2), (refillIO{reads: 24, runs: 0, positioned: 24}); got != want {
		t.Fatalf("refill of 24 scattered free pages: %+v, want %+v", got, want)
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
