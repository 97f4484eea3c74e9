package core

import (
	"testing"

	"bulkdel/internal/buffer"
	"bulkdel/internal/heap"
	"bulkdel/internal/page"
	"bulkdel/internal/sim"
	"bulkdel/internal/wal"
)

// heapReadRows is the table of the heap ⋈̸ read-pattern tests: 20,000 rows of
// 64 bytes, over 300 heap pages behind a 64-frame pool.
const heapReadRows = 20000

// walkIO is what one bulk-edit walk over the heap read: pages, and chained
// runs of more than one page.
type walkIO struct{ reads, runs uint64 }

// coldWalks is a heap whose every bulk-edit walk starts on a cold pool and
// counts the I/O of its own seeks, which read nothing but heap pages.
type coldWalks struct {
	heap.Store
	pool  *buffer.Pool
	walks []walkIO
}

func (c *coldWalks) Edit() (heap.Editor, error) {
	if err := c.pool.FlushAll(); err != nil {
		return nil, err
	}
	c.pool.InvalidateAll()
	ed, err := c.Store.Edit()
	if err != nil {
		return nil, err
	}
	c.walks = append(c.walks, walkIO{})
	return &countedEditor{Editor: ed, c: c, walk: len(c.walks) - 1}, nil
}

type countedEditor struct {
	heap.Editor
	c    *coldWalks
	walk int
}

func (e *countedEditor) Seek(p, upTo sim.PageNo) (page.Slotted, error) {
	before := e.c.pool.Disk().Stats()
	sp, err := e.Editor.Seek(p, upTo)
	after := e.c.pool.Disk().Stats()
	w := &e.c.walks[e.walk]
	w.reads += after.Reads - before.Reads
	w.runs += after.ChainedRuns - before.ChainedRuns
	return sp, err
}

// heapWalks runs a logged sort/merge delete of victims (field0 values) and
// returns the I/O of its one heap walk — the heap pass, which also projects
// the remaining index's key list — and the heap's data page count.
func heapWalks(t *testing.T, victims []int64) (pass walkIO, heapPages uint64) {
	t.Helper()
	pool := testPool(64)
	tgt := makeTarget(t, pool, heapReadRows, []int{0, 1}, []bool{true, false})
	n, err := tgt.Heap.Parts()[0].NumPages()
	if err != nil {
		t.Fatal(err)
	}
	walks := &coldWalks{Store: tgt.Heap, pool: pool}
	tgt.Heap = walks
	st, err := Execute(tgt, 0, victims, Options{Method: SortMerge, Log: wal.Create(pool.Disk()), TxID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != int64(len(victims)) || len(walks.walks) != 1 {
		t.Fatalf("deleted %d of %d in %d heap walks, want 1", st.Deleted, len(victims), len(walks.walks))
	}
	return walks.walks[0], uint64(n) - 1
}

// TestSparseHeapPassReadsOnlyVictimPages: sixteen victims, each on its own
// page and the pages far apart, on a heap five times the pool. The whole
// statement reads one heap page per victim page, not a read-ahead run, and
// no page twice.
func TestSparseHeapPassReadsOnlyVictimPages(t *testing.T) {
	var victims []int64
	for i := int64(0); i < 16; i++ {
		victims = append(victims, i*heapReadRows/16)
	}
	pass, heapPages := heapWalks(t, victims)
	if heapPages < 4*64 {
		t.Fatalf("heap of %d pages is under 4× the pool", heapPages)
	}
	if pass.reads != uint64(len(victims)) {
		t.Errorf("the statement read %d heap pages for %d victim pages", pass.reads, len(victims))
	}
}

// TestDenseHeapPassStaysChained: at 15 % most heap pages hold a victim; the
// pass reads no page twice and still reads in chained runs.
func TestDenseHeapPassStaysChained(t *testing.T) {
	victims, _ := pickVictims(heapReadRows, heapReadRows*15/100, 5)
	pass, heapPages := heapWalks(t, victims)
	if pass.reads > heapPages || pass.runs == 0 {
		t.Errorf("heap pass read %d pages of a %d-page heap in %d chained runs; want at most the heap, chained",
			pass.reads, heapPages, pass.runs)
	}
}
