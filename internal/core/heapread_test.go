package core

import (
	"testing"

	"bulkdel/internal/buffer"
	"bulkdel/internal/sim"
	"bulkdel/internal/wal"
)

// heapReadRows is the table of the heap ⋈̸ read-pattern tests: 20,000 rows of
// 64 bytes, over 300 heap pages behind a 64-frame pool.
const heapReadRows = 20000

// walkIO is what the heap pass read: pages, and of those the pages chained
// runs read ahead of the page a seek asked for.
type walkIO struct{ reads, ahead uint64 }

// heapWalks runs a logged sort/merge delete of victims (field0 values) and
// returns the I/O of its one heap walk — the heap pass, which also projects
// the remaining index's key list — and the heap's data page count. The heap
// has a device and a 64-frame pool shard of its own, emptied when the
// passes start, so that device's reads from then on are the walk's alone
// (the pass's trace span also counts its reads of the RID list).
func heapWalks(t *testing.T, victims []int64) (pass walkIO, heapPages uint64) {
	t.Helper()
	pool := testPool(128)
	disk := pool.Disk()
	disk.ConfigureDevices(2)
	tgt := makeTarget(t, pool, heapReadRows, []int{0, 1}, []bool{true, false})
	n, err := tgt.Heap.Parts()[0].NumPages()
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Relocate(tgt.Heap.ID(), 1); err != nil {
		t.Fatal(err)
	}
	var d0 sim.Stats
	var h0 buffer.Stats
	var coldErr error
	cold := func() {
		coldErr = pool.FlushAll()
		pool.InvalidateAll()
		d0, h0 = disk.DeviceStats(1), pool.ShardStats(1)
	}
	st, err := Execute(tgt, 0, victims, Options{Method: SortMerge, Log: wal.Create(disk), TxID: 1, OnPassesStart: cold})
	if err != nil || coldErr != nil {
		t.Fatal(err, coldErr)
	}
	if st.Deleted != int64(len(victims)) {
		t.Fatalf("deleted %d of %d", st.Deleted, len(victims))
	}
	reads := disk.DeviceStats(1).Reads - d0.Reads
	return walkIO{reads: reads, ahead: reads - (pool.ShardStats(1).Misses - h0.Misses)}, uint64(n) - 1
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
	if pass.reads > heapPages || pass.ahead == 0 {
		t.Errorf("heap pass read %d pages of a %d-page heap, %d of them ahead in chained runs; want at most the heap, chained",
			pass.reads, heapPages, pass.ahead)
	}
}
