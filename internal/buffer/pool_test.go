package buffer

import (
	"testing"
	"time"

	"bulkdel/internal/sim"
)

func testDisk() *sim.Disk {
	return sim.NewDisk(sim.CostModel{
		Seek:         8 * time.Millisecond,
		Rotation:     4 * time.Millisecond,
		TransferPage: 1 * time.Millisecond,
	})
}

// mkFile creates a file with n pages, each filled with its page number.
func mkFile(t *testing.T, d *sim.Disk, n int) sim.FileID {
	t.Helper()
	f := d.CreateFile()
	buf := make([]byte, sim.PageSize)
	for i := 0; i < n; i++ {
		p, err := d.Allocate(f)
		if err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			buf[j] = byte(i)
		}
		if err := d.WritePage(f, p, buf); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestGetHitMiss(t *testing.T) {
	d := testDisk()
	f := mkFile(t, d, 10)
	p := New(d, 8*sim.PageSize)
	fr, err := p.Get(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Data()[0] != 3 {
		t.Fatalf("frame holds page %d's data, want 3", fr.Data()[0])
	}
	p.Unpin(fr, false)
	fr2, err := p.Get(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fr2 != fr {
		t.Fatal("second Get should hit the same frame")
	}
	p.Unpin(fr2, false)
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	d := testDisk()
	f := mkFile(t, d, 10)
	p := New(d, 4*sim.PageSize)
	// Touch pages 0..3 filling the pool, then page 4 must evict page 0.
	for i := 0; i < 5; i++ {
		fr, err := p.Get(f, sim.PageNo(i))
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(fr, false)
	}
	if p.Resident() != 4 {
		t.Fatalf("resident = %d, want 4", p.Resident())
	}
	p.ResetStats()
	// Page 1 should still be resident (page 0 was LRU).
	fr, err := p.Get(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(fr, false)
	if p.Stats().Hits != 1 {
		t.Fatal("page 1 should have been resident")
	}
	// Page 0 was evicted.
	fr, err = p.Get(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(fr, false)
	if p.Stats().Misses != 1 {
		t.Fatal("page 0 should have been evicted")
	}
}

func TestDirtyWriteBack(t *testing.T) {
	d := testDisk()
	f := mkFile(t, d, 10)
	p := New(d, 4*sim.PageSize)
	fr, err := p.Get(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	fr.Data()[0] = 0xAB
	p.Unpin(fr, true)
	// Force eviction of page 2 by touching 4 other pages.
	for i := 5; i < 9; i++ {
		fr, err := p.Get(f, sim.PageNo(i))
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(fr, false)
	}
	if p.Stats().DirtyEvicts != 1 {
		t.Fatalf("DirtyEvicts = %d, want 1", p.Stats().DirtyEvicts)
	}
	// Re-read page 2 from disk: the mutation must be there.
	buf := make([]byte, sim.PageSize)
	if err := d.ReadPage(f, 2, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xAB {
		t.Fatal("dirty page not written back on eviction")
	}
}

func TestPinnedFramesAreNotEvicted(t *testing.T) {
	d := testDisk()
	f := mkFile(t, d, 10)
	p := New(d, 4*sim.PageSize)
	pinned, err := p.Get(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle many pages through the pool.
	for i := 1; i < 10; i++ {
		fr, err := p.Get(f, sim.PageNo(i))
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(fr, false)
	}
	p.ResetStats()
	again, err := p.Get(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again != pinned || p.Stats().Hits != 1 {
		t.Fatal("pinned frame was evicted")
	}
	p.Unpin(again, false)
	p.Unpin(pinned, false)
}

func TestPoolExhaustion(t *testing.T) {
	d := testDisk()
	f := mkFile(t, d, 10)
	p := New(d, 4*sim.PageSize)
	var frames []*Frame
	for i := 0; i < 4; i++ {
		fr, err := p.Get(f, sim.PageNo(i))
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, fr)
	}
	if _, err := p.Get(f, 9); err == nil {
		t.Fatal("Get with all frames pinned should fail")
	}
	for _, fr := range frames {
		p.Unpin(fr, false)
	}
	if _, err := p.Get(f, 9); err != nil {
		t.Fatalf("Get after unpin: %v", err)
	}
}

func TestUnpinPanicsWhenNotPinned(t *testing.T) {
	d := testDisk()
	f := mkFile(t, d, 2)
	p := New(d, 4*sim.PageSize)
	fr, err := p.Get(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(fr, false)
	defer func() {
		if recover() == nil {
			t.Fatal("double unpin should panic")
		}
	}()
	p.Unpin(fr, false)
}

func TestGetForScanReadAhead(t *testing.T) {
	d := testDisk()
	f := mkFile(t, d, 64)
	p := New(d, 64*sim.PageSize)
	p.SetReadAhead(8)
	d.ResetStats()
	clock0 := d.Clock()
	fr, err := p.GetForScan(f, 0, FullRun)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(fr, false)
	// One chained run of 8 pages: 12 ms positioning + 8 ms transfer.
	if got, want := d.Clock()-clock0, 20*time.Millisecond; got != want {
		t.Fatalf("scan miss cost %v, want %v", got, want)
	}
	// Pages 1..7 now hit.
	p.ResetStats()
	for i := 1; i < 8; i++ {
		fr, err := p.GetForScan(f, sim.PageNo(i), FullRun)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Data()[0] != byte(i) {
			t.Fatalf("page %d content wrong", i)
		}
		p.Unpin(fr, false)
	}
	if st := p.Stats(); st.Misses != 0 || st.Hits != 7 {
		t.Fatalf("read-ahead pages not resident: hits=%d misses=%d", st.Hits, st.Misses)
	}
}

// TestGetForScanReadsTheRunAskedFor: a caller that names its run gets that
// many pages in one chained read — one page alone for a run of 1 — and never
// more than the read-ahead length.
func TestGetForScanReadsTheRunAskedFor(t *testing.T) {
	for _, tc := range []struct{ run, reads int }{{1, 1}, {0, 1}, {3, 3}, {20, 8}} {
		d := testDisk()
		f := mkFile(t, d, 64)
		p := New(d, 64*sim.PageSize)
		p.SetReadAhead(8)
		d.ResetStats()
		fr, err := p.GetForScan(f, 10, tc.run)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(fr, false)
		if st := d.Stats(); int(st.Reads) != tc.reads || st.RandomOps != 1 {
			t.Fatalf("run %d: %d pages in %d positionings, want %d in 1", tc.run, st.Reads, st.RandomOps, tc.reads)
		}
		if got := p.Resident(); got != tc.reads {
			t.Fatalf("run %d: %d pages resident, want %d", tc.run, got, tc.reads)
		}
	}
}

func TestGetForScanClipsAtResidentPage(t *testing.T) {
	d := testDisk()
	f := mkFile(t, d, 16)
	p := New(d, 32*sim.PageSize)
	p.SetReadAhead(8)
	// Make page 3 resident and dirty.
	fr, err := p.Get(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	fr.Data()[0] = 0xEE
	p.Unpin(fr, true)
	// Scan from page 0: run must stop before page 3.
	fr, err = p.GetForScan(f, 0, FullRun)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(fr, false)
	fr, err = p.Get(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Data()[0] != 0xEE {
		t.Fatal("read-ahead clobbered a dirty resident page")
	}
	p.Unpin(fr, true)
}

func TestGetForScanEndOfFile(t *testing.T) {
	d := testDisk()
	f := mkFile(t, d, 5)
	p := New(d, 32*sim.PageSize)
	p.SetReadAhead(8)
	fr, err := p.GetForScan(f, 3, FullRun)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(fr, false)
	if _, err := p.GetForScan(f, 5, FullRun); err == nil {
		t.Fatal("scan past EOF should fail")
	}
}

func TestNewPage(t *testing.T) {
	d := testDisk()
	f := d.CreateFile()
	p := New(d, 8*sim.PageSize)
	fr, err := p.NewPage(f)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Page() != 0 {
		t.Fatalf("first new page = %d", fr.Page())
	}
	fr.Data()[0] = 0x11
	p.Unpin(fr, true)
	if err := p.FlushFile(f); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, sim.PageSize)
	if err := d.ReadPage(f, 0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x11 {
		t.Fatal("new page content not flushed")
	}
}

func TestFlushAllOrdersWrites(t *testing.T) {
	d := testDisk()
	f := mkFile(t, d, 20)
	p := New(d, 20*sim.PageSize)
	// Dirty pages 10..17 in random-ish order.
	for _, pg := range []sim.PageNo{14, 10, 17, 12, 11, 16, 13, 15} {
		fr, err := p.Get(f, pg)
		if err != nil {
			t.Fatal(err)
		}
		fr.Data()[1] = 0x22
		p.Unpin(fr, true)
	}
	d.ResetStats()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Writes != 8 {
		t.Fatalf("writes = %d, want 8", st.Writes)
	}
	// Ordered flush: first write random, the remaining 7 sequential.
	if st.SeqOps != 7 {
		t.Fatalf("sequential writes = %d, want 7", st.SeqOps)
	}
	// Second flush is a no-op.
	d.ResetStats()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Writes != 0 {
		t.Fatal("clean pages rewritten")
	}
}

func TestDropFileDiscardsFrames(t *testing.T) {
	d := testDisk()
	f := mkFile(t, d, 5)
	g := mkFile(t, d, 5)
	p := New(d, 16*sim.PageSize)
	for i := 0; i < 5; i++ {
		fr, err := p.Get(f, sim.PageNo(i))
		if err != nil {
			t.Fatal(err)
		}
		fr.Data()[0] = 0xFF
		p.Unpin(fr, true)
	}
	fr, err := p.Get(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(fr, false)
	d.ResetStats()
	if err := p.DropFile(f); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Writes != 0 {
		t.Fatal("DropFile should not write back dirty pages")
	}
	if p.Resident() != 1 {
		t.Fatalf("resident after drop = %d, want 1 (file g)", p.Resident())
	}
	if _, err := p.Get(f, 0); err == nil {
		t.Fatal("Get on dropped file should fail")
	}
}

func TestInvalidate(t *testing.T) {
	d := testDisk()
	f := mkFile(t, d, 3)
	p := New(d, 8*sim.PageSize)
	fr, err := p.Get(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	fr.Data()[0] = 0x99
	p.Unpin(fr, true)
	p.Invalidate(f)
	if p.Resident() != 0 {
		t.Fatal("Invalidate left frames resident")
	}
	// The dirty change is lost (simulating a crash).
	fr, err = p.Get(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Data()[0] == 0x99 {
		t.Fatal("Invalidate persisted a dirty page")
	}
	p.Unpin(fr, false)
	p.InvalidateAll()
	if p.Resident() != 0 {
		t.Fatal("InvalidateAll left frames")
	}
}

func TestMinimumCapacity(t *testing.T) {
	d := testDisk()
	p := New(d, 0)
	if p.Capacity() < 4 {
		t.Fatalf("capacity = %d, want >= 4", p.Capacity())
	}
}

// TestConcurrentAccessDisjointFiles exercises the pool's thread safety: two
// goroutines hammer disjoint files concurrently, as the bulk deleter and an
// updater do after the table lock is released.
func TestConcurrentAccessDisjointFiles(t *testing.T) {
	d := testDisk()
	f1 := mkFile(t, d, 50)
	f2 := mkFile(t, d, 50)
	p := New(d, 16*sim.PageSize)
	errs := make(chan error, 2)
	work := func(f sim.FileID) {
		for i := 0; i < 500; i++ {
			fr, err := p.Get(f, sim.PageNo(i%50))
			if err != nil {
				errs <- err
				return
			}
			fr.Data()[1] = byte(i)
			p.Unpin(fr, true)
		}
		errs <- nil
	}
	go work(f1)
	go work(f2)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

func TestGetForScanFallsBackWhenPinned(t *testing.T) {
	d := testDisk()
	f := mkFile(t, d, 32)
	p := New(d, 6*sim.PageSize) // capacity 6 (above the floor of 4)
	p.SetReadAhead(8)
	// Pin most of the pool so a full read-ahead run cannot fit.
	var pinned []*Frame
	for i := 0; i < 5; i++ {
		fr, err := p.Get(f, sim.PageNo(20+i))
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, fr)
	}
	// One frame left: the scan must fall back to a single-page fetch.
	fr, err := p.GetForScan(f, 0, FullRun)
	if err != nil {
		t.Fatalf("scan with crowded pool: %v", err)
	}
	if fr.Data()[0] != 0 {
		t.Fatal("wrong page content")
	}
	p.Unpin(fr, false)
	for _, fr := range pinned {
		p.Unpin(fr, false)
	}
}
