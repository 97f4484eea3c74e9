package buffer

import (
	"testing"

	"bulkdel/internal/sim"
)

// TestUnpinColdIsNextVictim: a frame unpinned cold is evicted before every
// frame unpinned the plain way, the least recently used included.
func TestUnpinColdIsNextVictim(t *testing.T) {
	d := testDisk()
	f := mkFile(t, d, 8)
	p := New(d, 4*sim.PageSize)
	touch(t, p, ref{file: f, page: 0}, ref{file: f, page: 1}, ref{file: f, page: 2})
	fr, err := p.Get(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	p.UnpinCold(fr, false)
	touch(t, p, ref{file: f, page: 4})
	if frameOf(p, f, 3) != nil {
		t.Fatal("the cold frame is still resident")
	}
	for pg := range sim.PageNo(3) {
		if frameOf(p, f, pg) == nil {
			t.Fatalf("page %d was evicted before the cold frame", pg)
		}
	}
}

// TestUnpinColdLeavesPinnedFrame: a cold unpin that is not the last pin
// leaves the frame pinned and off the LRU list; the last, plain, unpin puts
// it at the hot end.
func TestUnpinColdLeavesPinnedFrame(t *testing.T) {
	d := testDisk()
	f := mkFile(t, d, 8)
	p := New(d, 4*sim.PageSize)
	touch(t, p, ref{file: f, page: 0}, ref{file: f, page: 1}, ref{file: f, page: 2})
	a, err := p.Get(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Get(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	p.UnpinCold(a, false)
	if a.pins != 1 || a.prev != nil {
		t.Fatalf("after one of two unpins: %d pins, on the LRU list %v", a.pins, a.prev != nil)
	}
	touch(t, p, ref{file: f, page: 4}) // evicts page 0; page 3 is pinned
	if frameOf(p, f, 3) == nil || frameOf(p, f, 0) != nil {
		t.Fatal("the eviction took the pinned frame, or not the least recently used one")
	}
	p.Unpin(b, false)
	touch(t, p, ref{file: f, page: 5}) // evicts page 1, not the page unpinned last
	if frameOf(p, f, 3) == nil || frameOf(p, f, 1) != nil {
		t.Fatal("the frame's last, plain unpin did not put it at the hot end")
	}
}

// TestColdDirtyVictimsAreWrittenInPageOrder: resident pages a caller
// dirties and unpins cold in page order — a refill filling the pages of one
// chained read — are the next victims however recently they were used, and
// the first one's eviction sweep writes them all, in page order, at one
// positioning.
func TestColdDirtyVictimsAreWrittenInPageOrder(t *testing.T) {
	d := testDisk()
	f, fill := mkFile(t, d, 8), mkFile(t, d, sweepCap)
	p := New(d, sweepCap*sim.PageSize)
	hot := []ref{{file: f, page: 0}, {file: f, page: 1}, {file: f, page: 2}, {file: f, page: 3}}
	touch(t, p, hot...)
	fillClean(t, p, fill)
	touch(t, p, hot...) // the most recently used frames
	for pg := range sim.PageNo(4) {
		fr, err := p.Get(f, pg)
		if err != nil {
			t.Fatal(err)
		}
		fr.Data()[0] = mark(int(pg))
		p.UnpinCold(fr, true)
	}
	d.ResetStats()
	p.ResetStats()
	fr, err := p.NewPage(fill)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(fr, true)
	if st := d.Stats(); st.Writes != 4 || st.RandomOps != 1 || st.SeqOps != 3 {
		t.Fatalf("sweep I/O: %d writes, %d random / %d seq; want 4 writes, 1/3", st.Writes, st.RandomOps, st.SeqOps)
	}
	if st := p.Stats(); st.Evictions != 1 || st.DirtyEvicts != 1 || st.Swept != 4 {
		t.Fatalf("pool stats %+v, want 1 eviction, 1 dirty, 4 swept", st)
	}
	for pg := range sim.PageNo(4) {
		if got := onDisk(t, d, f, pg); got != mark(int(pg)) {
			t.Errorf("page %d on disk starts %#x, want %#x", pg, got, mark(int(pg)))
		}
	}
	if frameOf(p, f, 3) != nil {
		t.Error("the last page unpinned cold is still resident")
	}
}
