package buffer

import (
	"strings"
	"testing"

	"bulkdel/internal/sim"
)

// retire retires pages of file and fails the test on an error.
func retire(t *testing.T, p *Pool, file sim.FileID, pages ...sim.PageNo) {
	t.Helper()
	if err := p.Retire(file, pages); err != nil {
		t.Fatal(err)
	}
}

// TestRetiredFrameIsNextVictim: a retired frame is evicted before every
// frame unpinned the plain way, the least recently used included.
func TestRetiredFrameIsNextVictim(t *testing.T) {
	d := testDisk()
	f := mkFile(t, d, 8)
	p := New(d, 4*sim.PageSize)
	touch(t, p, ref{file: f, page: 0}, ref{file: f, page: 1}, ref{file: f, page: 2}, ref{file: f, page: 3})
	retire(t, p, f, 3)
	touch(t, p, ref{file: f, page: 4})
	if frameOf(p, f, 3) != nil {
		t.Fatal("the retired frame is still resident")
	}
	for pg := range sim.PageNo(3) {
		if frameOf(p, f, pg) == nil {
			t.Fatalf("page %d was evicted before the retired frame", pg)
		}
	}
}

// TestRetireSkipsPinnedFrame: a retire of a frame that still holds a pin
// leaves it pinned, off the LRU list and dirty; its last, plain, unpin puts
// it at the hot end.
func TestRetireSkipsPinnedFrame(t *testing.T) {
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
	p.Unpin(a, true)
	d.ResetStats()
	retire(t, p, f, 3)
	if a.pins != 1 || a.prev != nil || !a.dirty.Load() || d.Stats().Writes != 0 {
		t.Fatalf("after a retire of a pinned frame: %d pins, on the LRU list %v, dirty %v, %d writes",
			a.pins, a.prev != nil, a.dirty.Load(), d.Stats().Writes)
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

// TestRetireWritesDirtyFramesInPageOrder: a retire writes the dirty frames
// it is handed, whatever their order, in page order at one positioning, and
// leaves them resident and clean; a clean frame is not rewritten and a page
// not resident is not read. The retired frames are then the next victims
// however recently they were used, and evicting them writes nothing.
func TestRetireWritesDirtyFramesInPageOrder(t *testing.T) {
	d := testDisk()
	f, fill := mkFile(t, d, 8), mkFile(t, d, sweepCap)
	p := New(d, sweepCap*sim.PageSize)
	hot := []ref{{file: f, page: 0}, {file: f, page: 1}, {file: f, page: 2}, {file: f, page: 3}, {file: f, page: 4}}
	touch(t, p, hot...)
	next := fillClean(t, p, fill)
	for pg := range sim.PageNo(4) { // pages 0-3 dirty, page 4 clean
		fr, err := p.Get(f, pg)
		if err != nil {
			t.Fatal(err)
		}
		fr.Data()[0] = mark(int(pg))
		p.Unpin(fr, true)
	}
	touch(t, p, ref{file: f, page: 4}) // the most recently used frame
	d.ResetStats()
	p.ResetStats()
	retire(t, p, f, 3, 6, 1, 4, 0, 2)
	if st := d.Stats(); st.Writes != 4 || st.Reads != 0 || st.RandomOps != 1 || st.SeqOps != 3 {
		t.Fatalf("retire I/O: %d writes, %d reads, %d random / %d seq; want 4 writes, 0 reads, 1/3",
			st.Writes, st.Reads, st.RandomOps, st.SeqOps)
	}
	for pg := range sim.PageNo(5) {
		want := mark(int(pg))
		if pg == 4 {
			want = byte(pg) // mkFile's content: the clean page was not written
		}
		if got := onDisk(t, d, f, pg); got != want {
			t.Errorf("page %d on disk starts %#x, want %#x", pg, got, want)
		}
		if fr := frameOf(p, f, pg); fr == nil || fr.dirty.Load() {
			t.Errorf("page %d after the retire: resident %v, want resident and clean", pg, fr != nil)
		}
	}
	if frameOf(p, f, 6) != nil {
		t.Error("the retire read a page that was not resident")
	}
	d.ResetStats()
	touch(t, p, ref{file: fill, page: next}, ref{file: fill, page: next + 1}, ref{file: fill, page: next + 2},
		ref{file: fill, page: next + 3}, ref{file: fill, page: next + 4})
	if st := d.Stats(); st.Writes != 0 {
		t.Fatalf("evicting the retired frames wrote %d pages", st.Writes)
	}
	if st := p.Stats(); st.Evictions != 5 || st.DirtyEvicts != 0 {
		t.Fatalf("pool stats %+v, want 5 clean evictions", st)
	}
	for pg := range sim.PageNo(5) {
		if frameOf(p, f, pg) != nil {
			t.Errorf("retired page %d is still resident", pg)
		}
	}
}

// TestRetireWriteFaultKeepsFramesDirty: a write failing in the middle of a
// retire leaves the pages written before it clean, and the rest resident,
// dirty and on the LRU list; the error names the page, and a retry writes
// exactly the pages left dirty.
func TestRetireWriteFaultKeepsFramesDirty(t *testing.T) {
	d := testDisk()
	f := mkFile(t, d, 8)
	p := New(d, 8*sim.PageSize)
	refs := []ref{{f, 0, true}, {f, 1, true}, {f, 2, true}, {f, 3, true}}
	touch(t, p, refs...)
	d.SetFaultPlan(sim.NewFaultPlan().FailWriteAt(2, nil))
	err := p.Retire(f, []sim.PageNo{0, 1, 2, 3})
	if err == nil || !strings.Contains(err.Error(), "buffer: retiring dirty page 0/1") {
		t.Fatalf("err = %v, want retire context naming the failed page 0/1", err)
	}
	d.SetFaultPlan(nil)
	for _, r := range refs {
		fr := frameOf(p, r.file, r.page)
		if fr == nil || fr.prev == nil || fr.dirty.Load() != (r.page != 0) {
			t.Fatalf("page %d after the failed retire: resident %v, want resident, on the LRU list, dirty = %v",
				r.page, fr != nil, r.page != 0)
		}
	}
	d.ResetStats()
	retire(t, p, f, 0, 1, 2, 3)
	if w := d.Stats().Writes; w != 3 {
		t.Fatalf("retry wrote %d pages, want the 3 left dirty", w)
	}
	for i, r := range refs {
		if got := onDisk(t, d, r.file, r.page); got != mark(i) {
			t.Errorf("page %d on disk starts %#x, want %#x", r.page, got, mark(i))
		}
	}
}
