package buffer

import (
	"bytes"
	"testing"
	"time"

	"bulkdel/internal/sim"
)

// sweepCap is the pool size of the sweep tests: a dirty victim's window is
// itself and the sweepCap/sweepShare next-coldest frames.
const sweepCap = 64

// ref names a page to make resident, and whether to dirty it.
type ref struct {
	file  sim.FileID
	page  sim.PageNo
	dirty bool
}

// touch gets and unpins each page in turn, so the first ends coldest on the
// LRU list, stamping a dirty page's first byte with mark(i).
func touch(t *testing.T, p *Pool, refs ...ref) {
	t.Helper()
	for i, r := range refs {
		fr, err := p.Get(r.file, r.page)
		if err != nil {
			t.Fatal(err)
		}
		if r.dirty {
			fr.Data()[0] = mark(i)
		}
		p.Unpin(fr, r.dirty)
	}
}

func mark(i int) byte { return byte(0xD0 + i) }

// fillClean fills the pool with clean pages of file from page 0 on and
// returns the first page it left out.
func fillClean(t *testing.T, p *Pool, file sim.FileID) sim.PageNo {
	t.Helper()
	pg := sim.PageNo(0)
	for ; p.Resident() < p.Capacity(); pg++ {
		touch(t, p, ref{file: file, page: pg})
	}
	return pg
}

// onDisk returns the first byte of a page as the disk holds it.
func onDisk(t *testing.T, d *sim.Disk, file sim.FileID, page sim.PageNo) byte {
	t.Helper()
	buf := make([]byte, sim.PageSize)
	if err := d.ReadPage(file, page, buf); err != nil {
		t.Fatal(err)
	}
	return buf[0]
}

// frameOf returns the resident frame of a page, or nil.
func frameOf(p *Pool, file sim.FileID, page sim.PageNo) *Frame {
	return p.shards[0].frames[frameKey{file, page}]
}

// TestDirtyEvictionSweepsColdEnd: evicting a clean page writes nothing;
// evicting a dirty one writes every dirty frame of its window — the victim
// and the next sweepCap/sweepShare coldest — in (file, page) order, one
// positioning per file, and leaves them resident and clean. Clean frames,
// dirty frames past the window and a pinned dirty frame are not written.
func TestDirtyEvictionSweepsColdEnd(t *testing.T) {
	d := sim.NewDisk(sim.CostModel{
		Seek: 8 * time.Millisecond, Rotation: 4 * time.Millisecond,
		TransferPage: time.Millisecond, NearDistance: 16,
	})
	f, g, fill := mkFile(t, d, 8), mkFile(t, d, 8), mkFile(t, d, sweepCap)
	p := New(d, sweepCap*sim.PageSize)
	refs := []ref{
		{f, 7, false}, // the clean victim
		{f, 0, true},  // the dirty victim
		{g, 1, true},
		{f, 1, false},
		{f, 3, true}, // pinned below: off the LRU list, so out of the window
		{g, 0, true},
		{f, 2, true}, // the window's last frame
		{f, 6, true}, // past the window
	}
	touch(t, p, refs...)
	pinned, err := p.Get(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	fillClean(t, p, fill)
	// NewPage reads nothing: every I/O is the eviction's.
	evict := func() {
		d.ResetStats()
		p.ResetStats()
		fr, err := p.NewPage(fill)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(fr, true)
	}

	evict()
	if d.Stats().Writes != 0 || p.Stats().Swept != 0 {
		t.Fatalf("a clean eviction wrote %d pages", d.Stats().Writes)
	}
	evict()
	// f0, f2 (a short forward skip), g0 (another file), g1 (its successor).
	if st := d.Stats(); st.Writes != 4 || st.RandomOps != 2 || st.NearOps != 1 || st.SeqOps != 1 {
		t.Fatalf("sweep I/O: %d writes, %d random / %d near / %d seq; want 4 writes, 2/1/1",
			st.Writes, st.RandomOps, st.NearOps, st.SeqOps)
	}
	if st := p.Stats(); st.Evictions != 1 || st.DirtyEvicts != 1 || st.Swept != 4 {
		t.Fatalf("pool stats %+v, want 1 eviction, 1 dirty, 4 swept", st)
	}
	for i, r := range refs {
		unswept := r.file == f && (r.page == 3 || r.page == 6)
		swept := r.dirty && !unswept
		want := byte(r.page) // mkFile's content: the page was not written
		if swept {
			want = mark(i)
		}
		buf := make([]byte, sim.PageSize)
		if err := d.ReadPage(r.file, r.page, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != want {
			t.Errorf("page %d/%d on disk starts %#x, want %#x", r.file, r.page, buf[0], want)
		}
		fr := frameOf(p, r.file, r.page)
		if i < 2 { // the victims
			if fr != nil {
				t.Errorf("victim %d/%d is still resident", r.file, r.page)
			}
			continue
		}
		if swept && !bytes.Equal(buf, fr.Data()) {
			t.Errorf("page %d/%d: disk bytes differ from the frame's", r.file, r.page)
		}
		if fr.dirty.Load() != unswept {
			t.Errorf("page %d/%d: dirty = %v, want %v", r.file, r.page, fr.dirty.Load(), unswept)
		}
	}

	d.ResetStats()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if w := d.Stats().Writes; w != 4 { // f3, f6 and the two new pages
		t.Fatalf("flush after the sweep wrote %d pages, want 4", w)
	}
	p.Unpin(pinned, true)
}
