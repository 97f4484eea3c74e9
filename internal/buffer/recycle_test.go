package buffer

import (
	"bytes"
	"testing"

	"bulkdel/internal/sim"
)

// TestNewPageWithAllFramesPinnedLeavesFileAlone: NewPage makes room before
// it allocates, so a pool whose frames are all pinned fails without leaving
// the file a never-formatted page longer.
func TestNewPageWithAllFramesPinnedLeavesFileAlone(t *testing.T) {
	d := testDisk()
	f := mkFile(t, d, 4)
	p := New(d, 4*sim.PageSize)
	var pinned []*Frame
	for i := 0; i < 4; i++ {
		fr, err := p.Get(f, sim.PageNo(i))
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, fr)
	}
	if _, err := p.NewPage(f); err == nil {
		t.Fatal("NewPage with every frame pinned should fail")
	}
	if n, err := d.NumPages(f); err != nil || n != 4 {
		t.Fatalf("file has %d pages after the failed NewPage (err %v), want 4", n, err)
	}
	for _, fr := range pinned {
		p.Unpin(fr, false)
	}
}

// TestWarmPoolAllocatesNothing: once a shard has made its frames, a hit, a
// miss and a new page all run on recycled frames and intrusive LRU links.
func TestWarmPoolAllocatesNothing(t *testing.T) {
	d := testDisk()
	g := mkFile(t, d, 4*sweepCap)
	p := New(d, sweepCap*sim.PageSize)
	next := fillClean(t, p, g)
	get := func(pg sim.PageNo) {
		fr, err := p.Get(g, pg)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(fr, false)
	}

	if n := testing.AllocsPerRun(100, func() { get(0) }); n != 0 {
		t.Errorf("Get hit + Unpin: %v allocations, want 0", n)
	}

	// Cycling over more pages than frames misses on every Get, and each
	// victim is clean.
	p.ResetStats()
	if n := testing.AllocsPerRun(100, func() { get(next); next = (next + 1) % (4 * sweepCap) }); n != 0 {
		t.Errorf("Get miss evicting a clean frame: %v allocations, want 0", n)
	}
	if st := p.Stats(); st.Hits != 0 || st.DirtyEvicts != 0 {
		t.Fatalf("miss loop: %d hits, %d dirty evictions, want 0 and 0", st.Hits, st.DirtyEvicts)
	}

	// The pool holds sweepCap clean pages of g, so the first sweepCap new
	// pages each recycle a clean victim's frame.
	f := mkFile(t, d, sweepCap)
	if n := testing.AllocsPerRun(sweepCap/2, func() {
		fr, err := p.NewPage(f)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(fr, true)
	}); n != 0 {
		t.Errorf("NewPage on a recycled frame: %v allocations, want 0", n)
	}
}

// TestRecycledFramesAreIsolated: a recycled frame carries nothing of the
// page it held before — not its bytes, not its dirty bit, not its map key.
func TestRecycledFramesAreIsolated(t *testing.T) {
	ones := bytes.Repeat([]byte{0xFF}, sim.PageSize)

	t.Run("NewPage after a dirty page starts zeroed", func(t *testing.T) {
		d := testDisk()
		g := mkFile(t, d, 4)
		f := d.CreateFile()
		p := New(d, 4*sim.PageSize)
		var old []*Frame
		for i := 0; i < 4; i++ {
			fr, err := p.Get(g, sim.PageNo(i))
			if err != nil {
				t.Fatal(err)
			}
			copy(fr.Data(), ones)
			p.Unpin(fr, true)
			old = append(old, fr)
		}
		fr, err := p.NewPage(f)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Unpin(fr, true)
		if fr != old[0] {
			t.Fatal("NewPage did not recycle the evicted frame")
		}
		if !bytes.Equal(fr.Data(), make([]byte, sim.PageSize)) {
			t.Fatal("new page on a recycled frame is not all zero")
		}
		if onDisk(t, d, g, 0) != 0xFF {
			t.Fatal("the dirty victim was not written back")
		}
	})

	t.Run("a recycled frame shows only its new page", func(t *testing.T) {
		d := testDisk()
		g := mkFile(t, d, 4)
		h := mkFile(t, d, 2)
		if _, err := d.Allocate(h); err != nil { // page 2: allocated, never written
			t.Fatal(err)
		}
		p := New(d, 4*sim.PageSize)
		for i := 0; i < 4; i++ {
			fr, err := p.Get(g, sim.PageNo(i))
			if err != nil {
				t.Fatal(err)
			}
			copy(fr.Data(), ones)
			p.Unpin(fr, false) // the scribble is never written back
		}
		for pg := sim.PageNo(0); pg < 3; pg++ {
			fr, err := p.Get(h, pg)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, sim.PageSize)
			if err := d.ReadPage(h, pg, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fr.Data(), want) {
				t.Errorf("page %d/%d on a recycled frame differs from its disk image", h, pg)
			}
			p.Unpin(fr, false)
		}
	})

	for _, tc := range []struct {
		name    string
		discard func(*Pool, sim.FileID) error
	}{
		{"DropFile", (*Pool).DropFile},
		{"Invalidate", func(p *Pool, f sim.FileID) error { p.Invalidate(f); return nil }},
	} {
		t.Run("a frame freed by "+tc.name+" loses its old key", func(t *testing.T) {
			d := testDisk()
			f := mkFile(t, d, 4)
			g := mkFile(t, d, 4)
			p := New(d, 4*sim.PageSize)
			freed := map[*Frame]bool{}
			for i := 0; i < 4; i++ {
				fr, err := p.Get(f, sim.PageNo(i))
				if err != nil {
					t.Fatal(err)
				}
				copy(fr.Data(), ones)
				p.Unpin(fr, true)
				freed[fr] = true
			}
			if err := tc.discard(p, f); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				fr, err := p.Get(g, sim.PageNo(i))
				if err != nil {
					t.Fatal(err)
				}
				if !freed[fr] {
					t.Fatalf("page %d/%d got a new frame, want a freed one", g, i)
				}
				if fr.Data()[0] != byte(i) || fr.dirty.Load() {
					t.Fatalf("page %d/%d on a freed frame: first byte %#x, dirty %v", g, i, fr.Data()[0], fr.dirty.Load())
				}
				p.Unpin(fr, false)
			}
			s := p.shardOf(g)
			s.mu.Lock()
			defer s.mu.Unlock()
			if len(s.frames) != 4 {
				t.Fatalf("%d frames mapped, want 4", len(s.frames))
			}
			for k, fr := range s.frames {
				if k.file != g || fr.file != k.file || fr.page != k.page {
					t.Errorf("key %d/%d maps a frame holding %d/%d", k.file, k.page, fr.file, fr.page)
				}
			}
		})
	}
}
