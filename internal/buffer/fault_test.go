package buffer

import (
	"errors"
	"strings"
	"testing"

	"bulkdel/internal/sim"
)

func TestReadErrorWrapsFileAndPage(t *testing.T) {
	d := testDisk()
	f := mkFile(t, d, 4)
	p := New(d, 4*sim.PageSize)
	d.SetFaultPlan(sim.NewFaultPlan().FailReadAt(1, nil))
	_, err := p.Get(f, 2)
	if err == nil {
		t.Fatal("Get should fail")
	}
	if !strings.Contains(err.Error(), "buffer: reading page 0/2") {
		t.Fatalf("err = %v, want buffer context naming file 0 page 2", err)
	}
	if !errors.Is(err, sim.ErrInjected) {
		t.Fatalf("err = %v, want it to unwrap to sim.ErrInjected", err)
	}
	var fe *sim.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *sim.FaultError retrievable", err)
	}
	// The pool stays usable after the fault.
	fr, err := p.Get(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(fr, false)
}

func TestScanReadErrorWrapsRange(t *testing.T) {
	d := testDisk()
	f := mkFile(t, d, 12)
	p := New(d, 16*sim.PageSize)
	d.SetFaultPlan(sim.NewFaultPlan().FailReadAt(2, nil))
	_, err := p.GetForScan(f, 0, FullRun)
	if err == nil {
		t.Fatal("GetForScan should fail")
	}
	if !strings.Contains(err.Error(), "buffer: chained read of pages 0/") {
		t.Fatalf("err = %v, want chained-read context", err)
	}
	if !errors.Is(err, sim.ErrInjected) {
		t.Fatalf("err = %v, want injected cause preserved", err)
	}
}

func TestEvictWriteBackErrorKeepsFrameResident(t *testing.T) {
	d := testDisk()
	f := mkFile(t, d, 8)
	p := New(d, 4*sim.PageSize) // minimum capacity: 4 frames
	// Dirty one page, then fill the pool so the next Get must evict it.
	fr, err := p.Get(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	fr.Data()[0] = 0xEE
	p.Unpin(fr, true)
	for pg := sim.PageNo(1); pg <= 3; pg++ {
		fr, err := p.Get(f, pg)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(fr, false)
	}
	d.SetFaultPlan(sim.NewFaultPlan().FailWriteAt(1, nil))
	_, err = p.Get(f, 4)
	if err == nil {
		t.Fatal("Get requiring a failing eviction should fail")
	}
	if !strings.Contains(err.Error(), "buffer: evicting dirty page 0/0") {
		t.Fatalf("err = %v, want eviction context naming file 0 page 0", err)
	}
	// The victim frame must still be resident, dirty, and evictable: the
	// retry succeeds and the mutation reaches disk.
	if p.Resident() != 4 {
		t.Fatalf("resident = %d after failed eviction, want 4", p.Resident())
	}
	fr, err = p.Get(f, 4)
	if err != nil {
		t.Fatalf("retry after failed eviction: %v", err)
	}
	p.Unpin(fr, false)
	buf := make([]byte, sim.PageSize)
	if err := d.ReadPage(f, 0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xEE {
		t.Fatal("dirty page lost by failed eviction")
	}

	// A write failing in the middle of a sweep: the pages before it are on
	// disk and clean, the rest — the victim, which sorts last, among them —
	// stay dirty and resident, and the retry writes every one of them.
	d = testDisk()
	f, g, fill := mkFile(t, d, 8), mkFile(t, d, 8), mkFile(t, d, sweepCap)
	p = New(d, sweepCap*sim.PageSize)
	refs := []ref{{g, 0, true}, {f, 1, true}, {f, 2, true}, {f, 4, true}}
	touch(t, p, refs...)
	next := fillClean(t, p, fill)
	d.SetFaultPlan(sim.NewFaultPlan().FailWriteAt(2, nil))
	_, err = p.Get(fill, next)
	if err == nil || !strings.Contains(err.Error(), "buffer: evicting dirty page 0/2") {
		t.Fatalf("err = %v, want eviction context naming the failed page 0/2", err)
	}
	if p.Resident() != sweepCap {
		t.Fatalf("resident = %d after failed sweep, want %d", p.Resident(), sweepCap)
	}
	for _, r := range refs {
		written := r.file == f && r.page == 1 // first in (file, page) order
		fr := frameOf(p, r.file, r.page)
		if fr == nil || fr.dirty.Load() == written {
			t.Fatalf("page %d/%d after the failed sweep: resident %v, want resident and dirty = %v",
				r.file, r.page, fr != nil, !written)
		}
	}
	d.ResetStats()
	fr, err = p.Get(fill, next)
	if err != nil {
		t.Fatalf("retry after failed sweep: %v", err)
	}
	p.Unpin(fr, false)
	if w := d.Stats().Writes; w != 3 {
		t.Fatalf("retry wrote %d pages, want the 3 left dirty", w)
	}
	for i, r := range refs {
		if got := onDisk(t, d, r.file, r.page); got != mark(i) {
			t.Errorf("page %d/%d on disk starts %#x, want %#x", r.file, r.page, got, mark(i))
		}
	}
}

func TestFlushFileErrorWrapsFileAndPage(t *testing.T) {
	d := testDisk()
	f := mkFile(t, d, 4)
	p := New(d, 8*sim.PageSize)
	fr, err := p.Get(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	fr.Data()[0] = 1
	p.Unpin(fr, true)
	d.SetFaultPlan(sim.NewFaultPlan().FailWriteAt(1, nil))
	err = p.FlushFile(f)
	if err == nil || !strings.Contains(err.Error(), "buffer: flushing dirty page 0/3") {
		t.Fatalf("FlushFile err = %v, want flush context naming file 0 page 3", err)
	}
	d.SetFaultPlan(nil)
	if err := p.FlushAll(); err != nil {
		t.Fatalf("flush after fault cleared: %v", err)
	}
}
