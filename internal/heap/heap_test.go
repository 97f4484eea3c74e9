package heap

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"bulkdel/internal/buffer"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
)

func testPool(budgetPages int) *buffer.Pool {
	d := sim.NewDisk(sim.CostModel{
		Seek:         8 * time.Millisecond,
		Rotation:     4 * time.Millisecond,
		TransferPage: 1 * time.Millisecond,
	})
	return buffer.New(d, budgetPages*sim.PageSize)
}

func rec(size int, tag byte) []byte {
	r := make([]byte, size)
	for i := range r {
		r[i] = tag
	}
	return r
}

func TestCreateInsertGet(t *testing.T) {
	p := testPool(16)
	f, err := Create(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := f.Insert(rec(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.Insert(rec(100, 2))
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Fatal("same RID for two records")
	}
	if r1.Page != 1 {
		t.Fatalf("first data page = %d, want 1", r1.Page)
	}
	got, err := f.Get(r2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Fatal("wrong record")
	}
	if f.Count() != 2 {
		t.Fatalf("count = %d", f.Count())
	}
	if _, err := f.Insert(rec(50, 3)); err == nil {
		t.Fatal("wrong-size insert should fail")
	}
}

func TestDeleteKeepsOtherRIDsStable(t *testing.T) {
	p := testPool(16)
	f, err := Create(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	var rids []record.RID
	for i := 0; i < 100; i++ {
		r, err := f.Insert(rec(64, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, r)
	}
	// Delete the even ones.
	for i := 0; i < 100; i += 2 {
		if err := f.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if f.Count() != 50 {
		t.Fatalf("count = %d, want 50", f.Count())
	}
	for i := 1; i < 100; i += 2 {
		got, err := f.Get(rids[i])
		if err != nil {
			t.Fatalf("survivor %d: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("survivor %d has wrong content", i)
		}
	}
	for i := 0; i < 100; i += 2 {
		if _, err := f.Get(rids[i]); err == nil {
			t.Fatalf("deleted record %d still readable", i)
		}
	}
	if err := f.Delete(rids[0]); err == nil {
		t.Fatal("double delete should fail")
	}
}

func TestFreedSpaceIsReused(t *testing.T) {
	p := testPool(16)
	f, err := Create(p, 500)
	if err != nil {
		t.Fatal(err)
	}
	var rids []record.RID
	for i := 0; i < 70; i++ { // 7 per page -> 10 pages
		r, err := f.Insert(rec(500, 1))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, r)
	}
	pagesBefore, _ := f.NumPages()
	for _, r := range rids[:35] {
		if err := f.Delete(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 35; i++ {
		if _, err := f.Insert(rec(500, 2)); err != nil {
			t.Fatal(err)
		}
	}
	pagesAfter, _ := f.NumPages()
	if pagesAfter != pagesBefore {
		t.Fatalf("file grew from %d to %d pages despite free space", pagesBefore, pagesAfter)
	}
}

func TestScanOrderAndContent(t *testing.T) {
	p := testPool(32)
	f, err := Create(p, 200)
	if err != nil {
		t.Fatal(err)
	}
	want := map[record.RID]byte{}
	for i := 0; i < 300; i++ {
		r, err := f.Insert(rec(200, byte(i%251)))
		if err != nil {
			t.Fatal(err)
		}
		want[r] = byte(i % 251)
	}
	var prev record.RID
	first := true
	seen := 0
	err = f.Scan(func(rid record.RID, rec []byte) error {
		if !first && !prev.Less(rid) {
			return fmt.Errorf("scan out of order: %s then %s", prev, rid)
		}
		first = false
		prev = rid
		w, ok := want[rid]
		if !ok {
			return fmt.Errorf("scan surfaced unknown rid %s", rid)
		}
		if rec[0] != w {
			return fmt.Errorf("rid %s content mismatch", rid)
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 300 {
		t.Fatalf("scan saw %d records, want 300", seen)
	}
}

func TestScanStopsOnError(t *testing.T) {
	p := testPool(16)
	f, err := Create(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := f.Insert(rec(100, 0)); err != nil {
			t.Fatal(err)
		}
	}
	calls := 0
	sentinel := fmt.Errorf("stop")
	err = f.Scan(func(record.RID, []byte) error {
		calls++
		if calls == 10 {
			return sentinel
		}
		return nil
	})
	if err != sentinel || calls != 10 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestScanIsSequential(t *testing.T) {
	p := testPool(64)
	f, err := Create(p, 500)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 700; i++ { // 100 data pages
		if _, err := f.Insert(rec(500, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	p.InvalidateAll()
	d := p.Disk()
	d.ResetStats()
	if err := f.Scan(func(record.RID, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	// 700 records at 8 per page = 88 data pages; with read-ahead 32
	// (capped at capacity/2 = 32) only a handful of positioning charges.
	if st.RandomOps > 6 {
		t.Fatalf("scan paid %d positioning charges for 88 pages", st.RandomOps)
	}
	if st.Reads < 88 {
		t.Fatalf("scan read %d pages, want >= 88", st.Reads)
	}
}

func TestOpenRecountsAndValidates(t *testing.T) {
	p := testPool(32)
	f, err := Create(p, 128)
	if err != nil {
		t.Fatal(err)
	}
	var rids []record.RID
	for i := 0; i < 40; i++ {
		r, err := f.Insert(rec(128, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, r)
	}
	for _, r := range rids[:10] {
		if err := f.Delete(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	g, err := Open(p, f.ID())
	if err != nil {
		t.Fatal(err)
	}
	if g.Count() != 30 {
		t.Fatalf("reopened count = %d, want 30", g.Count())
	}
	if g.RecordSize() != 128 {
		t.Fatalf("reopened recSize = %d", g.RecordSize())
	}
	// Freed space must be rediscovered.
	r, err := g.Insert(rec(128, 0xEE))
	if err != nil {
		t.Fatal(err)
	}
	if r.Page >= 3 { // 40 recs at 31/page: everything fits in pages 1-2
		t.Fatalf("insert after reopen went to page %d instead of reusing space", r.Page)
	}
	// Opening a non-heap file fails.
	other := p.Disk().CreateFile()
	if _, err := p.Disk().Allocate(other); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(p, other); err == nil {
		t.Fatal("Open on a non-heap file should succeed only for heap files")
	}
}

func TestUpdate(t *testing.T) {
	p := testPool(16)
	f, err := Create(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.Insert(rec(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Update(r, rec(100, 9)); err != nil {
		t.Fatal(err)
	}
	got, err := f.Get(r)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 {
		t.Fatal("update not visible")
	}
	if err := f.Update(r, rec(50, 9)); err == nil {
		t.Fatal("wrong-size update should fail")
	}
}

func TestPageEditor(t *testing.T) {
	p := testPool(32)
	f, err := Create(p, 500)
	if err != nil {
		t.Fatal(err)
	}
	var rids []record.RID
	for i := 0; i < 35; i++ { // 5 data pages
		r, err := f.Insert(rec(500, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, r)
	}
	ed, err := f.EditPages()
	if err != nil {
		t.Fatal(err)
	}
	if ed.NumDataPages() != 5 {
		t.Fatalf("NumDataPages = %d, want 5", ed.NumDataPages())
	}
	// Delete slot 0 of every page via the editor.
	for pg := sim.PageNo(1); pg <= 5; pg++ {
		if _, err := ed.Seek(pg, pg); err != nil {
			t.Fatal(err)
		}
		if err := ed.DeleteSlot(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := ed.DeleteSlot(0); err == nil {
		t.Fatal("double delete via editor should fail")
	}
	ed.Close()
	if f.Count() != 30 {
		t.Fatalf("count = %d, want 30", f.Count())
	}
	// Seek outside range.
	ed2, _ := f.EditPages()
	if _, err := ed2.Seek(0, 0); err == nil {
		t.Fatal("seek to header page should fail")
	}
	if _, err := ed2.Seek(99, 99); err == nil {
		t.Fatal("seek past EOF should fail")
	}
	if err := ed2.DeleteSlot(1); err == nil {
		t.Fatal("DeleteSlot before Seek should fail")
	}
	ed2.Close()
}

// TestQuickHeapAgainstMap drives the heap with random insert/delete/get
// against a reference map.
func TestQuickHeapAgainstMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := testPool(64)
		h, err := Create(p, 64)
		if err != nil {
			t.Log(err)
			return false
		}
		ref := map[record.RID]byte{}
		for op := 0; op < 500; op++ {
			switch rng.Intn(4) {
			case 0, 1: // insert
				tag := byte(rng.Intn(256))
				r, err := h.Insert(rec(64, tag))
				if err != nil {
					t.Log(err)
					return false
				}
				if _, dup := ref[r]; dup {
					t.Logf("rid %s reused while live", r)
					return false
				}
				ref[r] = tag
			case 2: // delete
				for r := range ref {
					if err := h.Delete(r); err != nil {
						t.Log(err)
						return false
					}
					delete(ref, r)
					break
				}
			case 3: // get
				for r, tag := range ref {
					got, err := h.Get(r)
					if err != nil || got[0] != tag {
						t.Logf("get %s: %v", r, err)
						return false
					}
					break
				}
			}
		}
		if h.Count() != int64(len(ref)) {
			t.Logf("count %d vs ref %d", h.Count(), len(ref))
			return false
		}
		// Full scan agreement.
		seen := 0
		err = h.Scan(func(rid record.RID, rc []byte) error {
			tag, ok := ref[rid]
			if !ok || rc[0] != tag {
				return fmt.Errorf("scan mismatch at %s", rid)
			}
			seen++
			return nil
		})
		if err != nil {
			t.Log(err)
			return false
		}
		return seen == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestDrop(t *testing.T) {
	p := testPool(16)
	f, err := Create(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Insert(rec(100, 1)); err != nil {
		t.Fatal(err)
	}
	if err := f.Drop(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Insert(rec(100, 1)); err == nil {
		t.Fatal("insert after drop should fail")
	}
}

func TestEditorInPlaceMutationDurability(t *testing.T) {
	p := testPool(32)
	f, err := Create(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	var rids []record.RID
	for i := 0; i < 20; i++ {
		r, err := f.Insert(rec(64, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, r)
	}
	ed, err := f.EditPages()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := ed.Seek(rids[0].Page, rids[0].Page)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := sp.Get(int(rids[0].Slot))
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 0xEE // in-place mutation through the aliased record bytes
	ed.MarkDirty()
	// A flush taken while the editor still pins the page must include
	// the mutation (checkpoint semantics).
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	ed.Close()
	p.InvalidateAll()
	got, err := f.Get(rids[0])
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xEE {
		t.Fatal("in-place mutation lost despite MarkDirty + flush")
	}
	// MarkDirty without a seek is a harmless no-op.
	ed2, _ := f.EditPages()
	ed2.MarkDirty()
	ed2.Close()
}

// TestGetReportsNoRecord: Get of a dead slot, of a page past the end and of
// a truncated page is ErrNoRecord; a read the disk fails is not.
func TestGetReportsNoRecord(t *testing.T) {
	p := testPool(16)
	f, err := Create(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := f.Insert(rec(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.Insert(rec(100, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Delete(r1); err != nil {
		t.Fatal(err)
	}
	past := record.RID{Page: r2.Page + 5}
	for _, rid := range []record.RID{r1, past} {
		if _, err := f.Get(rid); !errors.Is(err, ErrNoRecord) {
			t.Fatalf("Get(%s) = %v, want ErrNoRecord", rid, err)
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	p.Invalidate(f.ID())
	p.Disk().SetFaultPlan(sim.NewFaultPlan().CrashAtIO(1))
	if _, err := f.Get(r2); !sim.IsCrash(err) || errors.Is(err, ErrNoRecord) {
		t.Fatalf("Get on a failed disk = %v, want the crash alone", err)
	}
	p.Disk().SetFaultPlan(nil)
	if err := f.TruncateWith(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Get(r2); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("Get after TruncateWith(nil) = %v, want ErrNoRecord", err)
	}
}

// TestGetSurvivesFrameRecycling: a record Get returned stays intact while
// an eviction storm on a 4-frame pool recycles every frame, the one its page
// was read into included.
func TestGetSurvivesFrameRecycling(t *testing.T) {
	p := testPool(4)
	f, err := Create(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	var rids []record.RID
	for i := 0; i < 400; i++ {
		rid, err := f.Insert(rec(100, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	got, err := f.Get(rids[0])
	if err != nil {
		t.Fatal(err)
	}
	evictions := p.Stats().Evictions
	for i, rid := range rids {
		if err := f.Update(rid, rec(100, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if p.Stats().Evictions-evictions < 4 {
		t.Fatal("the storm did not cycle the pool")
	}
	if !bytes.Equal(got, rec(100, 0)) {
		t.Fatal("a record returned by Get changed when its frame was recycled")
	}
}
