package heap

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"bulkdel/internal/page"
	"bulkdel/internal/record"
)

// Latch regression for the Compact torn-read window demonstrated in
// internal/page's TestCompactTornReadWindow: an Insert that triggers a page
// compaction rewrites live record bytes in place, and an MVCC snapshot
// reader is allowed to Get from the same heap concurrently. The file latch
// must make the reader wait out the compaction and then observe whole
// records. Run with -race: the page bytes are shared memory, so a latch
// regression is a data race as well as a torn read.
func TestGetBlocksDuringInsertCompaction(t *testing.T) {
	pool := testPool(16)
	// 1300-byte records: three per 4096-byte page, so filling a page, the
	// delete of its middle record, and one more insert deterministically
	// forces that page through Compact.
	const recSize = 1300
	if c := page.Capacity(recSize); c != 3 {
		t.Fatalf("page.Capacity(%d) = %d, want 3 (layout drifted; pick a new size)", recSize, c)
	}
	f, err := Create(pool, recSize)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := f.Insert(rec(recSize, 1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.Insert(rec(recSize, 2))
	if err != nil {
		t.Fatal(err)
	}
	r3, err := f.Insert(rec(recSize, 3))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Page != r2.Page || r2.Page != r3.Page {
		t.Fatalf("records spread over pages %v %v %v, want one page", r1, r2, r3)
	}
	if err := f.Delete(r2); err != nil {
		t.Fatal(err)
	}

	// Park the inserter inside the page compaction its insert triggers.
	inCompact := make(chan struct{})
	release := make(chan struct{})
	f.PageHooks.MidCompact = func() {
		f.PageHooks.MidCompact = nil // fire once; latch already held
		close(inCompact)
		<-release
	}
	defer func() { f.PageHooks.MidCompact = nil }()

	insDone := make(chan record.RID, 1)
	go func() {
		rid, err := f.Insert(rec(recSize, 4))
		if err != nil {
			t.Error(err)
		}
		insDone <- rid
	}()
	<-inCompact

	// The reader must block on the latch: the compaction is mid-rewrite and
	// r1/r3's slots may point at half-moved bytes.
	var got atomic.Pointer[[]byte]
	readDone := make(chan error, 1)
	go func() {
		b, err := f.Get(r3)
		got.Store(&b)
		readDone <- err
	}()
	select {
	case <-readDone:
		t.Fatal("Get returned while the page compaction was mid-rewrite (latch not held?)")
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-readDone; err != nil {
		t.Fatal(err)
	}
	if b := *got.Load(); !bytes.Equal(b, rec(recSize, 3)) {
		t.Fatalf("Get(r3) after compaction: got tag %d bytes, want whole record of 3s", b[0])
	}
	r4 := <-insDone
	if r4.Page != r1.Page || r4.Slot != r2.Slot {
		t.Fatalf("insert landed at %v, want reuse of %v", r4, r2)
	}
	for rid, tag := range map[record.RID]byte{r1: 1, r3: 3, r4: 4} {
		b, err := f.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, rec(recSize, tag)) {
			t.Fatalf("record %v corrupt after compaction", rid)
		}
	}
	if f.Count() != 3 {
		t.Fatalf("Count = %d, want 3", f.Count())
	}
}
