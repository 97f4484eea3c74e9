package heap

import (
	"testing"
	"time"

	"bulkdel/internal/record"
)

// Scan callbacks run on a copy of each page with the file latch released,
// so a callback may re-enter latched operations on the same heap. Before
// the page-copy fix this deadlocked: Scan held the latch shared across the
// callback, a concurrent writer queued on the latch, and the callback's
// Get could not take a second read-latch behind the queued writer (Go's
// RWMutex blocks new readers once a writer waits). The nested Scan path is
// real — Table.Get inside a View.Scan callback lands exactly here.
func TestScanCallbackReentryWithQueuedWriter(t *testing.T) {
	pool := testPool(16)
	const recSize = 1300 // three records per page
	f, err := Create(pool, recSize)
	if err != nil {
		t.Fatal(err)
	}
	var rids []record.RID
	for i := 0; i < 6; i++ { // two data pages
		rid, err := f.Insert(rec(recSize, byte(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	last := rids[len(rids)-1]

	done := make(chan error, 1)
	go func() {
		fired := false
		done <- f.Scan(func(r record.RID, _ []byte) error {
			if fired {
				return nil
			}
			fired = true
			// Start a writer; pre-fix it queued on the latch Scan still
			// held, making the Get below deadlock. Post-fix it completes
			// on its own and the Get never waits behind it.
			delDone := make(chan error, 1)
			go func() { delDone <- f.Delete(last) }()
			time.Sleep(20 * time.Millisecond)
			if _, err := f.Get(r); err != nil {
				return err
			}
			return <-delDone
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Scan callback re-entering a latched read deadlocked against a queued writer")
	}
	if f.Count() != 5 {
		t.Fatalf("Count = %d after the mid-scan delete, want 5", f.Count())
	}
}

// A whole-partition truncate may land between two pages of a concurrent
// scan (an MVCC snapshot scan keeps running while a bulk delete drops the
// partition's pages — the truncated rows reach it through the version
// store). The scan must end cleanly at the shrunk page count, not fail
// with an I/O error on a released page.
func TestScanSurvivesConcurrentTruncate(t *testing.T) {
	pool := testPool(16)
	const recSize = 1300 // three records per page
	f, err := Create(pool, recSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ { // three data pages
		if _, err := f.Insert(rec(recSize, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}

	seen, fired := 0, false
	err = f.Scan(func(record.RID, []byte) error {
		seen++
		if !fired {
			fired = true
			// The callback runs with the latch released, so the truncate
			// proceeds inline; the scan's next iteration sees page 1 as
			// past the end of the file.
			return f.TruncateWith(nil)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Scan across a concurrent truncate: %v", err)
	}
	// Only the already-copied first page is visited; pages released by the
	// truncate are never touched.
	if seen != 3 {
		t.Fatalf("scan visited %d records across a truncate, want the 3 on the copied page", seen)
	}
	if f.Count() != 0 {
		t.Fatalf("Count = %d after truncate, want 0", f.Count())
	}
}
