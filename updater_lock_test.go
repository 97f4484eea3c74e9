package bulkdel

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// The updater rules: an updater holds the table lock Exclusive, and no read
// holds the table lock while caller code runs — every one-off read runs on a
// view pinned for the call.

// TestScanCallbackInsertsIntoScannedTable: a Scan callback may insert into
// the table it scans, on either backend. Each original row inserts one more;
// whether the scan also meets the new rows is the backend's business (a
// heap snapshot pins deletes, not inserts), so the callback inserts only
// for the original ones.
func TestScanCallbackInsertsIntoScannedTable(t *testing.T) {
	const n = 300
	for _, tc := range []struct {
		name   string
		create func(db *DB) (*Table, error)
	}{
		{"heap", func(db *DB) (*Table, error) {
			tbl, err := db.CreateTable("R", 3, 64)
			if err == nil {
				err = tbl.CreateIndex(IndexOptions{Name: "IA", Field: 0, Unique: true})
			}
			return tbl, err
		}},
		{"lsm", func(db *DB) (*Table, error) { return db.CreateTableLSM("R", 3, 64) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(Options{})
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := tc.create(db)
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < n; i++ {
				if _, err := tbl.Insert(i, 3*i, i%97); err != nil {
					t.Fatal(err)
				}
			}
			done := make(chan error, 1)
			go func() {
				done <- tbl.Scan(func(_ RID, f []int64) error {
					if f[0] >= n {
						return nil
					}
					_, err := tbl.Insert(f[0]+n, 3*(f[0]+n), 0)
					return err
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("a Scan whose callback inserts into the scanned table did not complete")
			}
			if got := tbl.Count(); got != 2*n {
				t.Fatalf("count after the scan = %d, want %d", got, 2*n)
			}
			if err := tbl.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLSMScanDoesNotHoldBackDeleteRange: an LSM Scan whose callback blocks
// holds no table lock, so a DeleteRange on the same table completes
// meanwhile, and the scan goes on reading the state it pinned.
func TestLSMScanDoesNotHoldBackDeleteRange(t *testing.T) {
	_, tbl := newLSMDB(t, 200, Options{})
	inScan, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	scanned := make(chan error, 1)
	seen := 0
	go func() {
		scanned <- tbl.Scan(func(RID, []int64) error {
			seen++
			once.Do(func() {
				close(inScan)
				<-release
			})
			return nil
		})
	}()
	<-inScan
	deleted := make(chan error, 1)
	go func() {
		_, err := tbl.DeleteRange(0, 50, 149, BulkOptions{})
		deleted <- err
	}()
	select {
	case err := <-deleted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("DeleteRange waited behind a Scan callback")
	}
	close(release)
	if err := <-scanned; err != nil {
		t.Fatal(err)
	}
	if seen != 200 {
		t.Fatalf("scan saw %d rows, want the 200 of its view", seen)
	}
	if got := tbl.Count(); got != 100 {
		t.Fatalf("count after the delete = %d, want 100", got)
	}
}

// TestRestrictChildInsertWaitsForParentDelete: a parent's delete holds its
// RESTRICT child's Shared claim for the whole statement, so a child insert
// that arrives after the probe found no reference — here, while the delete
// is parked in its heap pass — waits until the statement ends instead of
// slipping in beside it.
func TestRestrictChildInsertWaitsForParentDelete(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	parent, err := db.CreateTable("P", 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	child, err := db.CreateTable("C", 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.CreateIndex(IndexOptions{Name: "pk", Field: 0, Unique: true}); err != nil {
		t.Fatal(err)
	}
	if err := child.CreateIndex(IndexOptions{Name: "fk", Field: 0}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddForeignKey(child, 0, parent, 0, Restrict); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if _, err := parent.Insert(i, 100+i); err != nil {
			t.Fatal(err)
		}
	}

	inPass, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	db.coreHooks.MidHeapPass = func() {
		once.Do(func() {
			close(inPass)
			<-release
		})
	}
	delDone := make(chan error, 1)
	go func() {
		_, err := parent.BulkDelete(0, []int64{7}, BulkOptions{Method: SortMerge})
		delDone <- err
	}()
	<-inPass // the probe found no child row; the heap pass is under way

	insDone := make(chan error, 1)
	go func() {
		_, err := child.Insert(7, 0)
		insDone <- err
	}()
	select {
	case err := <-insDone:
		close(release)
		t.Fatalf("child insert returned (%v) while the parent's delete held the child's Shared claim", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-delDone; err != nil {
		var restricted *ErrRestricted
		if errors.As(err, &restricted) {
			t.Fatalf("the probe saw a child row inserted after it ran: %v", err)
		}
		t.Fatal(err)
	}
	if err := <-insDone; err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []*Table{parent, child} {
		if err := tbl.Check(); err != nil {
			t.Fatal(err)
		}
	}
}
