package bulkdel

import (
	"testing"
)

// A whole-partition truncate must retain its rows for MVCC even when no
// snapshot is open at truncation time: a reader may register its snapshot
// after the partition's pages are released but before the statement's
// commit epoch is stamped, and that snapshot predates the commit — it is
// entitled to every victim, including the truncated ones. An open-snapshot
// check at truncate time (however latched) cannot see such a reader, so
// retention has to be unconditional; this test parks the delete inside
// exactly that window and opens the snapshot there.
func TestSnapshotOpenedAfterPartitionTruncateSeesRows(t *testing.T) {
	// Keys 0..299 over bounds [100, 200]: partition 1 is deleted whole
	// (truncate fast path), partition 2 only partially (per-row pass).
	spec := PartitionSpec{Field: 0, RangeBounds: []int64{100, 200}}
	db, tbl := newPartitionedDB(t, 300, Options{Devices: 3}, spec)
	defer db.Flush()

	vs := make([]int64, 0, 150)
	for i := int64(100); i < 200; i++ {
		vs = append(vs, i)
	}
	for i := int64(250); i < 300; i++ {
		vs = append(vs, i)
	}

	parked := make(chan struct{})
	release := make(chan struct{})
	// Only partition 1 is deleted whole, so the hook fires once.
	db.coreHooks.PostTruncate = func() {
		close(parked)
		<-release
	}

	done := make(chan struct{})
	var res *BulkResult
	var delErr error
	go func() {
		defer close(done)
		res, delErr = tbl.BulkDelete(0, vs, BulkOptions{Method: SortMerge})
	}()
	<-parked

	// Partition 1's pages are gone but the delete is uncommitted: a snapshot
	// registered NOW predates its commit epoch and must see every row.
	view, err := tbl.View()
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()
	if rows, lerr := view.Lookup(0, 150); lerr != nil || len(rows) != 1 || rows[0][1] != 3*150 {
		t.Fatalf("truncated row invisible to a snapshot opened mid-delete: rows=%v err=%v", rows, lerr)
	}
	n := 0
	if err := view.Scan(func(RID, []int64) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 300 {
		t.Fatalf("mid-delete snapshot Scan saw %d rows, want 300 (delete is uncommitted)", n)
	}

	close(release)
	<-done
	if delErr != nil {
		t.Fatal(delErr)
	}
	if res.Deleted != int64(len(vs)) {
		t.Fatalf("deleted %d rows, want %d", res.Deleted, len(vs))
	}

	// The pre-commit snapshot stays repeatable after the commit; fresh reads
	// miss the victims.
	if rows, lerr := view.Lookup(0, 150); lerr != nil || len(rows) != 1 || rows[0][1] != 3*150 {
		t.Fatalf("view Lookup(150) after commit: rows=%v err=%v, want the retained row", rows, lerr)
	}
	n = 0
	if err := view.Scan(func(RID, []int64) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 300 {
		t.Fatalf("view Scan after commit saw %d rows, want 300", n)
	}
	if rows, lerr := tbl.Lookup(0, 150); lerr != nil || len(rows) != 0 {
		t.Fatalf("fresh Lookup(150) after commit: rows=%v err=%v, want none", rows, lerr)
	}
	view.Close()
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}
