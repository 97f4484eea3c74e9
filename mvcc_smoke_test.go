package bulkdel

import (
	"sync"
	"testing"

	"bulkdel/internal/obs"
)

// Reads-during-delete smoke: park a concurrent bulk delete mid-heap-pass —
// the point where it holds the exclusive table lock and its indexes are
// offline — and drive every read path. Each must complete without queueing
// behind the lock (the snapshot-read-wait counter stays zero), see the
// pre-delete state (the delete's epoch is uncommitted while parked), and a
// view opened before the delete must keep seeing the victims after it
// commits. This is the tentpole's acceptance scenario in miniature; the
// workload stress runs the same probes at scale.
func TestSnapshotReadsDuringBulkDelete(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("T", 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex(IndexOptions{Name: "pk", Field: 0, Unique: true}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex(IndexOptions{Name: "sec", Field: 1}); err != nil {
		t.Fatal(err)
	}
	const rows = 80
	rids := make([]RID, rows)
	for i := int64(0); i < rows; i++ {
		rid, err := tbl.Insert(i, 2*i, i%5)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	victims := make([]int64, 0, 30)
	for k := int64(10); k < 40; k++ {
		victims = append(victims, k)
	}

	view, err := tbl.View() // pre-delete snapshot, closed at the end
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()

	inPass := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once // park on the first slot deletion only
	db.coreHooks.MidHeapPass = func() {
		once.Do(func() {
			close(inPass)
			<-release
		})
	}

	delDone := make(chan struct{})
	var delRes *BulkResult
	var delErr error
	go func() {
		defer close(delDone)
		delRes, delErr = tbl.BulkDelete(0, victims,
			BulkOptions{Method: SortMerge, Concurrent: true})
	}()
	<-inPass

	// The statement is parked holding its exclusive lock; Inspect must show
	// it, and every read below runs against that held lock.
	exclusive := false
	for _, ti := range db.Inspect().WaitGraph.Tables {
		if ti.Table == "T" && ti.Exclusive {
			exclusive = true
		}
	}
	if !exclusive {
		t.Error("mid-delete Inspect does not show T exclusively locked")
	}

	const victim = int64(20)
	if got, err := tbl.Lookup(0, victim); err != nil || len(got) != 1 || got[0][1] != 2*victim {
		t.Fatalf("Lookup(victim) during delete: rows=%v err=%v, want the intact row", got, err)
	}
	if fields, err := tbl.Get(rids[victim]); err != nil || fields[1] != 2*victim {
		t.Fatalf("Get(victim rid) during delete: %v %v", fields, err)
	}
	if got, err := tbl.LookupRange(0, 35, 44); err != nil || len(got) != 10 {
		t.Fatalf("LookupRange during delete: %d rows err=%v, want 10", len(got), err)
	}
	if got, err := tbl.LookupRIDs(0, victim); err != nil || len(got) != 1 || got[0] != rids[victim] {
		t.Fatalf("LookupRIDs(victim) during delete: %v err=%v, want %v", got, err, rids[victim])
	}
	// Field 2 (i%5) has no index: the same read function, scan arm.
	if got, err := tbl.Lookup(2, 3); err != nil || len(got) != rows/5 {
		t.Fatalf("unindexed Lookup during delete: %d rows err=%v, want %d", len(got), err, rows/5)
	}
	if got, err := tbl.LookupRange(2, 1, 2); err != nil || len(got) != 2*rows/5 {
		t.Fatalf("unindexed LookupRange during delete: %d rows err=%v, want %d", len(got), err, 2*rows/5)
	}
	n := 0
	if err := tbl.Scan(func(RID, []int64) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != rows {
		t.Fatalf("Scan during delete saw %d rows, want %d (delete is uncommitted)", n, rows)
	}
	if got, err := view.Lookup(0, victim); err != nil || len(got) != 1 {
		t.Fatalf("view Lookup(victim) during delete: rows=%v err=%v", got, err)
	}

	reg := db.Observer().Registry()
	if w := reg.Counter(obs.MetricSnapshotReadWaits).Value(); w != 0 {
		t.Errorf("%d snapshot reads queued behind the bulk delete, want 0", w)
	}
	if r := reg.Counter(obs.MetricSnapshotReads).Value(); r == 0 {
		t.Error("snapshot-read counter never moved; reads did not take the MVCC path")
	}

	close(release)
	<-delDone
	if delErr != nil {
		t.Fatal(delErr)
	}
	if delRes.Deleted != int64(len(victims)) {
		t.Fatalf("deleted %d rows, want %d", delRes.Deleted, len(victims))
	}

	// Committed: fresh reads miss the victims, the pre-delete view is
	// repeatable and still serves them with full content.
	if got, err := tbl.Lookup(0, victim); err != nil || len(got) != 0 {
		t.Fatalf("Lookup(victim) after commit: rows=%v err=%v, want none", got, err)
	}
	if got, err := view.Lookup(0, victim); err != nil || len(got) != 1 || got[0][1] != 2*victim {
		t.Fatalf("view Lookup(victim) after commit: rows=%v err=%v, want the retained row", got, err)
	}
	n = 0
	if err := view.Scan(func(RID, []int64) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != rows {
		t.Fatalf("view Scan after commit saw %d rows, want %d", n, rows)
	}
	view.Close()
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}
