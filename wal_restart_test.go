package bulkdel

import (
	"testing"

	"bulkdel/internal/sim"
)

// walState reports the log's restart count and its file's page count.
func walState(t *testing.T, db *DB) (restarts uint64, pages sim.PageNo) {
	t.Helper()
	n, err := db.Disk().NumPages(db.WALFile())
	if err != nil {
		t.Fatal(err)
	}
	return db.Inspect().WAL.Restarts, n
}

// restartDB builds heap table R (200 rows, unique index on field 0) and
// LSM table S.
func restartDB(t *testing.T) (*DB, *Table, *Table) {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := db.CreateTable("R", 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ {
		if _, err := r.Insert(i, 3*i, i%7); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.CreateIndex(IndexOptions{Name: "ra", Field: 0, Unique: true}); err != nil {
		t.Fatal(err)
	}
	s, err := db.CreateTableLSM("S", 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	return db, r, s
}

func keysIn(lo, hi int64) []int64 {
	var out []int64
	for k := lo; k < hi; k++ {
		out = append(out, k)
	}
	return out
}

// An LSM flush that drains every memtable restarts the log only when nothing
// else in it is live: not while a heap bulk delete it holds is open, nor
// after its commit until a catalog save holds the commit's epoch. Recovery
// is exact either way.
func TestWALRestartWaitsForHeapBulkDelete(t *testing.T) {
	db, r, s := restartDB(t)
	if _, err := s.Insert(1, 3, 1); err != nil {
		t.Fatal(err)
	}
	fired := false
	db.coreHooks.StructDone = func(sim.FileID) {
		if fired {
			return
		}
		fired = true
		before, _ := walState(t, db)
		if err := s.CompactLSM(); err != nil { // S drains mid-delete
			t.Error(err)
		}
		if after, pages := walState(t, db); after != before || pages == 0 {
			t.Errorf("the log restarted under an open bulk delete: restarts %d -> %d, %d pages", before, after, pages)
		}
	}
	if _, err := r.BulkDelete(0, keysIn(0, 50), BulkOptions{Method: SortMerge}); err != nil {
		t.Fatal(err)
	}
	db.coreHooks.StructDone = nil
	if !fired {
		t.Fatal("the delete never reached a structure boundary")
	}
	before, _ := walState(t, db)
	if err := s.CompactLSM(); err != nil { // nothing to flush: no catalog save
		t.Fatal(err)
	}
	if after, _ := walState(t, db); after != before {
		t.Fatal("the log restarted before the catalog held the delete's epoch")
	}
	if _, err := s.Insert(2, 6, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.CompactLSM(); err != nil { // the flush saves the catalog
		t.Fatal(err)
	}
	if after, pages := walState(t, db); after != before+1 || pages != 0 {
		t.Fatalf("drained log did not restart: restarts %d -> %d, %d pages", before, after, pages)
	}
	epoch := db.Epoch()
	rdb, rep, err := Recover(db.SimulateCrash(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BulkInProgress || rdb.Epoch() != epoch {
		t.Fatalf("recovery: bulk in progress %v, epoch %d (was %d)", rep.BulkInProgress, rdb.Epoch(), epoch)
	}
	if n := rdb.Table("R").Count(); n != 150 {
		t.Fatalf("R holds %d rows after recovery, want 150", n)
	}
	if n := rdb.Table("S").Count(); n != 2 {
		t.Fatalf("S holds %d rows after recovery, want 2", n)
	}
}

// Two LSM tables whose memtables never drain together: each flush finds the
// other table's records live in the log, so no restart happens, the log
// keeps growing, and recovery replays both tables exactly.
func TestWALRestartRefusedWhileAnotherMemtableHoldsRecords(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := db.CreateTableLSM("A", 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateTableLSM("B", 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	// B starts 100 rows ahead, so whenever one table's memtable flushes,
	// the other's holds 100 or more records that live only in the log.
	const rows, ahead = 1000, 100
	for i := int64(0); i < ahead; i++ {
		if _, err := b.Insert(rows+i, 3*(rows+i), (rows+i)%7); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < rows; i++ {
		for _, tbl := range []*Table{a, b} {
			if _, err := tbl.Insert(i, 3*i, i%7); err != nil {
				t.Fatal(err)
			}
		}
		if i%97 == 0 {
			if err := db.Flush(); err != nil { // make the log durable
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	restarts, pages := walState(t, db)
	if restarts != 0 || pages == 0 {
		t.Fatalf("restarts %d, log pages %d; want no restart and a growing log", restarts, pages)
	}
	if a.LSMManifest().Tick == 0 || b.LSMManifest().Tick == 0 {
		t.Fatal("a table never flushed")
	}
	rdb, rep, err := Recover(db.SimulateCrash(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LSMReplayed == 0 {
		t.Fatal("recovery replayed no LSM record")
	}
	for name, want := range map[string]int64{"A": rows, "B": rows + ahead} {
		tbl := rdb.Table(name)
		if n := tbl.Count(); n != want {
			t.Fatalf("%s holds %d rows after recovery, want %d", name, n, want)
		}
		for _, k := range []int64{0, rows / 2, rows - 1} {
			got, err := tbl.Lookup(0, k)
			if err != nil || len(got) != 1 || got[0][1] != 3*k {
				t.Fatalf("%s: lookup %d = %v, %v", name, k, got, err)
			}
		}
	}
}

// A restart rewinds the log's stream offset, but not the durable-bytes
// count statements and metric windows meter: each statement's wal_bytes is
// exactly what it appended, and a window spanning the restart adds up.
func TestWALBytesExactAcrossRestart(t *testing.T) {
	db, r, s := restartDB(t)
	stmt := func(lo, hi int64) uint64 {
		t.Helper()
		appended := db.Inspect().WAL.AppendBytes
		res, err := r.BulkDelete(0, keysIn(lo, hi), BulkOptions{Method: SortMerge})
		if err != nil {
			t.Fatal(err)
		}
		want := db.Inspect().WAL.AppendBytes - appended
		if got := res.Trace.Root().IO.WALBytes; got != want || got == 0 {
			t.Fatalf("delete [%d,%d): trace wal_bytes %d, appended %d", lo, hi, got, want)
		}
		return want
	}
	m0 := db.Metrics()
	first := stmt(0, 40)
	if _, err := s.Insert(1, 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.CompactLSM(); err != nil {
		t.Fatal(err)
	}
	if restarts, _ := walState(t, db); restarts != 1 {
		t.Fatalf("restarts = %d, want 1 between the statements", restarts)
	}
	m1 := db.Metrics()
	second := stmt(100, 140)
	m2 := db.Metrics()
	if got := m2.Sub(m1).WALBytes; got != second {
		t.Fatalf("window after the restart: %d WAL bytes, want %d", got, second)
	}
	if got := m2.Sub(m0).WALBytes; got != first+second {
		t.Fatalf("window across the restart: %d WAL bytes, want %d", got, first+second)
	}
}
