package bulkdel

import (
	"strings"
	"testing"
)

// newArrayDB builds a DB on a 3-device array with R(A,B,C) of n rows and
// three indexes, which CreateIndex places round-robin on devices 1..3.
func newArrayDB(t *testing.T, n int, opts Options) (*DB, *Table) {
	t.Helper()
	opts.Devices = 3
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("R", 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(int64(i), int64(3*i), int64(i%97)); err != nil {
			t.Fatal(err)
		}
	}
	for _, ix := range []IndexOptions{
		{Name: "IA", Field: 0, Unique: true},
		{Name: "IB", Field: 1},
		{Name: "IC", Field: 2},
	} {
		if err := tbl.CreateIndex(ix); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

func TestParallelBulkDeleteOnDeviceArray(t *testing.T) {
	db, tbl := newArrayDB(t, 2000, Options{})
	for k, ix := range heapOf(tbl).Idx {
		if dev := db.Disk().DeviceOf(ix.Tree.ID()); dev != k+1 {
			t.Fatalf("index %s on device %d, want %d", ix.Def.Name, dev, k+1)
		}
	}
	vs := victims(2000, 400, 7)
	res, err := tbl.BulkDelete(0, vs, BulkOptions{Method: SortMerge, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 400 {
		t.Fatalf("deleted %d", res.Deleted)
	}
	if res.Workers != 2 { // IB and IC overlap; IA is the access index
		t.Fatalf("workers = %d, want 2", res.Workers)
	}
	if res.Makespan >= res.Elapsed {
		t.Fatalf("no overlap: makespan %v vs serial-equivalent %v", res.Makespan, res.Elapsed)
	}
	if ea := res.ExplainAnalyze(); !strings.Contains(ea, "parallel schedule") ||
		!strings.Contains(ea, "workers=2") {
		t.Fatalf("EXPLAIN ANALYZE lacks the schedule:\n%s", ea)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}

	// A crash and recovery must preserve the device layout: the catalog
	// records each index's device and Recover reapplies it.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	disk := db.SimulateCrash()
	rdb, _, err := Recover(disk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rtbl := rdb.Table("R")
	if rtbl == nil {
		t.Fatal("table missing after recovery")
	}
	for k, ix := range heapOf(rtbl).Idx {
		if dev := rdb.Disk().DeviceOf(ix.Tree.ID()); dev != k+1 {
			t.Fatalf("recovered index %s on device %d, want %d", ix.Def.Name, dev, k+1)
		}
	}
	if rdb.opts.Devices != 3 {
		t.Fatalf("recovered Devices = %d, want 3", rdb.opts.Devices)
	}
	if err := rtbl.Check(); err != nil {
		t.Fatal(err)
	}
	// New indexes keep rotating through the array after recovery.
	if err := rtbl.CreateIndex(IndexOptions{Name: "ID", Field: 2}); err != nil {
		t.Fatal(err)
	}
	nd := heapOf(rtbl).FindIndex("ID")
	if dev := rdb.Disk().DeviceOf(nd.Tree.ID()); dev != 1 { // ixSeq resumed at 3
		t.Fatalf("post-recovery index on device %d, want 1", dev)
	}
}

// The serial and parallel statements must agree on their effects through
// the public API, and the §3.1 concurrent protocol must compose with
// parallel plans (OnStructureDone fires once per pass, in plan order).
func TestParallelWithConcurrentProtocol(t *testing.T) {
	db, tbl := newArrayDB(t, 1500, Options{})
	vs := victims(1500, 300, 11)
	res, err := tbl.BulkDelete(0, vs, BulkOptions{
		Method: SortMerge, Parallel: 4, Concurrent: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 300 {
		t.Fatalf("deleted %d", res.Deleted)
	}
	if res.Workers != 2 {
		t.Fatalf("workers = %d, want 2", res.Workers)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	_ = db
}
