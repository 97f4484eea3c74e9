package bulkdel

import (
	"reflect"
	"strings"
	"testing"

	"bulkdel/internal/sim"
)

// newPartitionedDB builds a DB with a hash- or range-partitioned table
// R(A,B,C) of n rows (A=i, B=3i, C=i%97) with indexes IA (unique) and IB.
func newPartitionedDB(t *testing.T, n int, opts Options, spec PartitionSpec) (*DB, *Table) {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTablePartitioned("R", 3, 64, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(int64(i), int64(3*i), int64(i%97)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CreateIndex(IndexOptions{Name: "IA", Field: 0, Unique: true}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex(IndexOptions{Name: "IB", Field: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

func TestPartitionedBulkDelete(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		bo   BulkOptions
	}{
		{"serial-wal", Options{Devices: 4}, BulkOptions{Method: SortMerge}},
		{"parallel-wal", Options{Devices: 4}, BulkOptions{Method: SortMerge, Parallel: 4}},
		{"hash-method", Options{Devices: 4}, BulkOptions{Method: Hash}},
		{"single-device", Options{}, BulkOptions{Method: SortMerge}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, tbl := newPartitionedDB(t, 2000, tc.opts, PartitionSpec{Field: 0, HashParts: 4})
			defer func() {
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
			}()
			if tbl.Partitions() != 4 {
				t.Fatalf("partitions = %d", tbl.Partitions())
			}
			vs := victims(2000, 600, 42)
			res, err := tbl.BulkDelete(0, vs, tc.bo)
			if err != nil {
				t.Fatal(err)
			}
			if res.Deleted != 600 {
				t.Fatalf("deleted %d, want 600", res.Deleted)
			}
			if tbl.Count() != 1400 {
				t.Fatalf("count = %d", tbl.Count())
			}
			if err := tbl.Check(); err != nil {
				t.Fatal(err)
			}
			gone := map[int64]bool{}
			for _, v := range vs {
				gone[v] = true
			}
			for i := int64(0); i < 2000; i += 37 {
				rows, err := tbl.Lookup(0, i)
				if err != nil {
					t.Fatal(err)
				}
				if gone[i] && len(rows) != 0 {
					t.Fatalf("victim %d still present", i)
				}
				if !gone[i] && (len(rows) != 1 || rows[0][1] != 3*i) {
					t.Fatalf("survivor %d wrong: %v", i, rows)
				}
			}
		})
	}
}

func TestPartitionedPlanShowsPerPartitionNodes(t *testing.T) {
	db, tbl := newPartitionedDB(t, 1000, Options{Devices: 4}, PartitionSpec{Field: 0, HashParts: 4})
	defer db.Flush()
	res, err := tbl.BulkDelete(0, victims(1000, 200, 7), BulkOptions{Method: SortMerge, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		if !strings.Contains(res.PlanText, "R[p") {
			t.Fatalf("plan lacks per-partition heap nodes:\n%s", res.PlanText)
		}
	}
	if res.Workers < 2 {
		t.Fatalf("parallel partitioned delete used %d workers", res.Workers)
	}
	if ea := res.ExplainAnalyze(); !strings.Contains(ea, "R[p") {
		t.Fatalf("explain analyze lacks partition actuals:\n%s", ea)
	}
}

func TestRangePartitionTruncateFastPath(t *testing.T) {
	// Keys 0..2999 over bounds [1000, 2000]: deleting every key of the
	// middle partition must truncate it rather than scan it, and the
	// neighbours must be untouched.
	spec := PartitionSpec{Field: 0, RangeBounds: []int64{1000, 2000}}
	db, tbl := newPartitionedDB(t, 3000, Options{Devices: 3}, spec)
	vs := make([]int64, 0, 1000)
	for i := int64(1000); i < 2000; i++ {
		vs = append(vs, i)
	}
	before := db.DiskStats()
	res, err := tbl.BulkDelete(0, vs, BulkOptions{Method: SortMerge})
	if err != nil {
		t.Fatal(err)
	}
	after := db.DiskStats()
	if res.Deleted != 1000 || tbl.Count() != 2000 {
		t.Fatalf("deleted=%d count=%d", res.Deleted, tbl.Count())
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	// The heap pass read no pages of the truncated partition. Records are
	// 64 bytes, so the partition held ~1000/63 ≈ 16 data pages; the whole
	// statement's heap reads must stay well below a scan of all three
	// partitions plus that partition's rewrite.
	reads := after.Reads - before.Reads
	if reads > 200 {
		t.Fatalf("truncate fast path read %d pages", reads)
	}
	for _, probe := range []int64{0, 999, 2000, 2999} {
		rows, err := tbl.Lookup(0, probe)
		if err != nil || len(rows) != 1 {
			t.Fatalf("survivor %d: %v %v", probe, rows, err)
		}
	}
	if rows, _ := tbl.Lookup(0, 1500); len(rows) != 0 {
		t.Fatal("victim 1500 survived the truncate")
	}
}

// TestCreateTablePartitionedNeedsTwoPartitions: a spec that splits nothing
// is refused; CreateTable makes the one-partition heap.
func TestCreateTablePartitionedNeedsTwoPartitions(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []PartitionSpec{{}, {Field: 0, HashParts: 1}} {
		if _, err := db.CreateTablePartitioned("P", 3, 64, spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
	tbl, err := db.CreateTable("R", 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Partitions() != 1 || !reflect.DeepEqual(tbl.PartitionSpec(), PartitionSpec{}) {
		t.Fatalf("plain table: %d partitions, spec %+v", tbl.Partitions(), tbl.PartitionSpec())
	}
}

func TestAlterPartitioning(t *testing.T) {
	db, tbl := newBenchDB(t, 1500, Options{Devices: 4})
	check := func(stage string) {
		t.Helper()
		if tbl.Count() != 1500 {
			t.Fatalf("%s: count = %d", stage, tbl.Count())
		}
		if err := tbl.Check(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		for _, k := range []int64{0, 733, 1499} {
			rows, err := tbl.Lookup(0, k)
			if err != nil || len(rows) != 1 || rows[0][1] != 3*k {
				t.Fatalf("%s: lookup %d = %v, %v", stage, k, rows, err)
			}
		}
	}
	if err := tbl.AlterPartitioning(PartitionSpec{Field: 0, HashParts: 4}); err != nil {
		t.Fatal(err)
	}
	if tbl.Partitions() != 4 {
		t.Fatalf("partitions = %d", tbl.Partitions())
	}
	check("to-hash")

	if err := tbl.AlterPartitioning(PartitionSpec{Field: 0, RangeBounds: []int64{500, 1000}}); err != nil {
		t.Fatal(err)
	}
	if tbl.Partitions() != 3 {
		t.Fatalf("partitions = %d", tbl.Partitions())
	}
	check("to-range")

	// Deletes still work on the repartitioned table, then convert back to
	// a one-partition heap.
	res, err := tbl.BulkDelete(0, victims(1500, 300, 3), BulkOptions{})
	if err != nil || res.Deleted != 300 {
		t.Fatalf("delete after repartition: %v, %v", res, err)
	}
	if err := tbl.AlterPartitioning(PartitionSpec{}); err != nil {
		t.Fatal(err)
	}
	if tbl.Partitions() != 1 {
		t.Fatalf("partitions = %d after reset", tbl.Partitions())
	}
	if tbl.Count() != 1200 {
		t.Fatalf("count = %d after reset", tbl.Count())
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	// The one-partition heap reopens after a crash and still takes inserts
	// and bulk deletes.
	db2, _, err := Recover(db.SimulateCrash(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl = db2.Table("R")
	if tbl.Partitions() != 1 || tbl.Count() != 1200 {
		t.Fatalf("recovered: %d partitions, %d rows", tbl.Partitions(), tbl.Count())
	}
	if err := tbl.Check(); err != nil {
		t.Fatalf("recovered: %v", err)
	}
	if _, err := tbl.Insert(5000, 15000, 1); err != nil {
		t.Fatal(err)
	}
	survivors := victims(1500, 1500, 3)[300:350]
	res, err = tbl.BulkDelete(0, survivors, BulkOptions{})
	if err != nil || res.Deleted != 50 {
		t.Fatalf("delete after recovery: %v, %v", res, err)
	}
	if tbl.Count() != 1151 {
		t.Fatalf("count = %d after insert and delete", tbl.Count())
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionedRecover(t *testing.T) {
	db, tbl := newPartitionedDB(t, 1200, Options{Devices: 4}, PartitionSpec{Field: 0, HashParts: 4})
	if _, err := tbl.BulkDelete(0, victims(1200, 200, 9), BulkOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	disk := db.SimulateCrash()
	db2, rep, err := Recover(disk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BulkInProgress {
		t.Fatal("finished statement reported in progress")
	}
	tbl2 := db2.Table("R")
	if tbl2 == nil {
		t.Fatal("table lost")
	}
	if tbl2.Partitions() != 4 {
		t.Fatalf("recovered partitions = %d", tbl2.Partitions())
	}
	if got := tbl2.PartitionSpec(); got.HashParts != 4 || got.Field != 0 {
		t.Fatalf("recovered spec = %+v", got)
	}
	if tbl2.Count() != 1000 {
		t.Fatalf("recovered count = %d", tbl2.Count())
	}
	if err := tbl2.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestGrowDevicesAndRebalance(t *testing.T) {
	db, tbl := newPartitionedDB(t, 2000, Options{Devices: 2}, PartitionSpec{Field: 0, HashParts: 4})
	if err := db.GrowDevices(1); err == nil {
		t.Fatal("shrink accepted")
	}
	if err := db.GrowDevices(4); err != nil {
		t.Fatal(err)
	}
	res, err := db.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Moves) == 0 || res.PagesMoved == 0 {
		t.Fatalf("rebalance moved nothing: %+v", res)
	}
	// The new arms now hold data.
	layout := db.Layout()
	if len(layout) != 5 {
		t.Fatalf("layout rows = %d, want 5", len(layout))
	}
	if layout[3].Pages == 0 && layout[4].Pages == 0 {
		t.Fatalf("grown devices still empty: %+v", layout)
	}
	// The byte columns agree with the page counts and the per-file rows.
	for _, d := range layout {
		if d.Bytes != d.Pages*sim.PageSize {
			t.Fatalf("device %d bytes = %d, want pages*%d = %d", d.Device, d.Bytes, sim.PageSize, d.Pages*sim.PageSize)
		}
		var sum int64
		for _, f := range d.ByFile {
			if f.Bytes != f.Pages*sim.PageSize {
				t.Fatalf("file %d bytes = %d, want %d", f.File, f.Bytes, f.Pages*sim.PageSize)
			}
			sum += f.Bytes
		}
		if sum != d.Bytes {
			t.Fatalf("device %d per-file bytes sum to %d, want %d", d.Device, sum, d.Bytes)
		}
	}
	// Data survives the migration.
	if tbl.Count() != 2000 {
		t.Fatalf("count = %d", tbl.Count())
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	// A second rebalance of a levelled array is (near-)idle.
	res2, err := db.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if res2.PagesMoved >= res.PagesMoved {
		t.Fatalf("second rebalance moved %d pages, first %d", res2.PagesMoved, res.PagesMoved)
	}
	// Deletes still work after the moves, in parallel across the new arms.
	dres, err := tbl.BulkDelete(0, victims(2000, 500, 11), BulkOptions{Method: SortMerge, Parallel: 4})
	if err != nil || dres.Deleted != 500 {
		t.Fatalf("delete after rebalance: %v %v", dres, err)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestRebalanceSurvivesCrash(t *testing.T) {
	db, tbl := newPartitionedDB(t, 1500, Options{Devices: 2}, PartitionSpec{Field: 0, HashParts: 4})
	if err := db.GrowDevices(4); err != nil {
		t.Fatal(err)
	}
	res, err := db.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Moves) == 0 {
		t.Fatal("nothing moved")
	}
	want := map[uint64]int{}
	for _, m := range res.Moves {
		want[uint64(m.File)] = m.To
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	disk := db.SimulateCrash()
	db2, rep, err := Recover(disk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MovesReplayed < len(want) {
		t.Fatalf("replayed %d moves, want >= %d", rep.MovesReplayed, len(want))
	}
	for f, dev := range want {
		if got := db2.Disk().DeviceOf(sim.FileID(f)); got != dev {
			t.Fatalf("file %d on device %d after recovery, want %d", f, got, dev)
		}
	}
	tbl = db2.Table("R")
	if tbl.Count() != 1500 {
		t.Fatalf("count = %d", tbl.Count())
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestIndexPlacementPolicy(t *testing.T) {
	db, err := Open(Options{Devices: 3})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("R", 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := tbl.Insert(int64(i), int64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"I0", "I1", "I2"} {
		if err := tbl.CreateIndex(IndexOptions{Name: name, Field: 0}); err != nil {
			t.Fatal(err)
		}
	}
	// Three indexes over three data devices: affinity spreads them onto
	// distinct arms, and none lands on the system device.
	seen := map[int]bool{}
	for _, ix := range heapOf(tbl).Idx {
		dev := db.Disk().DeviceOf(ix.Tree.ID())
		if dev == 0 {
			t.Fatalf("index %s placed on the system device", ix.Def.Name)
		}
		if seen[dev] {
			t.Fatalf("two indexes share device %d", dev)
		}
		seen[dev] = true
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}
