package table

import (
	"math/rand"
	"testing"
	"time"

	"bulkdel/internal/btree"
	"bulkdel/internal/buffer"
	"bulkdel/internal/cc"
	"bulkdel/internal/heap"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
)

func testPool(pages int) *buffer.Pool {
	d := sim.NewDisk(sim.CostModel{
		Seek:         8 * time.Millisecond,
		Rotation:     4 * time.Millisecond,
		TransferPage: 1 * time.Millisecond,
	})
	return buffer.New(d, pages*sim.PageSize)
}

var testSchema = record.Schema{NumFields: 3, Size: 64}

// newTestTable builds a table with n rows: field0 = i, field1 = i*2,
// field2 = i%97, and indexes IA (unique, field0) and IB (field1).
func newTestTable(t *testing.T, n int) *Table {
	t.Helper()
	p := testPool(2048)
	tbl, err := Create(p, "R", testSchema, heap.PartitionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert([]int64{int64(i), int64(i * 2), int64(i % 97)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.CreateIndex(IndexDef{Name: "IA", Field: 0, Unique: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateIndex(IndexDef{Name: "IB", Field: 1}); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestCreateInsertLookup(t *testing.T) {
	tbl := newTestTable(t, 500)
	if tbl.Heap.Count() != 500 {
		t.Fatalf("count = %d", tbl.Heap.Count())
	}
	// What the reads return is TestSnapshotLookupArmsAgree's.
	if !has(t, tbl, 0, 123) {
		t.Fatal("inserted row not found")
	}
	if err := tbl.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertMaintainsIndexes(t *testing.T) {
	tbl := newTestTable(t, 100)
	rid, err := tbl.Insert([]int64{1000, 2000, 3})
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := lookupAt(t, tbl, 1, 2000, 2000, tbl.MVCC.Clock.Current())
	if len(rows) != 1 || rows[rid] == nil || rows[rid][0] != 1000 {
		t.Fatalf("lookup after insert: %v, want the row at %v", rows, rid)
	}
	if err := tbl.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Unique violation.
	if _, err := tbl.Insert([]int64{50, 9999, 0}); err == nil {
		t.Fatal("duplicate unique key accepted")
	}
}

func TestDeleteRow(t *testing.T) {
	tbl := newTestTable(t, 100)
	rids, err := tbl.IndexOnField(0).Tree.Search(tbl.IndexOnField(0).EncodeKey(42))
	if err != nil || len(rids) != 1 {
		t.Fatal("setup search failed")
	}
	if err := tbl.DeleteRow(rids[0]); err != nil {
		t.Fatal(err)
	}
	if has(t, tbl, 0, 42) {
		t.Fatal("deleted row still found")
	}
	if tbl.Heap.Count() != 99 {
		t.Fatalf("count = %d", tbl.Heap.Count())
	}
	if err := tbl.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateIndexOnExistingData(t *testing.T) {
	tbl := newTestTable(t, 1000)
	ix, err := tbl.CreateIndex(IndexDef{Name: "IC", Field: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Tree.Count() != 1000 {
		t.Fatalf("new index has %d entries", ix.Tree.Count())
	}
	// Field2 = i % 97 has duplicates.
	rids, err := ix.Tree.Search(ix.EncodeKey(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 11 { // i in {5,102,199,...,975}: 11 values < 1000
		t.Fatalf("duplicates found: %d, want 11", len(rids))
	}
	if err := tbl.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Duplicate index name rejected; bad field rejected.
	if _, err := tbl.CreateIndex(IndexDef{Name: "IC", Field: 1}); err == nil {
		t.Fatal("duplicate index name accepted")
	}
	if _, err := tbl.CreateIndex(IndexDef{Name: "IX", Field: 9}); err == nil {
		t.Fatal("out-of-range field accepted")
	}
	if _, err := tbl.CreateIndex(IndexDef{Name: "IY", Field: 0, KeyLen: 4}); err == nil {
		t.Fatal("narrow key accepted")
	}
}

func TestDropIndex(t *testing.T) {
	tbl := newTestTable(t, 10)
	if err := tbl.DropIndex("IB"); err != nil {
		t.Fatal(err)
	}
	if tbl.FindIndex("IB") != nil {
		t.Fatal("index still in catalog")
	}
	if err := tbl.DropIndex("IB"); err == nil {
		t.Fatal("double drop accepted")
	}
	if err := tbl.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestTraditionalDelete(t *testing.T) {
	for _, sorted := range []bool{false, true} {
		tbl := newTestTable(t, 2000)
		victims := []int64{}
		rng := rand.New(rand.NewSource(5))
		for _, v := range rng.Perm(2000)[:300] {
			victims = append(victims, int64(v))
		}
		n, err := tbl.TraditionalDelete(0, victims, sorted)
		if err != nil {
			t.Fatal(err)
		}
		if n != 300 {
			t.Fatalf("sorted=%v: deleted %d, want 300", sorted, n)
		}
		if tbl.Heap.Count() != 1700 {
			t.Fatalf("heap count = %d", tbl.Heap.Count())
		}
		for _, v := range victims[:20] {
			if has(t, tbl, 0, v) {
				t.Fatalf("victim %d survives", v)
			}
		}
		if err := tbl.CheckConsistency(); err != nil {
			t.Fatalf("sorted=%v: %v", sorted, err)
		}
	}
}

func TestTraditionalDeleteAbsentKeysAreNoops(t *testing.T) {
	tbl := newTestTable(t, 100)
	n, err := tbl.TraditionalDelete(0, []int64{1, 5000, 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("deleted %d, want 2", n)
	}
	if err := tbl.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestTraditionalDeleteNeedsIndex(t *testing.T) {
	p := testPool(64)
	tbl, err := Create(p, "R", testSchema, heap.PartitionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.TraditionalDelete(0, []int64{1}, false); err == nil {
		t.Fatal("delete without access index should fail")
	}
}

func TestDropCreateDelete(t *testing.T) {
	tbl := newTestTable(t, 2000)
	if _, err := tbl.CreateIndex(IndexDef{Name: "IC", Field: 2}); err != nil {
		t.Fatal(err)
	}
	victims := make([]int64, 0, 300)
	for v := 100; v < 400; v++ {
		victims = append(victims, int64(v))
	}
	n, err := tbl.DropCreateDelete(0, victims, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != 300 {
		t.Fatalf("deleted %d", n)
	}
	// All three indexes exist again and agree with the heap.
	if tbl.FindIndex("IA") == nil || tbl.FindIndex("IB") == nil || tbl.FindIndex("IC") == nil {
		t.Fatal("indexes not rebuilt")
	}
	if err := tbl.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestSideFileFlow(t *testing.T) {
	tbl := newTestTable(t, 200)
	ib := tbl.FindIndex("IB")
	ib.Gate.TakeOffline()
	// Inserts while IB is offline land in its side-file.
	if _, err := tbl.Insert([]int64{500, 1000, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert([]int64{501, 1002, 2}); err != nil {
		t.Fatal(err)
	}
	if ib.Gate.SideFile().Len() != 2 {
		t.Fatalf("side-file has %d ops", ib.Gate.SideFile().Len())
	}
	// IB itself has not seen the entries yet.
	if rids, _ := ib.Tree.Search(ib.EncodeKey(1000)); len(rids) != 0 {
		t.Fatal("offline index updated directly")
	}
	// IA (online) did.
	if !has(t, tbl, 0, 500) {
		t.Fatal("online index missed the insert")
	}
	// Apply the side-file like the bulk deleter would.
	for _, op := range ib.Gate.SideFile().Quiesce() {
		if err := ApplyOp(ib.Tree, op); err != nil {
			t.Fatal(err)
		}
	}
	ib.Gate.BringOnline()
	if err := tbl.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestSideFileDeleteOfBulkDeletedEntryIsNoop(t *testing.T) {
	tbl := newTestTable(t, 100)
	ib := tbl.FindIndex("IB")
	// Simulate: bulk delete removed (84, rid) from IB already, then a
	// side-file delete for the same entry drains.
	rids, err := ib.Tree.Search(ib.EncodeKey(84))
	if err != nil || len(rids) != 1 {
		t.Fatal("setup failed")
	}
	if err := ib.Tree.Delete(ib.EncodeKey(84), rids[0]); err != nil {
		t.Fatal(err)
	}
	op := cc.Op{Kind: cc.OpDelete, Key: ib.EncodeKey(84), RID: rids[0]}
	if err := ApplyOp(ib.Tree, op); err != nil {
		t.Fatalf("replaying delete of already-deleted entry: %v", err)
	}
}

func TestSetPolicyAll(t *testing.T) {
	tbl := newTestTable(t, 10)
	tbl.SetPolicyAll(btree.MergeAtHalf)
	for _, ix := range tbl.Idx {
		if ix.Tree.Policy() != btree.MergeAtHalf {
			t.Fatal("policy not propagated")
		}
	}
}

func TestCheckConsistencyDetectsDivergence(t *testing.T) {
	tbl := newTestTable(t, 50)
	ia := tbl.FindIndex("IA")
	// Remove an index entry behind the table's back.
	rids, err := ia.Tree.Search(ia.EncodeKey(10))
	if err != nil || len(rids) != 1 {
		t.Fatal("setup failed")
	}
	if err := ia.Tree.Delete(ia.EncodeKey(10), rids[0]); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CheckConsistency(); err == nil {
		t.Fatal("divergence not detected")
	}
}

func TestClusteredLoad(t *testing.T) {
	p := testPool(1024)
	tbl, err := Create(p, "R", testSchema, heap.PartitionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	// Load in field-0 order: the index on field 0 is clustered.
	for i := 0; i < 1000; i++ {
		if _, err := tbl.Insert([]int64{int64(i), int64(1000 - i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := tbl.CreateIndex(IndexDef{Name: "IA", Field: 0, Unique: true, Clustered: true})
	if err != nil {
		t.Fatal(err)
	}
	// Clustered: scanning the index in key order yields ascending RIDs.
	var prev record.RID = record.RID{Page: 0, Slot: 0}
	err = ix.Tree.ScanAll(func(k []byte, rid record.RID) error {
		if rid.Less(prev) {
			t.Fatalf("clustered index RIDs not ascending at %s", rid)
		}
		prev = rid
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
