package bulkdel

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bulkdel/internal/btree"
	"bulkdel/internal/cc"
	"bulkdel/internal/obs"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
	"bulkdel/internal/table"
)

// heapOf reaches the table.Table behind a heap-backed table through the
// accessor every heap-only entry point uses.
func heapOf(tbl *Table) *table.Table {
	h, err := tbl.heap()
	if err != nil {
		panic(err)
	}
	return h.t
}

// newBenchDB builds a DB with a table R(A,B,C) of n rows (A=i, B=3i,
// C=i%97), indexed IA (unique) and IB.
func newBenchDB(t *testing.T, n int, opts Options) (*DB, *Table) {
	t.Helper()
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

func victims(n, k int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	out := make([]int64, k)
	for i := range out {
		out[i] = int64(perm[i])
	}
	return out
}

func TestOpenCreateInsertLookup(t *testing.T) {
	db, tbl := newBenchDB(t, 500, Options{})
	if db.Table("R") != tbl || db.Table("missing") != nil {
		t.Fatal("table lookup wrong")
	}
	if tbl.Count() != 500 || tbl.NumFields() != 3 {
		t.Fatalf("count=%d fields=%d", tbl.Count(), tbl.NumFields())
	}
	rows, err := tbl.Lookup(0, 123)
	if err != nil || len(rows) != 1 || rows[0][1] != 369 {
		t.Fatalf("lookup = %v, %v", rows, err)
	}
	names := tbl.IndexNames()
	if len(names) != 2 || names[0] != "IA" || names[1] != "IB" {
		t.Fatalf("index names = %v", names)
	}
	if tbl.IndexHeight("IA") < 1 || tbl.IndexHeight("nope") != 0 {
		t.Fatal("index heights wrong")
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("R", 1, 8); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if db.Clock() <= 0 {
		t.Fatal("clock did not advance")
	}
	if len(db.TableNames()) != 1 {
		t.Fatal("table names wrong")
	}
}

// TestHeapLookupAllocs pins a heap Lookup's allocations: the view it reads
// on passes its epoch to the reader instead of boxing a (backend, epoch)
// pair into the View, so a point lookup through the index costs 10, one
// fewer than with the box.
func TestHeapLookupAllocs(t *testing.T) {
	_, tbl := newBenchDB(t, 5000, Options{})
	got := testing.AllocsPerRun(100, func() {
		if rows, err := tbl.Lookup(0, 1234); err != nil || len(rows) != 1 {
			t.Fatalf("Lookup = %v, %v", rows, err)
		}
	})
	if got > 10 {
		t.Fatalf("a heap Lookup allocates %v times, want <= 10", got)
	}
}

// TestInsertArgumentsStayOnTheStack pins that Table.Insert's variadic
// arguments do not escape through the backend seam: tbl.Insert(a, b, c)
// costs one allocation fewer than when the slice went to the interface
// itself (3 on a heap table, 6 on an LSM table).
func TestInsertArgumentsStayOnTheStack(t *testing.T) {
	for _, c := range []struct {
		lsm  bool
		want float64
	}{{false, 2}, {true, 5}} {
		db, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		create := db.CreateTable
		if c.lsm {
			create = db.CreateTableLSM
		}
		tbl, err := create("R", 3, 64)
		if err != nil {
			t.Fatal(err)
		}
		k := int64(0)
		got := testing.AllocsPerRun(500, func() {
			k++
			if _, err := tbl.Insert(k, 2*k, 3*k); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.want {
			t.Errorf("%s insert: %v allocations, want at most %v", tbl.Backend(), got, c.want)
		}
	}
}

func TestBulkDeleteMethodsPublicAPI(t *testing.T) {
	for _, m := range []Method{SortMerge, Hash, HashPartition, Auto} {
		db, tbl := newBenchDB(t, 4000, Options{})
		_ = db
		vs := victims(4000, 800, 3)
		res, err := tbl.BulkDelete(0, vs, BulkOptions{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Deleted != 800 || res.Victims != 800 {
			t.Fatalf("%v: deleted %d", m, res.Deleted)
		}
		if res.Elapsed <= 0 {
			t.Fatalf("%v: no elapsed time", m)
		}
		if !strings.Contains(res.PlanText, "⋈̸") {
			t.Fatalf("%v: plan text missing", m)
		}
		if tbl.Count() != 3200 {
			t.Fatalf("%v: count %d", m, tbl.Count())
		}
		if err := tbl.Check(); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for _, v := range vs[:10] {
			if rows, _ := tbl.Lookup(0, v); len(rows) != 0 {
				t.Fatalf("%v: victim %d survived", m, v)
			}
		}
	}
}

func TestBaselinesPublicAPI(t *testing.T) {
	db, tbl := newBenchDB(t, 2000, Options{})
	_ = db
	n, err := tbl.DeleteTraditional(0, victims(2000, 200, 5), true)
	if err != nil || n != 200 {
		t.Fatalf("traditional: %d, %v", n, err)
	}
	n, err = tbl.DeleteDropCreate(0, []int64{1500, 1501})
	if err != nil || n > 2 {
		t.Fatalf("drop&create: %d, %v", n, err)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestExplainAndEstimates(t *testing.T) {
	_, tbl := newBenchDB(t, 1000, Options{})
	for _, m := range []Method{SortMerge, Hash, HashPartition, Auto} {
		out := tbl.Explain(0, m, 0)
		if !strings.Contains(out, "⋈̸") || !strings.Contains(out, "IA") {
			t.Fatalf("explain(%v):\n%s", m, out)
		}
	}
	ests := tbl.EstimateMethods(0, 150, 1<<20)
	if len(ests) < 2 {
		t.Fatalf("estimates = %v", ests)
	}
	for name, d := range ests {
		if d <= 0 {
			t.Fatalf("estimate %s <= 0", name)
		}
	}
}

// TestSmallBudgetEstimates: under a 512-byte budget every ⟨key,RID⟩ list
// sort is a multi-pass merge, and a logged hash+partition sorts its lists
// too and splits each into one partition per leaf. Both plans' estimates
// stay within 1.5× of what they run, and Auto runs the cheaper one.
func TestSmallBudgetEstimates(t *testing.T) {
	actual := map[Method]time.Duration{}
	var auto Method
	for _, m := range []Method{SortMerge, HashPartition, Auto} {
		_, tbl := newBenchDB(t, 3000, Options{BufferBytes: 256 << 10})
		res, err := tbl.DeleteRange(0, 1200, 1799, BulkOptions{Method: m, Memory: 512})
		if err != nil || res.Deleted != 600 {
			t.Fatalf("%v: deleted %v, %v", m, res, err)
		}
		if m == Auto {
			auto = res.Method
			break
		}
		actual[m] = res.Elapsed
		for _, e := range res.stats.Estimates {
			if e.Method != m {
				continue
			}
			if r := float64(e.Time) / float64(res.Elapsed); r < 1/1.5 || r > 1.5 {
				t.Errorf("%v: estimated %v, ran %v", m, e.Time, res.Elapsed)
			}
		}
	}
	want := SortMerge
	if actual[HashPartition] < actual[SortMerge] {
		want = HashPartition
	}
	if auto != want {
		t.Errorf("auto ran %v; sort/merge took %v, hash+partition %v", auto, actual[SortMerge], actual[HashPartition])
	}
}

func TestDeleteRowAndGet(t *testing.T) {
	_, tbl := newBenchDB(t, 100, Options{})
	rid, err := tbl.Insert(500, 1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := tbl.Get(rid)
	if err != nil || vals[0] != 500 {
		t.Fatalf("get = %v, %v", vals, err)
	}
	if err := tbl.DeleteRow(rid); err != nil {
		t.Fatal(err)
	}
	if rows, _ := tbl.Lookup(0, 500); len(rows) != 0 {
		t.Fatal("deleted row found")
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestScanPublicAPI(t *testing.T) {
	_, tbl := newBenchDB(t, 50, Options{})
	seen := 0
	err := tbl.Scan(func(rid RID, fields []int64) error {
		if fields[1] != 3*fields[0] {
			t.Fatalf("row %v inconsistent", fields)
		}
		seen++
		return nil
	})
	if err != nil || seen != 50 {
		t.Fatalf("scan: %d rows, %v", seen, err)
	}
}

func TestCrashRecoveryEndToEnd(t *testing.T) {
	db, tbl := newBenchDB(t, 6000, Options{})
	vs := victims(6000, 1200, 7)
	// Run a bulk delete to completion, then crash and recover: nothing
	// to roll forward, all data intact.
	if _, err := tbl.BulkDelete(0, vs, BulkOptions{Method: SortMerge}); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	disk := db.SimulateCrash()
	if _, err := tbl.Insert(9999); err != errCrashed {
		t.Fatalf("use after crash: %v", err)
	}
	db2, rep, err := Recover(disk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BulkInProgress {
		t.Fatal("completed bulk delete reported in progress")
	}
	tbl2 := db2.Table("R")
	if tbl2 == nil {
		t.Fatal("table lost in recovery")
	}
	if tbl2.Count() != 4800 {
		t.Fatalf("count after recovery = %d", tbl2.Count())
	}
	if err := tbl2.Check(); err != nil {
		t.Fatal(err)
	}
	// The recovered database is fully usable, including another bulk
	// delete.
	res, err := tbl2.BulkDelete(0, victims(6000, 6000, 9)[:500], BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted == 0 {
		t.Fatal("second bulk delete deleted nothing")
	}
	if err := tbl2.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverWithoutCatalogFails: a disk without a catalog in file 0, or
// with an empty one, is refused rather than opened as an empty database.
func TestRecoverWithoutCatalogFails(t *testing.T) {
	disk := sim.NewDisk(sim.DefaultCostModel())
	if _, _, err := Recover(disk, Options{}); err == nil {
		t.Fatal("recovered a disk with no catalog file")
	}
	disk.CreateFile()
	if _, _, err := Recover(disk, Options{}); err == nil {
		t.Fatal("recovered a disk with an empty catalog file")
	}
}

func TestConcurrentBulkDeleteWithUpdaters(t *testing.T) {
	db, tbl := newBenchDB(t, 8000, Options{})
	_ = db
	vs := victims(8000, 1600, 11)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var inserted []int64
	var insertErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Concurrent updater: inserts brand-new rows while the bulk
		// delete runs. The table lock blocks it until the critical
		// structures are done; offline-index updates go through
		// side-files.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := int64(100000 + i)
			if _, err := tbl.Insert(v, 3*v, 0); err != nil {
				insertErr = err
				return
			}
			inserted = append(inserted, v)
			time.Sleep(time.Millisecond)
		}
	}()

	res, err := tbl.BulkDelete(0, vs, BulkOptions{Method: SortMerge, Concurrent: true})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if insertErr != nil {
		t.Fatalf("concurrent insert failed: %v", insertErr)
	}
	if res.Deleted != 1600 {
		t.Fatalf("deleted %d", res.Deleted)
	}
	// Every concurrent insert must be fully indexed, and the table must
	// be consistent.
	for _, v := range inserted {
		rows, err := tbl.Lookup(0, v)
		if err != nil || len(rows) != 1 {
			t.Fatalf("concurrent insert %d lost: %v %v", v, rows, err)
		}
		rows, err = tbl.Lookup(1, 3*v)
		if err != nil || len(rows) != 1 {
			t.Fatalf("concurrent insert %d lost in IB: %v %v", v, rows, err)
		}
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	if int64(8000-1600+len(inserted)) != tbl.Count() {
		t.Fatalf("count %d with %d inserts", tbl.Count(), len(inserted))
	}
	t.Logf("concurrent inserts: %d, side-file ops replayed: %d", len(inserted), res.SideFileOps)
}

// TestSideFileReplayReportsAFailedOp: a side-file op the index refuses — an
// insert of a key its unique tree already holds — comes back as the
// replay's error, counted with the ops around it, instead of vanishing.
func TestSideFileReplayReportsAFailedOp(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("R", 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex(IndexOptions{Name: "IA", Field: 0, Unique: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(1, 10); err != nil {
		t.Fatal(err)
	}
	ix := heapOf(tbl).IndexOnField(0)
	ix.Gate.TakeOffline()
	for _, op := range []cc.Op{
		{Kind: cc.OpInsert, Key: ix.EncodeKey(1), RID: record.RID{Page: 7, Slot: 3}},
		{Kind: cc.OpInsert, Key: ix.EncodeKey(2), RID: record.RID{Page: 7, Slot: 4}},
	} {
		if err := ix.Gate.SideFile().Append(op); err != nil {
			t.Fatalf("append %v: %v", op, err)
		}
	}
	n, err := drainSideFile(ix)
	ix.Gate.BringOnline()
	if n != 2 || !errors.Is(err, btree.ErrDuplicateKey) {
		t.Fatalf("replayed %d ops, error %v; want 2 and %v", n, err, btree.ErrDuplicateKey)
	}
	if rids, err := ix.Tree.Search(ix.EncodeKey(2)); err != nil || len(rids) != 1 {
		t.Fatalf("the op after the failed one was not applied: %v %v", rids, err)
	}
}

// TestBulkDeleteWithReorganize: the engine's bulk delete always merges as
// its leaf walks go (§2.3). With 70 % of the rows gone every index leaf is
// under half full, so each index ends with fewer leaves than it had, and
// the pass stats, EXPLAIN ANALYZE and the btree_leaves_merged counter all
// show the merges.
func TestBulkDeleteWithReorganize(t *testing.T) {
	db, tbl := newBenchDB(t, 4000, Options{})
	before := map[string]int64{}
	for _, ix := range heapOf(tbl).Idx {
		before[ix.Def.Name] = ix.Tree.Leaves()
	}
	res, err := tbl.BulkDelete(0, victims(4000, 2800, 13), BulkOptions{Method: SortMerge})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 2800 {
		t.Fatalf("deleted %d", res.Deleted)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	var merged int64
	for _, ss := range res.stats.PerStructure {
		if was, ok := before[ss.Name]; ok && (ss.LeavesMerged == 0 || ss.Leaves >= was) {
			t.Errorf("%s: %d leaves merged, %d → %d leaves", ss.Name, ss.LeavesMerged, was, ss.Leaves)
		}
		merged += ss.LeavesMerged
	}
	if got := db.Observer().Registry().Counter(obs.MetricLeavesMerged).Value(); got != merged {
		t.Errorf("btree_leaves_merged = %d, passes merged %d", got, merged)
	}
	if !strings.Contains(res.ExplainAnalyze(), " merged=") {
		t.Errorf("EXPLAIN ANALYZE reports no merges:\n%s", res.ExplainAnalyze())
	}
}

func TestSetDeletePolicy(t *testing.T) {
	_, tbl := newBenchDB(t, 500, Options{})
	tbl.SetDeletePolicy(true)
	if _, err := tbl.DeleteTraditional(0, victims(500, 400, 15), true); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	tbl.SetDeletePolicy(false)
}

func TestDropIndexPublicAPI(t *testing.T) {
	_, tbl := newBenchDB(t, 100, Options{})
	if err := tbl.DropIndex("IB"); err != nil {
		t.Fatal(err)
	}
	if len(tbl.IndexNames()) != 1 {
		t.Fatal("index not dropped")
	}
	if err := tbl.DropIndex("IB"); err == nil {
		t.Fatal("double drop accepted")
	}
}

func TestDiskStatsAndReset(t *testing.T) {
	db, _ := newBenchDB(t, 200, Options{})
	if db.DiskStats().Writes == 0 {
		t.Fatal("no writes recorded after load+flush")
	}
	db.ResetDiskStats()
	if db.DiskStats().Writes != 0 {
		t.Fatal("stats not reset")
	}
}

func TestBulkUpdatePublicAPI(t *testing.T) {
	_, tbl := newBenchDB(t, 3000, Options{})
	vs := victims(3000, 600, 19)
	// Raise "salaries": shift field 1 of the victims (predicate on field 0).
	res, err := tbl.BulkUpdate(0, vs, 1, func(v int64) int64 { return v + 1 }, BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Updated != 600 {
		t.Fatalf("updated %d", res.Updated)
	}
	if res.EntriesMoved != 1200 { // 600 deletes + 600 inserts on IB
		t.Fatalf("entries moved %d", res.EntriesMoved)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	// Spot-check through the updated index.
	for _, v := range vs[:5] {
		rows, err := tbl.Lookup(1, 3*v+1)
		if err != nil || len(rows) != 1 || rows[0][0] != v {
			t.Fatalf("updated row %d not findable via IB: %v %v", v, rows, err)
		}
	}
}

func TestBulkDeleteWithoutAccessIndexPublicAPI(t *testing.T) {
	// Field 2 has no index: the engine falls back to a table scan to
	// locate victims, then proceeds vertically.
	_, tbl := newBenchDB(t, 2000, Options{})
	res, err := tbl.BulkDelete(2, []int64{5, 17}, BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for i := 0; i < 2000; i++ {
		if i%97 == 5 || i%97 == 17 {
			want++
		}
	}
	if res.Deleted != want {
		t.Fatalf("deleted %d, want %d", res.Deleted, want)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverRejectsCorruptCatalog(t *testing.T) {
	db, _ := newBenchDB(t, 10, Options{})
	disk := db.SimulateCrash()
	// Scribble over every slot of the catalog: with no valid generation
	// left there is nothing to fall back to.
	n, err := disk.NumPages(0)
	if err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, 4096)
	for p := sim.PageNo(0); p < n; p++ {
		if err := disk.WritePage(0, p, junk); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := Recover(disk, Options{}); err == nil {
		t.Fatal("corrupt catalog accepted")
	}
}

func TestEmptyVictimListAllMethodsPublic(t *testing.T) {
	for _, m := range []Method{SortMerge, Hash, HashPartition} {
		_, tbl := newBenchDB(t, 200, Options{})
		res, err := tbl.BulkDelete(0, nil, BulkOptions{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Deleted != 0 || tbl.Count() != 200 {
			t.Fatalf("%v: empty victim list deleted %d", m, res.Deleted)
		}
		if err := tbl.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRejectedDuplicateInsertLeavesNoTrace: an insert a unique index refuses
// must take back the heap record and the entries made in the indexes ahead
// of it — it used to leave both, so the table held a row no unique lookup
// could account for.
func TestRejectedDuplicateInsertLeavesNoTrace(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range []IndexOptions{{Name: "ib", Field: 1}, {Name: "ia", Field: 0, Unique: true}} {
		if err := tbl.CreateIndex(ix); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.Insert(1, 10, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(1, 20, 200); err == nil {
		t.Fatal("duplicate key accepted by the unique index")
	}
	if n := tbl.Count(); n != 1 {
		t.Errorf("Count() = %d after the rejected insert, want 1", n)
	}
	if rows, err := tbl.Lookup(1, 20); err != nil || len(rows) != 0 {
		t.Errorf("Lookup(b = 20) = %v, %v; want no row", rows, err)
	}
	if err := tbl.Check(); err != nil {
		t.Error(err)
	}
	// The slot is free again and the next insert is whole.
	if _, err := tbl.Insert(2, 20, 200); err != nil {
		t.Fatal(err)
	}
	if rows, err := tbl.Lookup(1, 20); err != nil || len(rows) != 1 || rows[0][0] != 2 {
		t.Errorf("Lookup(b = 20) = %v, %v; want the row of a = 2", rows, err)
	}
	if err := tbl.Check(); err != nil {
		t.Error(err)
	}
}

// TestRefillPlacementIsDeterministic: after a delete has opened holes all
// over the heap, the same refill puts the same rows in the same slots at the
// same simulated time, run after run — inserts used to pick their page by
// ranging over a map.
func TestRefillPlacementIsDeterministic(t *testing.T) {
	run := func() ([]RID, time.Duration) {
		db, tbl := newBenchDB(t, 4000, Options{})
		if _, err := tbl.BulkDelete(0, victims(4000, 400, 3), BulkOptions{}); err != nil {
			t.Fatal(err)
		}
		rids := make([]RID, 400)
		for i := range rids {
			rid, err := tbl.Insert(int64(4000+i), int64(3*(4000+i)), int64(i%97))
			if err != nil {
				t.Fatal(err)
			}
			rids[i] = rid
		}
		if err := tbl.Check(); err != nil {
			t.Fatal(err)
		}
		return rids, db.Clock()
	}
	rids, clock := run()
	for i := 0; i < 3; i++ {
		if r, c := run(); !slices.Equal(r, rids) || c != clock {
			t.Fatalf("run %d placed the refill differently (clock %v, first run %v)", i+2, c, clock)
		}
	}
}
