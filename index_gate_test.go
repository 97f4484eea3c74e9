package bulkdel

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"bulkdel/internal/obs"
	"bulkdel/internal/sim"
)

// gateTable builds T(a, b, c) with rows (i, 2i, 3i) for i < rows and three
// indexes: pk on a (unique, the access index of a delete on a), sb on b and
// sc on c — the two remaining indexes, processed sb first.
func gateTable(t *testing.T, rows int64) (*DB, *Table) {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("T", 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range []IndexOptions{
		{Name: "pk", Field: 0, Unique: true},
		{Name: "sb", Field: 1},
		{Name: "sc", Field: 2},
	} {
		if err := tbl.CreateIndex(ix); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < rows; i++ {
		if _, err := tbl.Insert(i, 2*i, 3*i); err != nil {
			t.Fatal(err)
		}
	}
	return db, tbl
}

// sortedRows orders rows by their first field, for comparing reads that
// return index order against ones that return physical order.
func sortedRows(rows [][]int64) [][]int64 {
	sort.Slice(rows, func(i, j int) bool { return rows[i][0] < rows[j][0] })
	return rows
}

// rowsFor returns the rows (i, 2i, 3i) for lo <= i <= hi but not in
// [skipLo, skipHi] (empty when skipLo > skipHi).
func rowsFor(lo, hi, skipLo, skipHi int64) [][]int64 {
	var out [][]int64
	for i := lo; i <= hi; i++ {
		if i < skipLo || i > skipHi {
			out = append(out, []int64{i, 2 * i, 3 * i})
		}
	}
	return out
}

// TestCheckDuringInserts: Check's Shared claim excludes an updater's
// Exclusive one, so an insert that has written its heap row but not yet its
// index entries is never judged half done.
func TestCheckDuringInserts(t *testing.T) {
	_, tbl := gateTable(t, 100)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(100); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := tbl.Insert(i, 2*i, 3*i); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	failed := 0
	var first error
	for n := 0; n < 200; n++ {
		if err := tbl.Check(); err != nil {
			if failed++; first == nil {
				first = err
			}
		}
	}
	close(stop)
	wg.Wait()
	if failed > 0 {
		t.Fatalf("%d of 200 Checks failed beside an inserter; first: %v", failed, first)
	}
}

// TestAccessIndexOfflineThroughHeapPass: the access pass removes the victims'
// index entries before the heap pass retains their rows, so the access index
// stays offline until the critical point. Parked in the heap pass, a view
// opened before the delete still finds a victim by the access field (on the
// scan arm) with its full content.
func TestAccessIndexOfflineThroughHeapPass(t *testing.T) {
	db, tbl := gateTable(t, 80)
	view, err := tbl.View()
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()
	inPass, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	db.coreHooks.MidHeapPass = func() {
		once.Do(func() {
			close(inPass)
			<-release
		})
	}
	victims := make([]int64, 0, 30)
	for k := int64(10); k < 40; k++ {
		victims = append(victims, k)
	}
	done := make(chan error, 1)
	go func() {
		_, err := tbl.BulkDelete(0, victims, BulkOptions{Method: SortMerge})
		done <- err
	}()
	<-inPass
	fallbacks := db.Observer().Registry().Counter(obs.MetricSnapshotFallbackScans)
	before := fallbacks.Value()
	got, err := view.Lookup(0, 39) // the heap pass's last victim: not yet retained
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if want := rowsFor(39, 39, 1, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("pre-delete view Lookup(victim) mid heap pass = %v, want %v", got, want)
	}
	if fallbacks.Value() != before+1 {
		t.Fatal("the lookup took the access index arm while its pass's victims were not all retained")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestLookupUsesFinishedIndexMidDelete: parked between the two remaining
// index passes, a snapshot lookup on the index whose pass is done takes its
// index arm (no fallback scan) and returns exactly the snapshot's rows — the
// pre-delete view all of them, a fresh read (after the §3.1 commit point)
// only the survivors — while the index still in its pass sends reads to the
// scan arm.
func TestLookupUsesFinishedIndexMidDelete(t *testing.T) {
	db, tbl := gateTable(t, 120)
	view, err := tbl.View()
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()
	sb := heapOf(tbl).FindIndex("sb").Tree.ID()
	parked, release := make(chan struct{}), make(chan struct{})
	db.coreHooks.StructDone = func(file sim.FileID) {
		if file == sb {
			close(parked)
			<-release
		}
	}
	victims := make([]int64, 0, 40)
	for k := int64(30); k < 70; k++ {
		victims = append(victims, k)
	}
	done := make(chan error, 1)
	go func() {
		_, err := tbl.BulkDelete(0, victims, BulkOptions{Method: SortMerge, Concurrent: true})
		done <- err
	}()
	<-parked
	fallbacks := db.Observer().Registry().Counter(obs.MetricSnapshotFallbackScans)
	before := fallbacks.Value()
	pre, err1 := view.LookupRange(1, 40, 180) // a in [20, 90]
	fresh, err2 := tbl.LookupRange(1, 40, 180)
	indexed := fallbacks.Value()
	if _, err := tbl.Lookup(2, 3*75); err != nil {
		t.Error(err)
	}
	scanned := fallbacks.Value()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if indexed != before {
		t.Errorf("%d lookups on the finished index fell back to the scan arm", indexed-before)
	}
	if scanned != indexed+1 {
		t.Error("a lookup on the index still in its pass did not take the scan arm")
	}
	if want := rowsFor(20, 90, 1, 0); !reflect.DeepEqual(sortedRows(pre), want) {
		t.Errorf("pre-delete view = %v, want %v", pre, want)
	}
	if want := rowsFor(20, 90, 30, 69); !reflect.DeepEqual(sortedRows(fresh), want) {
		t.Errorf("fresh read = %v, want %v", fresh, want)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}
