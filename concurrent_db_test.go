package bulkdel

import (
	"sync/atomic"
	"testing"
	"time"
)

// newTwoTableDB builds R and S (n rows, 3 indexes each) on a 6-device
// array: the global round-robin cursor places R's indexes on devices 1..3
// and S's on 4..6, so the two statements' index passes touch disjoint
// arms and only share device 0 (heap, WAL, scratch).
func newTwoTableDB(t *testing.T, n int) (*DB, *Table, *Table) {
	t.Helper()
	db, err := Open(Options{Devices: 6})
	if err != nil {
		t.Fatal(err)
	}
	var tbls [2]*Table
	for ti, name := range []string{"R", "S"} {
		tbl, err := db.CreateTable(name, 3, 64)
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
		tbls[ti] = tbl
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	return db, tbls[0], tbls[1]
}

// TestConcurrentStatementsOverlap is the PR's acceptance test: two bulk
// deletes on independent tables, run through RunConcurrent, must finish in
// less combined I/O wall-clock than executing them serially — i.e. the
// offline schedules genuinely overlap on the array. A serially-built twin
// provides the baseline.
func TestConcurrentStatementsOverlap(t *testing.T) {
	const rows, kills = 1200, 300
	opts := BulkOptions{Method: SortMerge, Concurrent: true, Parallel: 2}

	// Serial baseline: same build, same deletes, one after the other.
	_, sr, ss := newTwoTableDB(t, rows)
	var serial time.Duration
	for _, tbl := range []*Table{sr, ss} {
		res, err := tbl.BulkDelete(0, victims(rows, kills, 7), opts)
		if err != nil {
			t.Fatal(err)
		}
		serial += res.Elapsed
	}

	db, r, s := newTwoTableDB(t, rows)
	conc, err := db.RunConcurrent(
		func() error { _, err := r.BulkDelete(0, victims(rows, kills, 7), opts); return err },
		func() error { _, err := s.BulkDelete(0, victims(rows, kills, 7), opts); return err },
	)
	if err != nil {
		t.Fatal(err)
	}
	if conc.Statements != 2 {
		t.Fatalf("Statements = %d", conc.Statements)
	}
	if conc.Makespan >= conc.SerialEquivalent {
		t.Fatalf("no device overlap: makespan %v vs serial-equivalent %v",
			conc.Makespan, conc.SerialEquivalent)
	}
	if conc.Makespan >= serial {
		t.Fatalf("batch makespan %v not under the serial baseline %v",
			conc.Makespan, serial)
	}
	if conc.Overlap() <= 0 {
		t.Fatalf("Overlap() = %v", conc.Overlap())
	}
	t.Logf("makespan %v, serial-equivalent %v, serial twin %v",
		conc.Makespan, conc.SerialEquivalent, serial)

	// The overlap must not have cost correctness.
	for _, tbl := range []*Table{r, s} {
		if err := tbl.Check(); err != nil {
			t.Fatal(err)
		}
		n := int64(0)
		if err := tbl.Scan(func(RID, []int64) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != rows-kills {
			t.Fatalf("%d rows survive, want %d", n, rows-kills)
		}
	}
}

// TestConcurrentFKOppositeOrderNoDeadlock is the deadlock regression for
// the lock manager's ordered acquisition. Statement 1 deletes from the
// parent (its footprint is {orders, lines} via the cascade); statement 2
// deletes from the child. Issued in both textual orders, the batch must
// always complete — a wait-for cycle would hang it, which the watchdog
// turns into a failure.
func TestConcurrentFKOppositeOrderNoDeadlock(t *testing.T) {
	for _, flip := range []bool{false, true} {
		db, orders, lines := fkFixture(t, Cascade)

		// Disjoint victims keep the oracle simple: parents 0..49 cascade
		// into line IDs 0..149; the child statement kills line IDs
		// 600..749 (orders 200..249), which no cascade touches.
		parentVictims := make([]int64, 50)
		childVictims := make([]int64, 150)
		for i := range parentVictims {
			parentVictims[i] = int64(i)
		}
		for i := range childVictims {
			childVictims[i] = int64(600 + i)
		}
		opts := BulkOptions{Method: SortMerge, Concurrent: true}
		stmts := []func() error{
			func() error { _, err := orders.BulkDelete(0, parentVictims, opts); return err },
			func() error { _, err := lines.BulkDelete(1, childVictims, opts); return err },
		}
		if flip {
			stmts[0], stmts[1] = stmts[1], stmts[0]
		}

		type outcome struct {
			res *ConcurrentResult
			err error
		}
		ch := make(chan outcome, 1)
		go func() {
			res, err := db.RunConcurrent(stmts...)
			ch <- outcome{res, err}
		}()
		var out outcome
		select {
		case out = <-ch:
		case <-time.After(60 * time.Second):
			t.Fatalf("flip=%v: concurrent FK batch deadlocked", flip)
		}
		if out.err != nil {
			t.Fatalf("flip=%v: %v", flip, out.err)
		}

		for _, tbl := range []*Table{orders, lines} {
			if err := tbl.Check(); err != nil {
				t.Fatalf("flip=%v: %v", flip, err)
			}
		}
		counts := map[*Table]int64{}
		for _, tbl := range []*Table{orders, lines} {
			if err := tbl.Scan(func(RID, []int64) error { counts[tbl]++; return nil }); err != nil {
				t.Fatal(err)
			}
		}
		// 500 orders - 50 victims; 900 lines - 150 cascaded - 150 direct.
		if counts[orders] != 450 || counts[lines] != 600 {
			t.Fatalf("flip=%v: %d orders / %d lines survive, want 450/600",
				flip, counts[orders], counts[lines])
		}
	}
}

// TestCheckWaitsForOfflineIndex: after a concurrent bulk delete's §3.1 early
// release, its non-unique secondary index passes keep rebuilding trees
// offline, and a Check admitted by the released table lock must wait on the
// index gate before it scans the tree. (Lookups do not: they run on a
// snapshot, which a refused try-read sends to the heap while a pass is in
// flight.)
// The test stages the window directly: it takes a secondary gate offline and
// asserts Check did not return before the gate came back online, and that an
// insert beside the waiting Check still went to the side-file (Check takes
// its shared claim only once the gates are online).
func TestCheckWaitsForOfflineIndex(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("T", 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range []IndexOptions{
		{Name: "IA", Field: 0, Unique: true},
		{Name: "IB", Field: 1},
	} {
		if err := tbl.CreateIndex(ix); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 50; i++ {
		if _, err := tbl.Insert(i, 3*i, i%7); err != nil {
			t.Fatal(err)
		}
	}
	ix := heapOf(tbl).FindIndex("IB")

	// reopened is set (strictly) before BringOnline, so a Check that
	// correctly waited on the gate must observe it as true.
	var reopened atomic.Bool
	ix.Gate.TakeOffline()
	checked := make(chan error, 1)
	go func() { checked <- tbl.Check() }()
	time.Sleep(20 * time.Millisecond)
	inserted := make(chan error, 1)
	go func() {
		_, err := tbl.Insert(50, 150, 1)
		inserted <- err
	}()
	select {
	case err := <-inserted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("an insert queued behind a Check waiting for an offline index")
	}
	if _, err := drainSideFile(ix); err != nil {
		t.Fatal(err)
	}
	reopened.Store(true)
	ix.Gate.BringOnline()
	if err := <-checked; err != nil {
		t.Fatal(err)
	}
	if !reopened.Load() {
		t.Fatal("Check scanned a still-offline index")
	}
}
