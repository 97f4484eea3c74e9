package bulkdel

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"bulkdel/internal/lsm"
	"bulkdel/internal/sim"
)

// newLSMDB builds an LSM-backed table R(A,B,C) of n rows (A=i, B=3i,
// C=i%97).
func newLSMDB(t *testing.T, n int, opts Options) (*DB, *Table) {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTableLSM("R", 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Backend() != BackendLSM {
		t.Fatalf("backend = %q", tbl.Backend())
	}
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(int64(i), int64(3*i), int64(i%97)); err != nil {
			t.Fatal(err)
		}
	}
	return db, tbl
}

// TestBackendParity drives one seeded statement sequence through every
// storage backend behind Table and checks each step against a plain map:
// the shared surface of the seam (insert, Lookup, LookupRange, Scan, Count,
// the key reads of one View, IN-list BulkDelete, DeleteRange on the key and
// on a non-key field, Check)
// must mean the same thing whichever implementation holds the rows, before
// and after a crash. Row sets are compared order-insensitively — physical
// order on a heap, key order on LSM.
func TestBackendParity(t *testing.T) {
	cases := []struct {
		name   string
		create func(db *DB) (*Table, error)
		// blind: DeleteRange on the key is one range tombstone, which does
		// not know how many rows it covered (Deleted == -1).
		blind bool
		// extra holds the backend's own assertions on the loaded table.
		extra func(t *testing.T, tbl *Table)
	}{
		{name: "heap-unique", create: func(db *DB) (*Table, error) {
			tbl, err := db.CreateTable("R", 3, 64)
			if err != nil {
				return nil, err
			}
			return tbl, tbl.CreateIndex(IndexOptions{Name: "IA", Field: 0, Unique: true})
		}},
		{name: "heap-hash", create: func(db *DB) (*Table, error) {
			return db.CreateTablePartitioned("R", 3, 64, PartitionSpec{Field: 0, HashParts: 4})
		}},
		{name: "lsm", blind: true, create: func(db *DB) (*Table, error) {
			return db.CreateTableLSM("R", 3, 64)
		}, extra: lsmSpecifics},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db, err := Open(Options{})
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := c.create(db)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			model := make(map[int64][]int64)
			where := func(keep func(row []int64) bool) [][]int64 {
				var out [][]int64
				for _, row := range model {
					if keep(row) {
						out = append(out, row)
					}
				}
				return out
			}
			insert := func(keys []int) {
				t.Helper()
				for _, k := range keys {
					row := []int64{int64(k), int64(3 * k), int64(k % 7)}
					if _, err := tbl.Insert(row...); err != nil {
						t.Fatalf("insert %d: %v", k, err)
					}
					model[row[0]] = row
				}
			}
			// agree compares every read path of tbl against the model.
			agree := func(stage string, tbl *Table) {
				t.Helper()
				if got := tbl.Count(); got != int64(len(model)) {
					t.Fatalf("%s: Count = %d, model has %d", stage, got, len(model))
				}
				var scanned [][]int64
				if err := tbl.Scan(func(_ RID, f []int64) error {
					scanned = append(scanned, f)
					return nil
				}); err != nil {
					t.Fatalf("%s: Scan: %v", stage, err)
				}
				requireSameRows(t, stage+": Scan", scanned, where(func([]int64) bool { return true }))
				for i := 0; i < 20; i++ {
					k := int64(rng.Intn(2200)) // some keys absent
					rows, err := tbl.Lookup(0, k)
					if err != nil {
						t.Fatalf("%s: Lookup(0, %d): %v", stage, k, err)
					}
					requireSameRows(t, stage+": Lookup on the key", rows, where(func(r []int64) bool { return r[0] == k }))
				}
				rows, err := tbl.Lookup(2, 3)
				if err != nil {
					t.Fatalf("%s: Lookup(2, 3): %v", stage, err)
				}
				requireSameRows(t, stage+": Lookup on a non-key field", rows, where(func(r []int64) bool { return r[2] == 3 }))
				lo := int64(rng.Intn(1800))
				rows, err = tbl.LookupRange(0, lo, lo+150)
				if err != nil {
					t.Fatalf("%s: LookupRange(0): %v", stage, err)
				}
				requireSameRows(t, stage+": LookupRange on the key", rows, where(func(r []int64) bool { return r[0] >= lo && r[0] <= lo+150 }))
				rows, err = tbl.LookupRange(1, 3*lo, 3*lo+100)
				if err != nil {
					t.Fatalf("%s: LookupRange(1): %v", stage, err)
				}
				requireSameRows(t, stage+": LookupRange on a non-key field", rows, where(func(r []int64) bool { return r[1] >= 3*lo && r[1] <= 3*lo+100 }))
				if err := tbl.Check(); err != nil {
					t.Fatalf("%s: Check: %v", stage, err)
				}
				// One View answers k = live, k = dropped, an IN list with a
				// duplicate and 450 (under the key-range delete's tombstone,
				// then re-inserted), and k BETWEEN — what a SQL SELECT on the
				// key lowers to.
				live, dropped := int64(-1), int64(-1)
				for k := int64(0); live < 0 || dropped < 0; k++ {
					if _, ok := model[k]; !ok && dropped < 0 {
						dropped = k
					} else if ok && live < 0 {
						live = k
					}
				}
				view, err := tbl.View()
				if err != nil {
					t.Fatalf("%s: View: %v", stage, err)
				}
				defer view.Close()
				for _, keys := range [][]int64{{live}, {dropped}, {live, live, dropped, 450}} {
					var got, want [][]int64
					for _, k := range keys {
						rows, err := view.Lookup(0, k)
						if err != nil {
							t.Fatalf("%s: View.Lookup(0, %d): %v", stage, k, err)
						}
						got = append(got, rows...)
						want = append(want, where(func(r []int64) bool { return r[0] == k })...)
					}
					requireSameRows(t, fmt.Sprintf("%s: View k IN %v", stage, keys), got, want)
				}
				rows, err = view.LookupRange(0, lo, lo+150)
				if err != nil {
					t.Fatalf("%s: View.LookupRange(0): %v", stage, err)
				}
				requireSameRows(t, stage+": View k BETWEEN", rows, where(func(r []int64) bool { return r[0] >= lo && r[0] <= lo+150 }))
			}
			// drop removes the model rows keep selects and returns how many.
			drop := func(keep func(row []int64) bool) int64 {
				doomed := where(keep)
				for _, row := range doomed {
					delete(model, row[0])
				}
				return int64(len(doomed))
			}

			insert(rng.Perm(2000))
			agree("after load", tbl)
			if c.extra != nil {
				c.extra(t, tbl)
			}

			// IN-list delete: every third key, plus keys that never existed.
			victims := []int64{5000, 5001}
			for k := int64(0); k < 2000; k += 3 {
				victims = append(victims, k)
			}
			vset := make(map[int64]bool)
			for _, v := range victims {
				vset[v] = true
			}
			res, err := tbl.BulkDelete(0, victims, BulkOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if want := drop(func(r []int64) bool { return vset[r[0]] }); res.Deleted != want {
				t.Fatalf("BulkDelete removed %d rows, model %d", res.Deleted, want)
			}
			agree("after the IN-list delete", tbl)

			res, err = tbl.DeleteRange(0, 400, 899, BulkOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := drop(func(r []int64) bool { return r[0] >= 400 && r[0] <= 899 })
			if res.Deleted != want && !(c.blind && res.Deleted == -1) {
				t.Fatalf("DeleteRange on the key removed %d rows, model %d", res.Deleted, want)
			}
			agree("after the key-range delete", tbl)

			res, err = tbl.DeleteRange(1, 3*1500, 3*1699, BulkOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if want := drop(func(r []int64) bool { return r[1] >= 3*1500 && r[1] <= 3*1699 }); res.Deleted != want {
				t.Fatalf("DeleteRange on a non-key field removed %d rows, model %d", res.Deleted, want)
			}
			if res, err := tbl.DeleteRange(0, 10, 9, BulkOptions{}); err != nil || res.Deleted != 0 {
				t.Fatalf("empty-range delete = %+v, %v", res, err)
			}
			insert([]int{3, 450, 1600, 2100}) // deleted keys come back, plus a new one
			agree("after the non-key-range delete and re-inserts", tbl)

			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			rdb, _, err := Recover(db.SimulateCrash(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			rtbl := rdb.Table("R")
			if rtbl == nil || rtbl.Backend() != tbl.Backend() {
				t.Fatalf("table R not recovered on backend %q", tbl.Backend())
			}
			agree("after crash and recovery", rtbl)
		})
	}
}

// requireSameRows compares two row sets order-insensitively (field 0 is
// unique in every parity table, so it orders both sides).
func requireSameRows(t *testing.T, what string, got, want [][]int64) {
	t.Helper()
	byKey := func(a, b []int64) int { return cmp.Compare(a[0], b[0]) }
	got, want = slices.Clone(got), slices.Clone(want)
	slices.SortFunc(got, byKey)
	slices.SortFunc(want, byKey)
	if !slices.EqualFunc(got, want, func(a, b []int64) bool { return slices.Equal(a, b) }) {
		t.Fatalf("%s: got %d rows, model has %d (first rows %v vs %v)", what, len(got), len(want), first(got), first(want))
	}
}

func first(rows [][]int64) []int64 {
	if len(rows) == 0 {
		return nil
	}
	return rows[0]
}

// lsmSpecifics is the LSM case's own half of the parity test: what only a
// key-addressed, merge-read backend promises.
func lsmSpecifics(t *testing.T, tbl *Table) {
	// Upsert: re-inserting a key overwrites the row instead of adding one.
	before := tbl.Count()
	if _, err := tbl.Insert(123, 7, 7); err != nil {
		t.Fatal(err)
	}
	rows, _ := tbl.Lookup(0, 123)
	if len(rows) != 1 || rows[0][1] != 7 || tbl.Count() != before {
		t.Fatalf("upsert lost: %v (count %d -> %d)", rows, before, tbl.Count())
	}
	if _, err := tbl.Insert(123, 369, 123%7); err != nil { // back to the model's row
		t.Fatal(err)
	}
	// Key-range lookup arrives in key order.
	rows, err := tbl.LookupRange(0, 100, 104)
	if err != nil || len(rows) != 5 || rows[0][0] != 100 || rows[4][0] != 104 {
		t.Fatalf("range lookup = %v, %v", rows, err)
	}
	// Explain mentions the tombstone plan rather than the ⋈̸ planner.
	if plan := tbl.Explain(0, Auto, 0); !strings.Contains(plan, "LSM") {
		t.Fatalf("explain = %q", plan)
	}
}

// TestLSMRangeDeleteConstantIO is the backend's headline acceptance: a
// range delete covering 20% of the table costs O(1) foreground I/O — a
// WAL append + flush, never a function of the number of covered rows.
func TestLSMRangeDeleteConstantIO(t *testing.T) {
	db, tbl := newLSMDB(t, 10000, Options{})
	if err := tbl.CompactLSM(); err != nil { // push everything into SSTables
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil { // drain the buffered WAL insert tail
		t.Fatal(err)
	}
	before := db.Disk().IOCount()
	res, err := tbl.DeleteRange(0, 4000, 5999, BulkOptions{}) // 20% of keys
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != -1 {
		t.Fatalf("range delete should be blind, got Deleted=%d", res.Deleted)
	}
	cost := db.Disk().IOCount() - before
	if cost > 4 {
		t.Fatalf("20%% range delete cost %d I/Os, want O(1)", cost)
	}
	// The covered rows are invisible immediately.
	if got := tbl.Count(); got != 8000 {
		t.Fatalf("count after range delete = %d", got)
	}
	if rows, _ := tbl.Lookup(0, 4500); rows != nil {
		t.Fatalf("deleted key visible: %v", rows)
	}
	if rows, _ := tbl.Lookup(0, 3999); len(rows) != 1 {
		t.Fatal("survivor key missing")
	}
	// Reclamation: draining tombstones leaves a manifest with none.
	if err := tbl.CompactLSM(); err != nil {
		t.Fatal(err)
	}
	m := tbl.LSMManifest()
	for li, lvl := range m.Levels {
		for _, meta := range lvl {
			if meta.Tombs > 0 || meta.RangeTombs > 0 {
				t.Fatalf("level %d file %d still carries tombstones after drain", li, meta.File)
			}
		}
	}
	if got := tbl.Count(); got != 8000 {
		t.Fatalf("count after drain = %d", got)
	}
}

func TestLSMBackendRecovery(t *testing.T) {
	db, tbl := newLSMDB(t, 3000, Options{})
	// Make some state durable in SSTables...
	if err := tbl.CompactLSM(); err != nil {
		t.Fatal(err)
	}
	// ...then a post-flush tail: new rows, a point delete, a range delete,
	// all living only in WAL + memtable at the crash.
	for i := 3000; i < 3200; i++ {
		if _, err := tbl.Insert(int64(i), int64(3*i), int64(i%97)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.BulkDelete(0, []int64{10}, BulkOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.DeleteRange(0, 1000, 1499, BulkOptions{}); err != nil {
		t.Fatal(err)
	}

	disk := db.SimulateCrash()
	db2, rep, err := Recover(disk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LSMReplayed == 0 {
		t.Fatal("recovery replayed no LSM records")
	}
	tbl2 := db2.Table("R")
	if tbl2 == nil || tbl2.Backend() != BackendLSM {
		t.Fatal("LSM table lost across recovery")
	}
	// 3000 + 200 inserted - 1 point - 500 range = 2699.
	if got := tbl2.Count(); got != 2699 {
		t.Fatalf("count after recovery = %d", got)
	}
	if rows, _ := tbl2.Lookup(0, 10); rows != nil {
		t.Fatal("point-deleted row resurrected")
	}
	if rows, _ := tbl2.Lookup(0, 1234); rows != nil {
		t.Fatal("range-deleted row resurrected")
	}
	if rows, _ := tbl2.Lookup(0, 3100); len(rows) != 1 {
		t.Fatal("post-flush insert lost")
	}
	if err := tbl2.Check(); err != nil {
		t.Fatal(err)
	}
	// A second crash/recover round-trip must be idempotent.
	disk2 := db2.SimulateCrash()
	db3, _, err := Recover(disk2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := db3.Table("R").Count(); got != 2699 {
		t.Fatalf("count after second recovery = %d", got)
	}
}

func TestLSMBackendSQLRouting(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// CREATE TABLE ... BACKEND LSM selects the backend per table even when
	// the DB default is the heap.
	tbl, err := db.CreateTableLSM("S", 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	heapTbl, err := db.CreateTable("H", 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Backend() != BackendLSM || heapTbl.Backend() != "heap" {
		t.Fatalf("backends = %q, %q", tbl.Backend(), heapTbl.Backend())
	}
	// Heap DeleteRange resolves the range and runs the ⋈̸ machinery.
	for i := 0; i < 100; i++ {
		if _, err := heapTbl.Insert(int64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := heapTbl.DeleteRange(0, 10, 19, BulkOptions{})
	if err != nil || res.Deleted != 10 {
		t.Fatalf("heap DeleteRange = %+v, %v", res, err)
	}
	if got := heapTbl.Count(); got != 90 {
		t.Fatalf("heap count = %d", got)
	}
}

// TestLSMConcurrentInsertsRecoverIntact pins the review's lost-write
// race: concurrent inserts allocate seqs, WAL-log them, and apply them to
// the memtable; a flush triggered by one insert must never publish a
// flushed-seq horizon covering another insert's still-unapplied seq, or
// that row's WAL record is skipped on replay and the row vanishes after
// a crash. Default MemLimit (256) guarantees many flushes during the run.
func TestLSMConcurrentInsertsRecoverIntact(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTableLSM("R", 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := int64(w*perWorker + i)
				if _, err := tbl.Insert(k, 3*k, k%97); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	// Un-flushed WAL appends are volatile by contract (inserts are not
	// durable until the log is forced); the race under test is about rows
	// whose records ARE durable being skipped at replay, so force the tail.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	disk := db.SimulateCrash()
	db2, _, err := Recover(disk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl2 := db2.Table("R")
	if got := tbl2.Count(); got != workers*perWorker {
		t.Fatalf("count after crash recovery = %d, want %d — concurrent insert lost", got, workers*perWorker)
	}
	for k := int64(0); k < workers*perWorker; k += 97 {
		rows, err := tbl2.Lookup(0, k)
		if err != nil || len(rows) != 1 || rows[0][1] != 3*k {
			t.Fatalf("key %d after recovery: rows=%v err=%v", k, rows, err)
		}
	}
}

// CreateTableLSM must reject schemas and names the on-disk formats cannot
// frame, instead of panicking at the first flush (oversized records) or
// corrupting WAL replay (names longer than the 1-byte length prefix).
func TestLSMCreateTableValidation(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTableLSM("big", 3, maxLSMRecordSize+1); err == nil {
		t.Fatalf("record size %d accepted; max is %d", maxLSMRecordSize+1, maxLSMRecordSize)
	}
	if _, err := db.CreateTableLSM(strings.Repeat("n", 256), 2, 16); err == nil {
		t.Fatal("256-byte table name accepted; WAL frames cap names at 255")
	}
	// The boundary cases stay usable end to end.
	tbl, err := db.CreateTableLSM(strings.Repeat("n", 255), 2, maxLSMRecordSize-maxLSMRecordSize%8)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 300; i++ { // past MemLimit so a flush runs
		if _, err := tbl.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CompactLSM(); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Count(); got != 300 {
		t.Fatalf("count = %d", got)
	}
}

// TestLSMMaxRecordSize: the largest row CREATE TABLE accepts is the one
// whose worst-case entry — the whole first key, the longest seq uvarint,
// the row minus its key field — fills a data block. At exactly that size a
// table round-trips through flushes, compaction and Recover; a byte more
// is refused up front.
func TestLSMMaxRecordSize(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTableLSM("over", 2, maxLSMRecordSize+1); err == nil {
		t.Fatalf("record size %d accepted; max is %d", maxLSMRecordSize+1, maxLSMRecordSize)
	}
	tbl, err := db.CreateTableLSM("max", 2, maxLSMRecordSize)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 1100 // four flushes, so L0 compacts into L1
	key := func(i int64) int64 { return (i - rows/2) << 52 }
	for i := int64(0); i < rows; i++ {
		if _, err := tbl.Insert(key(i), -i); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CompactLSM(); err != nil {
		t.Fatal(err)
	}
	if m := tbl.LSMManifest(); len(m.Levels) < 2 || len(m.Levels[1]) == 0 {
		t.Fatalf("no compaction ran: %d levels", len(m.Levels))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db2, _, err := Recover(db.SimulateCrash(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl2 := db2.Table("max")
	if err := tbl2.Check(); err != nil {
		t.Fatal(err)
	}
	if n := tbl2.Count(); n != rows {
		t.Fatalf("count after recovery = %d, want %d", n, rows)
	}
	for _, i := range []int64{0, 1, rows / 2, rows - 1} {
		got, err := tbl2.Lookup(0, key(i))
		if err != nil || len(got) != 1 || got[0][0] != key(i) || got[0][1] != -i {
			t.Fatalf("lookup %d: %v %v", key(i), got, err)
		}
	}
}

// A Table.Scan callback on an LSM table may re-enter the table's read
// paths, exactly as it can on the heap backend.
func TestLSMScanCallbackReentry(t *testing.T) {
	_, tbl := newLSMDB(t, 500, Options{})
	visited := 0
	err := tbl.Scan(func(_ RID, fields []int64) error {
		visited++
		rows, err := tbl.Lookup(0, (fields[0]+250)%500)
		if err != nil || len(rows) != 1 {
			t.Fatalf("re-entrant lookup from scan callback: rows=%v err=%v", rows, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != 500 {
		t.Fatalf("scan saw %d rows, want 500", visited)
	}
}

// TestHeapOnlyOpsOnLSMTable calls every heap-only entry point on an LSM
// table that shares a two-device database with a heap table. The ones that
// can report an error return the single "not supported on LSM table" error
// of Table.heap; the ones that cannot return their zero answer; and a
// rebalance moves heap and index files only and leaves the database usable.
// Before the storage seam the stub heap made Partitions, AlterPartitioning,
// EstimateMethods and Rebalance panic (the last with db.mu held).
func TestHeapOnlyOpsOnLSMTable(t *testing.T) {
	db, err := Open(Options{Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	h, err := db.CreateTablePartitioned("H", 3, 64, PartitionSpec{Field: 0, HashParts: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.CreateTableLSM("S", 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		for _, tbl := range []*Table{h, s} {
			if _, err := tbl.Insert(int64(i), int64(3*i), int64(i%7)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := h.CreateIndex(IndexOptions{Name: "IA", Field: 0, Unique: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.CompactLSM(); err != nil { // SSTables on disk: files the rebalancer must leave alone
		t.Fatal(err)
	}

	id := func(v int64) int64 { return v }
	refused := map[string]func() error{
		"CreateIndex": func() error { return s.CreateIndex(IndexOptions{Name: "IA", Field: 0}) },
		"DropIndex":   func() error { return s.DropIndex("IA") },
		"DeleteRow":   func() error { return s.DeleteRow(RID{}) },
		"Get":         func() error { _, err := s.Get(RID{}); return err },
		"LookupRIDs":  func() error { _, err := s.LookupRIDs(0, 1); return err },
		"View.Get": func() error {
			v, err := s.View()
			if err != nil {
				return err
			}
			defer v.Close()
			_, _, err = v.Get(RID{})
			return err
		},
		"BulkUpdate":        func() error { _, err := s.BulkUpdate(0, []int64{1}, 1, id, BulkOptions{}); return err },
		"DeleteTraditional": func() error { _, err := s.DeleteTraditional(0, []int64{1}, true); return err },
		"DeleteDropCreate":  func() error { _, err := s.DeleteDropCreate(0, []int64{1}); return err },
		"AlterPartitioning": func() error { return s.AlterPartitioning(PartitionSpec{Field: 0, HashParts: 2}) },
	}
	for name, call := range refused {
		if err := call(); err == nil || err.Error() != "bulkdel: not supported on LSM table S" {
			t.Errorf("%s on an LSM table: error %v, want the not-supported error", name, err)
		}
	}
	if got := s.Partitions(); got != 0 {
		t.Errorf("Partitions = %d, want 0", got)
	}
	if got := s.PartitionSpec(); !reflect.DeepEqual(got, PartitionSpec{}) {
		t.Errorf("PartitionSpec = %+v, want the zero spec", got)
	}
	if got := s.EstimateMethods(0, 100, 0); len(got) != 0 {
		t.Errorf("EstimateMethods = %v, want empty", got)
	}
	if !s.HasIndexOnField(0) || s.HasIndexOnField(1) {
		t.Error("an LSM table's access path is its key, field 0, alone")
	}
	if s.IndexNames() != nil || s.IndexHeight("IA") != 0 {
		t.Error("LSM table reports an index")
	}
	s.SetDeletePolicy(true) // a no-op, not a panic

	// Rebalance onto a grown array: only H's partitions and index move.
	sstables := make(map[sim.FileID]int)
	for _, lvl := range s.LSMManifest().Levels {
		for _, meta := range lvl {
			sstables[sim.FileID(meta.File)] = db.Disk().DeviceOf(sim.FileID(meta.File))
		}
	}
	if len(sstables) == 0 {
		t.Fatal("the LSM table has no SSTable on disk")
	}
	if err := db.GrowDevices(4); err != nil {
		t.Fatal(err)
	}
	res, err := db.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Moves) == 0 {
		t.Fatal("rebalance moved nothing")
	}
	for _, m := range res.Moves {
		if _, ok := sstables[m.File]; ok {
			t.Errorf("rebalance moved SSTable %d", m.File)
		}
	}
	for f, dev := range sstables {
		if got := db.Disk().DeviceOf(f); got != dev {
			t.Errorf("SSTable %d went from device %d to %d", f, dev, got)
		}
	}
	// Still usable: nothing was left locked, both tables answer and check.
	for _, tbl := range []*Table{h, s} {
		if _, err := tbl.Insert(9000, 27000, 5); err != nil {
			t.Fatal(err)
		}
		if got := tbl.Count(); got != 601 {
			t.Errorf("%s: count %d after rebalance, want 601", tbl.Name(), got)
		}
		if err := tbl.Check(); err != nil {
			t.Errorf("%s: %v", tbl.Name(), err)
		}
	}
	if got := h.Partitions(); got != 4 {
		t.Errorf("heap table has %d partitions, want 4", got)
	}
}

// TestViewOnLSMPinsItsSnapshot opens a View on an LSM table whose memtable
// flushes every 8 entries, then overwrites and adds rows until flushes and
// compactions have rebuilt the levels under it. The View keeps returning
// the rows of the moment it opened, the files those compactions superseded
// stay on disk until it closes, and they are gone after.
func TestViewOnLSMPinsItsSnapshot(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTableLSM("R", 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	tbl.b = newLSMBackend(tbl, db.newLSMTree(64, lsm.Options{MemLimit: 8}))
	for i := int64(0); i < 40; i++ {
		if _, err := tbl.Insert(i, 3*i, i%7); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.DeleteRange(0, 10, 19, BulkOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := int64(40); i < 43; i++ { // rows in the memtable at capture
		if _, err := tbl.Insert(i, 3*i, i%7); err != nil {
			t.Fatal(err)
		}
	}
	want, err := tbl.LookupRange(0, 0, 1000)
	if err != nil || len(want) != 33 {
		t.Fatalf("rows before the view: %d, %v", len(want), err)
	}
	files := func() map[sim.FileID]bool {
		out := make(map[sim.FileID]bool)
		for _, lvl := range tbl.LSMManifest().Levels {
			for _, meta := range lvl {
				out[sim.FileID(meta.File)] = true
			}
		}
		return out
	}
	pinned := files()
	view, err := tbl.View()
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < 400; i++ {
			if _, err := tbl.Insert(i%60, -i, -1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	check := func(stage string) {
		t.Helper()
		rows, err := view.LookupRange(0, 0, 1000)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		requireSameRows(t, stage+": View.LookupRange", rows, want)
		for _, k := range []int64{5, 15, 41, 45} {
			rows, err := view.Lookup(0, k)
			if err != nil {
				t.Fatalf("%s: View.Lookup(0, %d): %v", stage, k, err)
			}
			requireSameRows(t, fmt.Sprintf("%s: View.Lookup(0, %d)", stage, k), rows, rowsWithKey(want, k))
		}
	}
	for i := 0; i < 20; i++ {
		check("while inserting")
	}
	wg.Wait()
	check("after inserting")

	now := files()
	var superseded []sim.FileID
	for f := range pinned {
		if !now[f] {
			superseded = append(superseded, f)
		}
	}
	if len(superseded) == 0 || len(now) == 0 {
		t.Fatalf("no compaction superseded a pinned file (pinned %d, now %d)", len(pinned), len(now))
	}
	for _, f := range superseded {
		if _, err := db.Disk().NumPages(f); err != nil {
			t.Fatalf("superseded file %d dropped under an open view: %v", f, err)
		}
	}
	view.Close()
	for _, f := range superseded {
		if _, err := db.Disk().NumPages(f); err == nil {
			t.Errorf("superseded file %d still on disk after the view closed", f)
		}
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}

// rowsWithKey selects the rows whose key is k.
func rowsWithKey(rows [][]int64, k int64) [][]int64 {
	var out [][]int64
	for _, r := range rows {
		if r[0] == k {
			out = append(out, r)
		}
	}
	return out
}
