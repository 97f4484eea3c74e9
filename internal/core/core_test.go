package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"bulkdel/internal/btree"
	"bulkdel/internal/buffer"
	"bulkdel/internal/heap"
	"bulkdel/internal/keyenc"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
	"bulkdel/internal/wal"
)

var testSchema = record.Schema{NumFields: 3, Size: 64}

func testPool(pages int) *buffer.Pool {
	d := sim.NewDisk(sim.CostModel{
		Seek:         8 * time.Millisecond,
		Rotation:     4 * time.Millisecond,
		TransferPage: 1 * time.Millisecond,
	})
	return buffer.New(d, pages*sim.PageSize)
}

// makeTarget builds a 3-field table with n rows (field0 = i, field1 = 3i,
// field2 = i mod 211) and the requested indexes.
func makeTarget(t *testing.T, pool *buffer.Pool, n int, fields []int, unique []bool) *Target {
	t.Helper()
	h, err := heap.CreateHeap(pool, testSchema, heap.PartitionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	return makeTargetOn(t, pool, h, n, fields, unique)
}

// makeTargetOn is makeTarget over a given empty heap.
func makeTargetOn(t *testing.T, pool *buffer.Pool, h *heap.Heap, n int, fields []int, unique []bool) *Target {
	t.Helper()
	rec := make([]byte, testSchema.Size)
	rids := make([]record.RID, n)
	for i := 0; i < n; i++ {
		if err := testSchema.EncodeInto(rec, rowFor(i)); err != nil {
			t.Fatal(err)
		}
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	tgt := &Target{Name: "R", Heap: h, Schema: testSchema, Pool: pool}
	for k, f := range fields {
		tr, err := btree.Create(pool, 8, unique[k])
		if err != nil {
			t.Fatal(err)
		}
		// Build via sorted bulk load.
		type ent struct {
			v   int64
			rid record.RID
		}
		ents := make([]ent, n)
		for i := 0; i < n; i++ {
			ents[i] = ent{v: rowFor(i)[f], rid: rids[i]}
		}
		sort.Slice(ents, func(a, b int) bool {
			if ents[a].v != ents[b].v {
				return ents[a].v < ents[b].v
			}
			return ents[a].rid.Less(ents[b].rid)
		})
		i := 0
		err = tr.BulkLoad(func() (btree.Entry, bool, error) {
			if i >= n {
				return btree.Entry{}, false, nil
			}
			e := btree.Entry{Key: keyenc.Int64Key(ents[i].v, 8), RID: ents[i].rid}
			i++
			return e, true, nil
		}, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		name := []string{"IA", "IB", "IC"}[k]
		tgt.Indexes = append(tgt.Indexes, IndexRef{
			Name: name, Tree: tr, Field: f, Unique: unique[k],
		})
	}
	return tgt
}

func rowFor(i int) []int64 {
	return []int64{int64(i), int64(3 * i), int64(i % 211)}
}

// verifyTarget checks heap/index agreement and tree invariants, and that
// exactly the expected field-0 values survive.
func verifyTarget(t *testing.T, tgt *Target, deleted map[int64]bool, n int) {
	t.Helper()
	type pair struct {
		v   int64
		rid record.RID
	}
	perIndex := make([][]pair, len(tgt.Indexes))
	count := int64(0)
	err := tgt.Heap.Scan(func(rid record.RID, rec []byte) error {
		v0 := tgt.Schema.Field(rec, 0)
		if deleted[v0] {
			t.Fatalf("victim %d still in heap", v0)
		}
		for k, ix := range tgt.Indexes {
			perIndex[k] = append(perIndex[k], pair{v: tgt.Schema.Field(rec, ix.Field), rid: rid})
		}
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(n - len(deleted))
	if count != want {
		t.Fatalf("heap holds %d records, want %d", count, want)
	}
	if tgt.Heap.Count() != want {
		t.Fatalf("heap count %d, want %d", tgt.Heap.Count(), want)
	}
	for k, ix := range tgt.Indexes {
		if err := ix.Tree.CheckInvariants(); err != nil {
			t.Fatalf("index %s: %v", ix.Name, err)
		}
		if ix.Tree.Count() != want {
			t.Fatalf("index %s has %d entries, want %d", ix.Name, ix.Tree.Count(), want)
		}
		wantPairs := perIndex[k]
		sort.Slice(wantPairs, func(a, b int) bool {
			if wantPairs[a].v != wantPairs[b].v {
				return wantPairs[a].v < wantPairs[b].v
			}
			return wantPairs[a].rid.Less(wantPairs[b].rid)
		})
		j := 0
		err := ix.Tree.ScanAll(func(key []byte, rid record.RID) error {
			if j >= len(wantPairs) || keyenc.Int64(key) != wantPairs[j].v || rid != wantPairs[j].rid {
				t.Fatalf("index %s entry %d mismatch", ix.Name, j)
			}
			j++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if j != len(wantPairs) {
			t.Fatalf("index %s scanned %d entries, want %d", ix.Name, j, len(wantPairs))
		}
	}
}

func pickVictims(n, k int, seed int64) ([]int64, map[int64]bool) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	vals := make([]int64, k)
	set := make(map[int64]bool, k)
	for i := 0; i < k; i++ {
		vals[i] = int64(perm[i])
		set[vals[i]] = true
	}
	return vals, set
}

func TestSortMergeCorrectness(t *testing.T) {
	pool := testPool(2048)
	tgt := makeTarget(t, pool, 20000, []int{0, 1, 2}, []bool{true, true, false})
	victims, set := pickVictims(20000, 4000, 1)
	st, err := Execute(tgt, 0, victims, Options{Method: SortMerge})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 4000 {
		t.Fatalf("deleted %d, want 4000", st.Deleted)
	}
	if st.Method != SortMerge || st.Victims != 4000 {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.PerStructure) != 4 {
		t.Fatalf("per-structure stats: %d, want 4", len(st.PerStructure))
	}
	verifyTarget(t, tgt, set, 20000)
}

func TestHashCorrectness(t *testing.T) {
	pool := testPool(2048)
	tgt := makeTarget(t, pool, 20000, []int{0, 1, 2}, []bool{true, true, false})
	victims, set := pickVictims(20000, 4000, 2)
	st, err := Execute(tgt, 0, victims, Options{Method: Hash})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 4000 {
		t.Fatalf("deleted %d", st.Deleted)
	}
	verifyTarget(t, tgt, set, 20000)
}

func TestHashPartitionCorrectness(t *testing.T) {
	pool := testPool(2048)
	tgt := makeTarget(t, pool, 20000, []int{0, 1, 2}, []bool{true, true, false})
	victims, set := pickVictims(20000, 4000, 3)
	// Tiny memory forces several partitions.
	st, err := Execute(tgt, 0, victims, Options{Method: HashPartition, Memory: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 4000 {
		t.Fatalf("deleted %d", st.Deleted)
	}
	if st.Partitions < 2 {
		t.Fatalf("partitions = %d, want >= 2", st.Partitions)
	}
	verifyTarget(t, tgt, set, 20000)
}

func TestMethodsAgree(t *testing.T) {
	// All three methods must leave identical logical state.
	type snapshot map[int64][]int64
	run := func(m Method) snapshot {
		pool := testPool(2048)
		tgt := makeTarget(t, pool, 8000, []int{0, 1, 2}, []bool{true, false, false})
		victims, _ := pickVictims(8000, 1600, 7)
		if _, err := Execute(tgt, 0, victims, Options{Method: m, Memory: 128 << 10}); err != nil {
			t.Fatal(err)
		}
		snap := snapshot{}
		err := tgt.Heap.Scan(func(_ record.RID, rec []byte) error {
			vals, err := tgt.Schema.Decode(rec)
			if err != nil {
				return err
			}
			snap[vals[0]] = vals
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	a, b, c := run(SortMerge), run(Hash), run(HashPartition)
	if len(a) != len(b) || len(a) != len(c) {
		t.Fatalf("sizes differ: %d/%d/%d", len(a), len(b), len(c))
	}
	for k, v := range a {
		if len(b[k]) == 0 || len(c[k]) == 0 || b[k][1] != v[1] || c[k][2] != v[2] {
			t.Fatalf("row %d differs across methods", k)
		}
	}
}

func TestDuplicateKeysAllDeleted(t *testing.T) {
	// Deleting by field2 (i mod 211) removes many records per victim key.
	pool := testPool(2048)
	tgt := makeTarget(t, pool, 10000, []int{2, 0}, []bool{false, true})
	st, err := Execute(tgt, 2, []int64{5, 17, 100}, Options{Method: SortMerge})
	if err != nil {
		t.Fatal(err)
	}
	// i%211 in {5,17,100}: ceil counts.
	want := int64(0)
	del := map[int64]bool{}
	for i := 0; i < 10000; i++ {
		m := int64(i % 211)
		if m == 5 || m == 17 || m == 100 {
			want++
			del[int64(i)] = true
		}
	}
	if st.Deleted != want {
		t.Fatalf("deleted %d, want %d", st.Deleted, want)
	}
	verifyTarget(t, tgt, del, 10000)
}

func TestNoAccessIndexFallsBackToScan(t *testing.T) {
	pool := testPool(1024)
	// Indexes on fields 0 and 1; delete by field 2 (no index).
	tgt := makeTarget(t, pool, 5000, []int{0, 1}, []bool{true, false})
	st, err := Execute(tgt, 2, []int64{3}, Options{Method: SortMerge})
	if err != nil {
		t.Fatal(err)
	}
	del := map[int64]bool{}
	for i := 0; i < 5000; i++ {
		if i%211 == 3 {
			del[int64(i)] = true
		}
	}
	if st.Deleted != int64(len(del)) {
		t.Fatalf("deleted %d, want %d", st.Deleted, len(del))
	}
	verifyTarget(t, tgt, del, 5000)
}

func TestEmptyVictimList(t *testing.T) {
	pool := testPool(1024)
	tgt := makeTarget(t, pool, 1000, []int{0}, []bool{true})
	st, err := Execute(tgt, 0, nil, Options{Method: SortMerge})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 0 {
		t.Fatalf("deleted %d from empty victim list", st.Deleted)
	}
	verifyTarget(t, tgt, map[int64]bool{}, 1000)
}

func TestAbsentVictimsAreNoops(t *testing.T) {
	pool := testPool(1024)
	tgt := makeTarget(t, pool, 1000, []int{0, 1}, []bool{true, false})
	st, err := Execute(tgt, 0, []int64{5, 99999, 7}, Options{Method: SortMerge})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 2 {
		t.Fatalf("deleted %d, want 2", st.Deleted)
	}
	verifyTarget(t, tgt, map[int64]bool{5: true, 7: true}, 1000)
}

func TestFieldOutOfRange(t *testing.T) {
	pool := testPool(256)
	tgt := makeTarget(t, pool, 10, []int{0}, []bool{true})
	if _, err := Execute(tgt, 9, []int64{1}, Options{}); err == nil {
		t.Fatal("out-of-range field accepted")
	}
}

func TestReorganizeShrinksLeafLevel(t *testing.T) {
	countLeafPages := func(reorg bool) (int64, sim.PageNo) {
		pool := testPool(2048)
		tgt := makeTarget(t, pool, 20000, []int{0}, []bool{true})
		victims, _ := pickVictims(20000, 14000, 9)
		if _, err := Execute(tgt, 0, victims, Options{Method: SortMerge, Reorganize: reorg}); err != nil {
			t.Fatal(err)
		}
		if err := tgt.Indexes[0].Tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		free, err := tgt.Indexes[0].Tree.FreePages()
		if err != nil {
			t.Fatal(err)
		}
		return int64(free), 0
	}
	freeNo, _ := countLeafPages(false)
	freeYes, _ := countLeafPages(true)
	if freeYes <= freeNo {
		t.Fatalf("reorganization freed %d pages vs %d without: expected more", freeYes, freeNo)
	}
}

func TestPlanExplainShapes(t *testing.T) {
	pool := testPool(1024)
	tgt := makeTarget(t, pool, 1000, []int{0, 1, 2}, []bool{false, false, false})
	for _, m := range []Method{SortMerge, Hash, HashPartition} {
		p := BuildPlan(tgt, 0, m, 5<<20, 3)
		s := p.String()
		if !strings.Contains(s, "⋈̸") {
			t.Fatalf("%v plan lacks the bulk delete operator:\n%s", m, s)
		}
		if !strings.Contains(s, "IA") || !strings.Contains(s, "IB") || !strings.Contains(s, "IC") {
			t.Fatalf("%v plan lacks an index:\n%s", m, s)
		}
	}
	// Figure 3: sort/merge plan sorts every victim list.
	s := BuildPlan(tgt, 0, SortMerge, 5<<20, 1).String()
	if strings.Count(s, "sort") < 3 {
		t.Fatalf("sort/merge plan should sort per structure:\n%s", s)
	}
	// Figure 4: hash plan builds a hash table and probes by RID.
	s = BuildPlan(tgt, 0, Hash, 5<<20, 1).String()
	if !strings.Contains(s, "hash build") || !strings.Contains(s, "by RID") {
		t.Fatalf("hash plan shape wrong:\n%s", s)
	}
	// Figure 5: partitioned plan mentions range partitioning.
	s = BuildPlan(tgt, 0, HashPartition, 5<<20, 3).String()
	if !strings.Contains(s, "range partition") {
		t.Fatalf("partitioned plan shape wrong:\n%s", s)
	}
}

func TestPlannerChoosesSensibly(t *testing.T) {
	pool := testPool(1024)
	tgt := makeTarget(t, pool, 20000, []int{0, 1}, []bool{true, false})
	// Plenty of memory: hash is applicable and avoids per-index sorts.
	m := ChooseMethod(tgt, 0, 3000, 8<<20)
	if m != Hash && m != SortMerge {
		t.Fatalf("auto chose %v", m)
	}
	// Tiny memory: hash is inapplicable; must pick a sorting strategy.
	m = ChooseMethod(tgt, 0, 3000, 16<<10)
	if m == Hash {
		t.Fatal("hash chosen although RID set cannot fit memory")
	}
	ests := EstimateCosts(tgt, 0, 3000, 16<<10)
	for _, e := range ests {
		if e.Method == Hash {
			t.Fatal("hash estimated although inapplicable")
		}
		if e.Time <= 0 {
			t.Fatalf("non-positive estimate for %v", e.Method)
		}
	}
	// Auto in Execute must work end to end.
	victims, set := pickVictims(20000, 1000, 11)
	st, err := Execute(tgt, 0, victims, Options{Method: Auto})
	if err != nil {
		t.Fatal(err)
	}
	if st.Method == Auto {
		t.Fatal("stats must report the resolved method")
	}
	verifyTarget(t, tgt, set, 20000)
}

// TestOnPassesStartPrecedesEveryChange: the hook fires once, after the
// logged statement's read-only prework and before its first pass changes a
// structure — the access pass, or the heap pass when no index covers the
// field.
func TestOnPassesStartPrecedesEveryChange(t *testing.T) {
	for _, field := range []int{0, 2} { // no index on field 2
		t.Run(fmt.Sprintf("field=%d", field), func(t *testing.T) {
			pool := testPool(2048)
			tgt := makeTarget(t, pool, 3000, []int{0, 1}, []bool{true, false})
			victims := []int64{5, 17, 40}
			if field == 0 {
				victims, _ = pickVictims(3000, 300, 7)
			}
			starts, done := 0, 0
			_, err := Execute(tgt, field, victims, Options{
				Method: SortMerge, Log: wal.Create(pool.Disk()), TxID: 7,
				OnPassesStart: func() {
					starts++
					if done > 0 || tgt.Heap.Count() != 3000 {
						t.Errorf("hook after a change: %d structures done, %d rows", done, tgt.Heap.Count())
					}
					for _, ix := range tgt.Indexes {
						if n := ix.Tree.Count(); n != 3000 {
							t.Errorf("hook after a change: %s holds %d entries", ix.Name, n)
						}
					}
				},
				OnStructureDone: func(sim.FileID) { done++ },
			})
			if err != nil {
				t.Fatal(err)
			}
			if starts != 1 || done != 3 || tgt.Heap.Count() == 3000 {
				t.Fatalf("hook fired %d times, %d structures done, %d rows left", starts, done, tgt.Heap.Count())
			}
		})
	}
}

// TestOnStructureDoneAndCriticalHooks: the callbacks run on the statement's
// goroutine in plan order — access index, heap, then the remaining indexes —
// whether the passes are scheduled serially or onto a device array's
// virtual workers, so an engine's callbacks may mutate unsynchronized state.
func TestOnStructureDoneAndCriticalHooks(t *testing.T) {
	for _, parallel := range []int{0, 3} {
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			pool := testPool(2048)
			if parallel > 1 {
				pool.Disk().ConfigureDevices(4)
			}
			tgt := makeTarget(t, pool, 5000, []int{0, 1, 2}, []bool{true, true, false})
			if parallel > 1 {
				for k, ix := range tgt.Indexes {
					if err := pool.Relocate(ix.Tree.ID(), k+1); err != nil {
						t.Fatal(err)
					}
				}
			}
			var done []sim.FileID
			critical := -1
			victims, set := pickVictims(5000, 500, 13)
			st, err := Execute(tgt, 0, victims, Options{
				Method:          SortMerge,
				Parallel:        parallel,
				OnStructureDone: func(f sim.FileID) { done = append(done, f) },
				OnCriticalDone:  func() { critical = len(done) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if (st.Schedule != nil) != (parallel > 1) {
				t.Fatalf("parallel=%d: schedule %v", parallel, st.Schedule)
			}
			want := []sim.FileID{tgt.Indexes[0].Tree.ID(), tgt.Heap.ID(),
				tgt.Indexes[1].Tree.ID(), tgt.Indexes[2].Tree.ID()}
			if !slices.Equal(done, want) {
				t.Fatalf("structure-done order %v, want plan order %v", done, want)
			}
			// Critical point: once IB, the last unique index, is done and
			// before IC.
			if critical != 3 {
				t.Fatalf("critical-done fired after %d structures of %v", critical, done)
			}
			verifyTarget(t, tgt, set, 5000)
		})
	}
}
