package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bulkdel/internal/btree"
	"bulkdel/internal/buffer"
	"bulkdel/internal/cc"
	"bulkdel/internal/heap"
	"bulkdel/internal/keyenc"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
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
	h, err := heap.Create(pool, testSchema.Size)
	if err != nil {
		t.Fatal(err)
	}
	return makeTargetOn(t, pool, h, n, fields, unique)
}

// makeTargetOn is makeTarget over a given empty heap store.
func makeTargetOn(t *testing.T, pool *buffer.Pool, h heap.Store, n int, fields []int, unique []bool) *Target {
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

func TestUndeletableEntriesSurvive(t *testing.T) {
	pool := testPool(1024)
	tgt := makeTarget(t, pool, 2000, []int{0, 1}, []bool{false, false})
	// Protect the IB entry of victim 100 (as if a concurrent transaction
	// re-inserted it via direct propagation).
	undel := cc.NewUndeletableSet()
	ib := &tgt.Indexes[1]
	rids, err := ib.Tree.Search(keyenc.Int64Key(300, 8)) // field1 = 3*100
	if err != nil || len(rids) != 1 {
		t.Fatalf("setup: %v %v", rids, err)
	}
	undel.Mark(keyenc.Int64Key(300, 8), rids[0])
	victims, _ := pickVictims(2000, 0, 0)
	victims = append(victims, 100, 101)
	_, err = Execute(tgt, 0, victims, Options{Method: SortMerge, Undeletable: undel})
	if err != nil {
		t.Fatal(err)
	}
	// Victim 101 fully gone; victim 100 gone from heap and IA, but its
	// protected IB entry survives.
	if got, _ := tgt.Indexes[0].Tree.Search(keyenc.Int64Key(100, 8)); len(got) != 0 {
		t.Fatal("IA entry of victim 100 survived")
	}
	if got, _ := ib.Tree.Search(keyenc.Int64Key(300, 8)); len(got) != 1 {
		t.Fatal("undeletable IB entry was deleted")
	}
	if got, _ := ib.Tree.Search(keyenc.Int64Key(303, 8)); len(got) != 0 {
		t.Fatal("IB entry of victim 101 survived")
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

// TestOnStructureDoneAndCriticalHooks: the callbacks mutate unsynchronized
// state, as an engine's may — the runner never invokes them concurrently,
// serial or fanned out over a device array. The first index callback of the
// fan-out lingers, so the other pass's callback would walk in on it.
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
			var inside atomic.Int32
			overlap := make(chan struct{})
			victims, set := pickVictims(5000, 500, 13)
			st, err := Execute(tgt, 0, victims, Options{
				Method:   SortMerge,
				Parallel: parallel,
				OnStructureDone: func(f sim.FileID) {
					if inside.Add(1) == 2 {
						close(overlap)
					}
					defer inside.Add(-1)
					if parallel > 1 && len(done) == 2 {
						select {
						case <-overlap:
							t.Error("OnStructureDone invoked concurrently")
						case <-time.After(100 * time.Millisecond):
						}
					}
					done = append(done, f)
				},
				OnCriticalDone: func() { critical = len(done) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if (st.Schedule != nil) != (parallel > 1) {
				t.Fatalf("parallel=%d: schedule %v", parallel, st.Schedule)
			}
			if len(done) != 4 {
				t.Fatalf("structure-done hooks: %d, want 4", len(done))
			}
			// Order: IA (access), heap, then IB (unique) and IC — in that
			// order serially, in either order when they overlap.
			ib, ic := tgt.Indexes[1].Tree.ID(), tgt.Indexes[2].Tree.ID()
			if done[0] != tgt.Indexes[0].Tree.ID() || done[1] != tgt.Heap.ID() ||
				!(done[2] == ib && done[3] == ic || parallel > 1 && done[2] == ic && done[3] == ib) {
				t.Fatalf("structure order wrong: %v", done)
			}
			// Critical point: once IB, the last unique index, is done —
			// before IC serially.
			if critical <= slices.Index(done, ib) || parallel <= 1 && critical != 3 {
				t.Fatalf("critical-done fired after %d structures of %v", critical, done)
			}
			verifyTarget(t, tgt, set, 5000)
		})
	}
}
