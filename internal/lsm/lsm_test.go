package lsm

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"bulkdel/internal/buffer"
	"bulkdel/internal/sim"
)

func newTree(t *testing.T, opts Options) (*Tree, *buffer.Pool) {
	t.Helper()
	disk := sim.NewDisk(sim.DefaultCostModel())
	pool := buffer.New(disk, 1<<20)
	return New(pool, 16, opts), pool
}

func rec(v int64) []byte {
	b := make([]byte, 16)
	b[0] = byte(v)
	b[8] = byte(v >> 1)
	return b
}

func put(tr *Tree, key int64) {
	tr.Put(key, rec(key), tr.NextSeq())
}

// model-checked random workload: puts, point deletes, range deletes,
// interleaved with flushes and compactions, against a map model — once with
// tables of up to 192 entries, once with 32, so levels hold many tables and
// range tombstones are clipped at output cuts.
//
// A third run deletes by range only, so its tombstone-bearing tables reach
// the in-place range reclamation (a table with point tombstones is pushed
// down instead). Check, run after every flush, verifies the invariant that
// reclamation rests on: no entry lies above a range tombstone hiding it.
func TestTreeMatchesModel(t *testing.T) {
	for _, c := range []struct {
		opts       Options
		pointDels  bool
		widest     int // tables some level >= 1 must reach
		inPlaceMin int // in-place range reclamations the run must reach
	}{
		{Options{MemLimit: 32, L0Limit: 3, LevelRatio: 2, TombstoneTTL: 2}, true, 1, 0},
		{Options{MemLimit: 8, L0Limit: 2, LevelRatio: 2, TombstoneTTL: 2}, true, 3, 0},
		{Options{MemLimit: 8, L0Limit: 2, LevelRatio: 2, TombstoneTTL: 2}, false, 3, 1},
	} {
		tr, _ := newTree(t, c.opts)
		name := fmt.Sprintf("tables=%d", tr.tableEntries())
		if !c.pointDels {
			name = "rangeOnly/" + name
		}
		t.Run(name, func(t *testing.T) {
			widest, inPlace := modelRun(t, tr, c.pointDels)
			if widest < c.widest {
				t.Fatalf("the widest level held %d tables, want >= %d", widest, c.widest)
			}
			if inPlace < c.inPlaceMin {
				t.Fatalf("%d in-place range reclamations, want >= %d", inPlace, c.inPlaceMin)
			}
		})
	}
}

// modelRun drives tr against the model, with point deletes or without, and
// returns the most tables a level >= 1 held at a checkpoint and how many
// commits rewrote a table keeping its birth tick, which only the in-place
// range reclamation does.
func modelRun(t *testing.T, tr *Tree, pointDels bool) (widest, inPlace int) {
	model := make(map[int64][]byte)
	rng := rand.New(rand.NewSource(7))
	born := make(map[uint32]uint64) // file -> birth tick, of every table seen
	tr.SetPersist(func() error {
		m := tr.Manifest()
		kept := false
		for _, lvl := range m.Levels[min(1, len(m.Levels)):] {
			for _, meta := range lvl {
				if _, seen := born[meta.File]; !seen && meta.Born < m.Tick {
					kept = true
				}
				born[meta.File] = meta.Born
			}
		}
		if kept {
			inPlace++
		}
		return nil
	})
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(10); {
		case op < 6 || op < 8 && !pointDels:
			k := int64(rng.Intn(500))
			tr.Put(k, rec(k), tr.NextSeq())
			model[k] = rec(k)
		case op < 8:
			k := int64(rng.Intn(500))
			tr.DeletePoint(k, tr.NextSeq())
			delete(model, k)
		case op == 8:
			lo := int64(rng.Intn(500))
			hi := lo + int64(rng.Intn(100))
			tr.DeleteRange(lo, hi, tr.NextSeq())
			for k := lo; k <= hi; k++ {
				delete(model, k)
			}
		default:
			if err := tr.MaybeFlush(); err != nil {
				t.Fatalf("step %d: flush: %v", step, err)
			}
			if err := tr.Check(); err != nil {
				t.Fatalf("step %d: check: %v", step, err)
			}
		}
		if step%500 == 499 {
			if err := tr.FlushMem(); err != nil {
				t.Fatalf("step %d: force flush: %v", step, err)
			}
			if err := tr.CompactAll(); err != nil {
				t.Fatalf("step %d: compact: %v", step, err)
			}
			checkAgainstModel(t, tr, model, step)
			if err := tr.Check(); err != nil {
				t.Fatalf("step %d: check: %v", step, err)
			}
			for _, n := range tr.Levels()[1:] {
				widest = max(widest, n)
			}
		}
	}
	if err := tr.DrainTombstones(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	checkAgainstModel(t, tr, model, -1)
	// After draining, no SSTable may carry a tombstone.
	m := tr.Manifest()
	for li, lvl := range m.Levels {
		for _, meta := range lvl {
			if meta.Tombs > 0 || meta.RangeTombs > 0 {
				t.Fatalf("level %d still carries tombstones: %+v", li, meta)
			}
		}
	}
	return widest, inPlace
}

func checkAgainstModel(t *testing.T, tr *Tree, model map[int64][]byte, step int) {
	t.Helper()
	n, err := tr.Count()
	if err != nil {
		t.Fatalf("step %d: count: %v", step, err)
	}
	if n != int64(len(model)) {
		t.Fatalf("step %d: count %d, model %d", step, n, len(model))
	}
	seen := 0
	prev := int64(-1 << 62)
	err = tr.Scan(func(key int64, r []byte) error {
		if key <= prev {
			return fmt.Errorf("scan out of order: %d after %d", key, prev)
		}
		prev = key
		want, ok := model[key]
		if !ok {
			return fmt.Errorf("scan surfaced deleted key %d", key)
		}
		if string(want) != string(r) {
			return fmt.Errorf("key %d: wrong record", key)
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatalf("step %d: scan: %v", step, err)
	}
	if seen != len(model) {
		t.Fatalf("step %d: scan saw %d rows, model %d", step, seen, len(model))
	}
	// Spot-check point gets, present and absent.
	for k := int64(0); k < 500; k += 37 {
		got, ok, err := tr.Get(k)
		if err != nil {
			t.Fatalf("step %d: get %d: %v", step, k, err)
		}
		want, wok := model[k]
		if ok != wok {
			t.Fatalf("step %d: get %d: visible=%v, model=%v", step, k, ok, wok)
		}
		if ok && string(got) != string(want) {
			t.Fatalf("step %d: get %d: wrong record", step, k)
		}
	}
}

// A range delete must cost O(1) foreground I/O regardless of how much
// data it covers.
func TestRangeDeleteForegroundIO(t *testing.T) {
	tr, pool := newTree(t, Options{MemLimit: 128})
	for i := int64(0); i < 5000; i++ {
		put(tr, i)
		if err := tr.MaybeFlush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.FlushMem(); err != nil {
		t.Fatal(err)
	}
	disk := pool.Disk()
	before := disk.IOCount()
	tr.DeleteRange(0, 999, tr.NextSeq()) // 20% of the table
	if got := disk.IOCount() - before; got != 0 {
		t.Fatalf("range delete issued %d I/Os; want 0 (tombstone only)", got)
	}
	n, err := tr.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 4000 {
		t.Fatalf("count after range delete = %d, want 4000", n)
	}
}

// Recovery via manifest: reopen and verify contents and invariants.
func TestManifestReopen(t *testing.T) {
	tr, pool := newTree(t, Options{MemLimit: 64, L0Limit: 2})
	for i := int64(0); i < 1000; i++ {
		put(tr, i)
		if err := tr.MaybeFlush(); err != nil {
			t.Fatal(err)
		}
	}
	tr.DeleteRange(100, 299, tr.NextSeq())
	if err := tr.FlushMem(); err != nil {
		t.Fatal(err)
	}
	m := tr.Manifest()
	tr2, err := Open(pool, 16, Options{MemLimit: 64, L0Limit: 2}, m)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := tr2.Check(); err != nil {
		t.Fatalf("check: %v", err)
	}
	n, err := tr2.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 800 {
		t.Fatalf("count = %d, want 800", n)
	}
	if _, ok, _ := tr2.Get(150); ok {
		t.Fatal("deleted key 150 resurrected after reopen")
	}
	if _, ok, _ := tr2.Get(500); !ok {
		t.Fatal("live key 500 missing after reopen")
	}
	if tr2.NextSeq() <= m.Seq {
		t.Fatal("seq clock rewound across reopen")
	}
}

// The delete-aware trigger must reclaim tombstone space within
// TombstoneTTL flushes even with no size trigger firing.
func TestTombstoneTTLTrigger(t *testing.T) {
	ttl := uint64(3)
	tr, _ := newTree(t, Options{MemLimit: 16, L0Limit: 100, TombstoneTTL: ttl})
	for i := int64(0); i < 200; i++ {
		put(tr, i)
		if err := tr.MaybeFlush(); err != nil {
			t.Fatal(err)
		}
	}
	tr.DeleteRange(0, 99, tr.NextSeq())
	if err := tr.FlushMem(); err != nil {
		t.Fatal(err)
	}
	// Age the tombstone-bearing table past the TTL with unrelated flushes.
	for tick := uint64(0); tick <= ttl; tick++ {
		put(tr, 10_000+int64(tick))
		if err := tr.FlushMem(); err != nil {
			t.Fatal(err)
		}
		if err := tr.CompactAll(); err != nil {
			t.Fatal(err)
		}
	}
	m := tr.Manifest()
	for li, lvl := range m.Levels {
		for _, meta := range lvl {
			if meta.RangeTombs > 0 && m.Tick-meta.Born > ttl {
				t.Fatalf("level %d table born at tick %d still carries a range tombstone at tick %d (ttl %d)",
					li, meta.Born, m.Tick, ttl)
			}
		}
	}
	n, err := tr.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 100+int64(ttl)+1 {
		t.Fatalf("count = %d, want %d", n, 100+int64(ttl)+1)
	}
}

// Compactions must drop the input files so space is actually reclaimed.
func TestCompactionReclaimsPages(t *testing.T) {
	tr, pool := newTree(t, Options{MemLimit: 64, L0Limit: 2, TombstoneTTL: 1})
	for i := int64(0); i < 2000; i++ {
		put(tr, i)
		if err := tr.MaybeFlush(); err != nil {
			t.Fatal(err)
		}
	}
	tr.DeleteRange(0, 1599, tr.NextSeq())
	if err := tr.FlushMem(); err != nil {
		t.Fatal(err)
	}
	if err := tr.DrainTombstones(); err != nil {
		t.Fatal(err)
	}
	var pages int64
	for _, p := range pool.Disk().Placements() {
		if p.File == 0 {
			continue
		}
		pages += int64(p.Pages)
	}
	m := tr.Manifest()
	var manifestPages int64
	for _, lvl := range m.Levels {
		for _, meta := range lvl {
			manifestPages += meta.Pages
		}
	}
	if pages != manifestPages {
		t.Fatalf("disk holds %d pages, manifest references %d — compaction leaked files", pages, manifestPages)
	}
	n, err := tr.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 400 {
		t.Fatalf("count = %d, want 400", n)
	}
}

// flushedSeq may never cover a seq that was allocated but whose mutation
// has not reached the memtable: WAL replay would skip the record and the
// write would be lost after a crash (the PR-10 review's lost-write race).
func TestFlushedSeqExcludesUnappliedSeq(t *testing.T) {
	tr, _ := newTree(t, Options{})
	put(tr, 1)
	put(tr, 2)
	s := tr.NextSeq() // allocated, WAL-logged by the caller, not yet applied
	if err := tr.FlushMem(); err != nil {
		t.Fatal(err)
	}
	if got := tr.FlushedSeq(); got >= s {
		t.Fatalf("FlushedSeq = %d covers unapplied seq %d", got, s)
	}
	tr.Put(3, rec(3), s) // the apply lands; the next flush may cover it
	if err := tr.FlushMem(); err != nil {
		t.Fatal(err)
	}
	if got := tr.FlushedSeq(); got < s {
		t.Fatalf("FlushedSeq = %d still below applied seq %d", got, s)
	}
	// An abandoned seq (WAL append failed, mutation never applied) must
	// stop pinning the horizon.
	s2 := tr.NextSeq()
	tr.AbandonSeq(s2)
	put(tr, 4)
	if err := tr.FlushMem(); err != nil {
		t.Fatal(err)
	}
	if got := tr.FlushedSeq(); got < s2 {
		t.Fatalf("FlushedSeq = %d pinned below abandoned seq %d", got, s2)
	}
}

// A Scan callback may re-enter the tree (point gets, nested scans) — the
// heap backend allows it, so the LSM backend must not self-deadlock.
func TestScanCallbackReentry(t *testing.T) {
	tr, _ := newTree(t, Options{MemLimit: 16})
	for i := int64(0); i < 100; i++ {
		put(tr, i)
		if err := tr.MaybeFlush(); err != nil {
			t.Fatal(err)
		}
	}
	visited := 0
	err := tr.Scan(func(key int64, _ []byte) error {
		visited++
		if _, ok, err := tr.Get((key + 50) % 100); err != nil || !ok {
			return fmt.Errorf("re-entrant Get(%d) = %v, %v", (key+50)%100, ok, err)
		}
		if key == 0 { // one nested scan is enough
			nested := 0
			if err := tr.ScanRange(10, 19, func(int64, []byte) error { nested++; return nil }); err != nil {
				return err
			}
			if nested != 10 {
				return fmt.Errorf("nested scan saw %d rows, want 10", nested)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != 100 {
		t.Fatalf("outer scan saw %d rows, want 100", visited)
	}
}

// When the persist hook fails, the in-memory tree must stay consistent
// with the durable manifest: no half-committed flush (SSTable in L0 +
// advanced flushedSeq + uncleaned memtable) and no half-committed
// compaction.
func TestPersistFailureRollsBack(t *testing.T) {
	tr, _ := newTree(t, Options{MemLimit: 16, L0Limit: 2})
	persistErr := error(nil)
	tr.SetPersist(func() error { return persistErr })
	for i := int64(0); i < 40; i++ {
		put(tr, i)
	}
	persistErr = fmt.Errorf("catalog save failed")
	before := tr.Manifest()
	if err := tr.FlushMem(); err == nil {
		t.Fatal("flush succeeded despite persist failure")
	}
	after := tr.Manifest()
	if len(after.Levels) != len(before.Levels) || after.FlushedSeq != before.FlushedSeq || after.Tick != before.Tick {
		t.Fatalf("manifest mutated across failed flush: %+v -> %+v", before, after)
	}
	if tr.MemLen() == 0 {
		t.Fatal("memtable cleared despite failed flush")
	}
	// Healing the hook must yield exactly one copy of the data.
	persistErr = nil
	if err := tr.FlushMem(); err != nil {
		t.Fatal(err)
	}
	if n, err := tr.Count(); err != nil || n != 40 {
		t.Fatalf("count after healed flush = %d, %v", n, err)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}

	// Same for a compaction: pile up L0 tables, fail the commit mid-swap.
	for i := int64(100); i < 140; i++ {
		put(tr, i)
	}
	if err := tr.FlushMem(); err != nil {
		t.Fatal(err)
	}
	levelsBefore := tr.Levels()
	persistErr = fmt.Errorf("catalog save failed")
	if _, err := tr.CompactNow(); err == nil {
		t.Fatal("compaction succeeded despite persist failure")
	}
	if got := tr.Levels(); fmt.Sprint(got) != fmt.Sprint(levelsBefore) {
		t.Fatalf("levels mutated across failed compaction: %v -> %v", levelsBefore, got)
	}
	persistErr = nil
	if err := tr.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if n, err := tr.Count(); err != nil || n != 80 {
		t.Fatalf("count after healed compaction = %d, %v", n, err)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

// A record too large for a data block must surface as an error at flush,
// never a slice-bounds panic.
func TestOversizedRecordErrors(t *testing.T) {
	disk := sim.NewDisk(sim.DefaultCostModel())
	pool := buffer.New(disk, 1<<20)
	tr := New(pool, MaxRecordSize+1, Options{})
	tr.Put(1, make([]byte, MaxRecordSize+1), tr.NextSeq())
	if err := tr.FlushMem(); err == nil {
		t.Fatal("flush of oversized record succeeded")
	}
}

// Concurrent writers, scanners, and point readers; exercised under -race
// in CI. Scans snapshot their sources and run lock-free, so compactions
// triggered by the writers park superseded files until scans finish; the
// pending-seq backstop keeps the flush horizon safe while a writer sits
// between NextSeq and Put.
func TestConcurrentScansAndMutations(t *testing.T) {
	tr, _ := newTree(t, Options{MemLimit: 32, L0Limit: 2, LevelRatio: 2, TombstoneTTL: 2})
	const writers, perWriter = 4, 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 16)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := int64(w*1_000_000 + i)
				tr.Put(k, rec(k), tr.NextSeq())
				if err := tr.MaybeFlush(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	var rg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				prev := int64(-1 << 62)
				err := tr.Scan(func(key int64, _ []byte) error {
					if key <= prev {
						return fmt.Errorf("scan out of order: %d after %d", key, prev)
					}
					prev = key
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
				if _, _, err := tr.Get(int64(rand.Intn(writers * 1_000_000))); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if err := tr.FlushMem(); err != nil {
		t.Fatal(err)
	}
	if n, err := tr.Count(); err != nil || n != writers*perWriter {
		t.Fatalf("count = %d, %v; want %d", n, err, writers*perWriter)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

// Tree.Get reads the tree's range-tombstone union instead of collecting one
// per call, so its allocations do not grow with the live range tombstones:
// here 1 vs 64, each in its own SSTable, with the key read from the
// memtable.
func TestGetAllocsFlatInRangeTombs(t *testing.T) {
	allocs := func(rtombs int) float64 {
		tr, _ := newTree(t, Options{})
		for i := 0; i < rtombs; i++ {
			lo := int64(1000 + 10*i)
			tr.DeleteRange(lo, lo+5, tr.NextSeq())
			if err := tr.FlushMem(); err != nil {
				t.Fatal(err)
			}
		}
		put(tr, 7)
		return testing.AllocsPerRun(100, func() {
			if _, ok, err := tr.Get(7); err != nil || !ok {
				t.Fatalf("Get(7) = %v, %v", ok, err)
			}
		})
	}
	if one, many := allocs(1), allocs(64); one != many {
		t.Fatalf("Get allocates %v times with 1 range tombstone, %v with 64", one, many)
	}
}

// TestGetSurvivesFrameRecycling: a record Get returned from an SSTable stays
// intact while flushes, compactions and reads on a 4-frame pool recycle
// every frame, the one its block was read into included.
func TestGetSurvivesFrameRecycling(t *testing.T) {
	disk := sim.NewDisk(sim.DefaultCostModel())
	pool := buffer.New(disk, 4*sim.PageSize)
	tr := New(pool, 16, Options{MemLimit: 64})
	for k := int64(0); k < 256; k++ {
		put(tr, k)
	}
	if err := tr.FlushMem(); err != nil {
		t.Fatal(err)
	}
	got, ok, err := tr.Get(7)
	if err != nil || !ok {
		t.Fatalf("Get(7): found %v, err %v", ok, err)
	}
	evictions := pool.Stats().Evictions
	for k := int64(256); k < 2048; k++ {
		put(tr, k)
		if err := tr.MaybeFlush(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := tr.Get(k / 2); err != nil {
			t.Fatal(err)
		}
	}
	if pool.Stats().Evictions-evictions < 4 {
		t.Fatal("the storm did not cycle the pool")
	}
	if string(got) != string(rec(7)) {
		t.Fatal("a record returned by Get changed when its frame was recycled")
	}
}

// build writes one table for a merge test: puts for keys, point tombstones
// for dels, range tombstones rts, all under seq.
func build(t *testing.T, pool *buffer.Pool, seq uint64, keys, dels []int64, rts ...RangeTomb) *SSTable {
	t.Helper()
	var es []entry
	for _, k := range keys {
		es = append(es, entry{key: k, seq: seq, kind: kindPut, val: rec(k)})
	}
	for _, k := range dels {
		es = append(es, entry{key: k, seq: seq, kind: kindDel})
	}
	sort.Slice(es, func(i, j int) bool { return es[i].key < es[j].key })
	sst, err := buildSSTable(pool, 0, 16, es, rts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sst
}

// A merge cuts its output into tables of at most tableEntries entries,
// key-disjoint and in key order, and clips a range tombstone that spans a
// cut to each side; a tombstone survives only while a table outside the
// inputs, at the output level or below, overlaps it.
func TestMergeCutsBoundedTablesAndDropsOnlyUnneededTombstones(t *testing.T) {
	tr, pool := newTree(t, Options{MemLimit: 2, L0Limit: 2, LevelRatio: 2}) // 8 entries a table
	var keys []int64
	for k := int64(0); k < 20; k++ {
		keys = append(keys, 10*k)
	}
	newer := build(t, pool, 2, nil, []int64{15, 500}, RangeTomb{Lo: 55, Hi: 125, Seq: 2}, RangeTomb{Lo: 900, Hi: 950, Seq: 2})
	older := build(t, pool, 1, keys, nil)
	below := build(t, pool, 0, []int64{14, 15, 16, 60, 120}, nil) // overlaps 15 and [55,125], not 500 or [900,950]
	tr.mu.Lock()
	outs, err := tr.mergeLocked([][]*SSTable{{newer}, {older}}, [][]*SSTable{nil, {below}})
	tr.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	// Survivors: 20 puts minus 60..120 (7 hidden) = 13, plus the tombstone
	// at 15 that below still needs; 500's has nothing to hide.
	var got []string
	var entries int64
	for i, o := range outs {
		if o.Entries > int64(tr.tableEntries()) {
			t.Fatalf("output %d holds %d entries, bound %d", i, o.Entries, tr.tableEntries())
		}
		if i > 0 && outs[i-1].MaxKey >= o.MinKey {
			t.Fatalf("outputs %d and %d overlap: [%d,%d] then [%d,%d]", i-1, i, outs[i-1].MinKey, outs[i-1].MaxKey, o.MinKey, o.MaxKey)
		}
		entries += o.Entries
		for _, rt := range o.rtombs {
			got = append(got, fmt.Sprintf("%d:[%d,%d]", i, rt.Lo, rt.Hi))
		}
		if err := o.check(nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(outs) != 2 || entries != 14 {
		t.Fatalf("merge emitted %d tables, %d entries; want 2, 14", len(outs), entries)
	}
	// The first table ends at the eighth survivor (130), so [55,125] stays
	// whole in it; [900,950] overlaps nothing below and drops.
	if want := []string{"0:[55,125]"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("range tombstones %v, want %v", got, want)
	}

	// With a cut inside the tombstone's span, each side keeps its share.
	tr.mu.Lock()
	outs, err = tr.mergeLocked([][]*SSTable{{build(t, pool, 4, nil, nil, RangeTomb{Lo: 35, Hi: 185, Seq: 3})}, {build(t, pool, 5, keys, nil)}}, [][]*SSTable{{below}})
	tr.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	for i, o := range outs {
		for _, rt := range o.rtombs {
			got = append(got, fmt.Sprintf("%d:[%d,%d]", i, rt.Lo, rt.Hi))
		}
	}
	if want := []string{"0:[35,79]", "1:[80,159]", "2:[160,185]"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("clipped range tombstones %v, want %v", got, want)
	}
}

// A merge input whose every entry a newer range tombstone of the same merge
// hides is dropped without reading one of its blocks.
func TestCoveredTableDroppedUnread(t *testing.T) {
	tr, pool := newTree(t, Options{MemLimit: 1 << 20, L0Limit: 2})
	for k := int64(100); k < 400; k++ {
		put(tr, k)
	}
	if err := tr.FlushMem(); err != nil {
		t.Fatal(err)
	}
	covered := tr.Manifest().Levels[0][0]
	if covered.Blocks < 2 {
		t.Fatalf("covered table has %d blocks; the test wants several", covered.Blocks)
	}
	tr.DeleteRange(0, 1000, tr.NextSeq())
	if err := tr.FlushMem(); err != nil { // a tombstone-only table: no blocks
		t.Fatal(err)
	}
	pool.InvalidateAll() // nothing cached: any block read reaches the disk
	disk := pool.Disk()
	reads := disk.Stats().Reads
	if err := tr.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if got := disk.Stats().Reads - reads; got != 0 {
		t.Fatalf("the compaction read %d pages; the covered table needs none", got)
	}
	if _, err := disk.NumPages(sim.FileID(covered.File)); err == nil {
		t.Fatal("the covered table's file survived the compaction")
	}
	if n, err := tr.Count(); err != nil || n != 0 {
		t.Fatalf("Count = %d, %v; want 0", n, err)
	}
}

// A level >= 1 is key-disjoint, so a Get reads at most one table of it:
// ascending inserts leave every level a key range of its own, so each
// lookup reaches one table of one level — of the deepest, of many tables,
// for most keys — and costs at most one page reference.
func TestGetProbesOneTablePerLevel(t *testing.T) {
	tr, pool := newTree(t, Options{MemLimit: 8, L0Limit: 2, LevelRatio: 2}) // 32 entries a table
	for k := int64(0); k < 1024; k += 2 {                                   // 64 memtables: L0 ends empty
		put(tr, k)
		if err := tr.MaybeFlush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	lv := tr.Levels()
	if lv[0] != 0 || lv[len(lv)-1] < 8 {
		t.Fatalf("levels %v; want an empty L0 and >= 8 tables in the deepest level", lv)
	}
	for k := int64(-1); k <= 1024; k++ {
		before := pool.Stats()
		_, ok, err := tr.Get(k)
		after := pool.Stats()
		if err != nil || ok != (k >= 0 && k < 1024 && k%2 == 0) {
			t.Fatalf("Get(%d) = %v, %v", k, ok, err)
		}
		if refs := after.Hits + after.Misses - before.Hits - before.Misses; refs > 1 {
			t.Fatalf("Get(%d) referenced %d pages in levels %v", k, refs, lv)
		}
	}
}

// tenantReplay replays the lsm_tenant benchmark's write stream on a bare
// tree at the default options: 100 tenants of 400 rows each, key =
// tenant<<20 + a random item, preloaded in shuffled order, then rounds of
// 400 inserts into random live tenants, each round ending by dropping the
// oldest tenant with one range tombstone and starting a new one. after runs
// after every MaybeFlush. Returns the rows inserted and the entries
// compaction wrote (outputs at levels >= 1, counted at their commit).
func tenantReplay(t *testing.T, rounds int, after func(tr *Tree)) (inserts, written int64) {
	tr, _ := newTree(t, Options{})
	seen := make(map[uint32]bool)
	tr.SetPersist(func() error {
		for li, lvl := range tr.Manifest().Levels {
			for _, m := range lvl {
				if li > 0 && !seen[m.File] {
					seen[m.File] = true
					written += m.Entries
				}
			}
		}
		return nil
	})
	rng := rand.New(rand.NewSource(1))
	const tenants, perTenant, perRound = 100, 400, 400
	type tenant struct {
		id  int64
		has map[int64]bool
	}
	var live []*tenant
	next := int64(1)
	newTenant := func() *tenant {
		tn := &tenant{id: next, has: make(map[int64]bool)}
		next++
		live = append(live, tn)
		return tn
	}
	newKey := func(tn *tenant) int64 {
		for {
			if it := rng.Int63n(1 << 20); !tn.has[it] {
				tn.has[it] = true
				return tn.id<<20 + it
			}
		}
	}
	step := func(apply func(seq uint64)) {
		apply(tr.NextSeq())
		if err := tr.MaybeFlush(); err != nil {
			t.Fatal(err)
		}
		after(tr)
	}
	var keys []int64
	for i := 0; i < tenants; i++ {
		tn := newTenant()
		for j := 0; j < perTenant; j++ {
			keys = append(keys, newKey(tn))
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		step(func(seq uint64) { tr.Put(k, rec(k), seq) })
	}
	inserts = int64(len(keys))
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			k := newKey(live[rng.Intn(len(live))])
			step(func(seq uint64) { tr.Put(k, rec(k), seq) })
		}
		inserts += perRound
		old := live[0]
		live = live[1:]
		newTenant()
		step(func(seq uint64) { tr.DeleteRange(old.id<<20, old.id<<20+1<<20-1, seq) })
	}
	return inserts, written
}

// TestTenantDropReplayWriteAmp pins the compaction cost of the lsm_tenant
// stream: level targets sized from the bottom up, L0 batches merged past a
// full level 1, pushes that move the victim rewriting the fewest entries,
// and tenant drops applied in place to only the tables they overlap keep
// compaction at <= 8 entries written per
// row inserted (5.8; table-count level budgets wrote 15.7). Every level >= 1
// is within its target whenever the tree is quiescent.
func TestTenantDropReplayWriteAmp(t *testing.T) {
	inserts, written := tenantReplay(t, 20, func(tr *Tree) {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		tg := tr.targets(tr.levels)
		for li := 1; li < len(tr.levels); li++ {
			if n := levelEntries(tr.levels[li]); n > tg[li] {
				t.Fatalf("level %d holds %d entries, target %d (levels %v)", li, n, tg[li], tg)
			}
		}
	})
	perInsert := float64(written) / float64(inserts)
	t.Logf("%d inserts, compaction wrote %d entries: %.2f per insert", inserts, written, perInsert)
	if perInsert > 8 {
		t.Fatalf("compaction wrote %.2f entries per insert, want <= 8", perInsert)
	}
}

// A due range tombstone is applied in place, in one manifest commit: the
// deeper tables its span overlaps are rewritten without what it hides, one
// it hides wholly is dropped unread, the rest are left alone, and its own
// table is rewritten without it.
func TestRangeTombstoneAppliedInPlace(t *testing.T) {
	tr, pool := newTree(t, Options{MemLimit: 1 << 20})
	victim := build(t, pool, 10, []int64{50, 60}, nil, RangeTomb{Lo: 100, Hi: 300, Seq: 10})
	beside := build(t, pool, 9, []int64{400, 500}, nil)
	l2 := []*SSTable{
		build(t, pool, 5, []int64{10, 20}, nil),        // outside the span: untouched
		build(t, pool, 5, []int64{150, 200, 250}, nil), // wholly hidden: dropped unread
		build(t, pool, 5, []int64{290, 310, 320}, nil), // straddles hi: rewritten
	}
	l3 := []*SSTable{
		build(t, pool, 2, []int64{90, 100, 110}, nil), // straddles lo: rewritten
		build(t, pool, 2, []int64{700}, nil),          // outside: untouched
	}
	for i, sst := range append(append([]*SSTable{victim, beside}, l2...), l3...) {
		sst.Born = uint64(i) // tell the tables apart by birth tick
	}
	tr.levels = [][]*SSTable{nil, {victim, beside}, l2, l3}
	tr.rtombs = rtombUnion(nil, tr.levels)
	tr.tick = 20
	commits := 0
	tr.SetPersist(func() error { commits++; return nil })
	pool.InvalidateAll()
	disk := pool.Disk()
	reads := disk.Stats().Reads
	tr.mu.Lock()
	err := tr.reclaimLocked(1, 0)
	tr.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if commits != 1 {
		t.Fatalf("%d manifest commits, want 1", commits)
	}
	// One data block each from the victim, l2[2] and l3[0]; none from l2[1].
	if got := disk.Stats().Reads - reads; got != 3 {
		t.Fatalf("the reclamation read %d pages, want 3", got)
	}
	if _, err := disk.NumPages(sim.FileID(l2[1].File)); err == nil {
		t.Fatal("the wholly hidden table's file survived")
	}
	var got []string
	for li, lvl := range tr.Manifest().Levels {
		for _, m := range lvl {
			got = append(got, fmt.Sprintf("L%d:[%d,%d]x%d/r%d/b%d", li, m.MinKey, m.MaxKey, m.Entries, m.RangeTombs, m.Born))
		}
	}
	want := []string{
		"L1:[50,60]x2/r0/b0", "L1:[400,500]x2/r0/b1",
		"L2:[10,20]x2/r0/b2", "L2:[310,320]x2/r0/b4",
		"L3:[90,90]x1/r0/b5", "L3:[700,700]x1/r0/b6",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("levels after reclamation\n got %v\nwant %v", got, want)
	}
	if m := tr.Manifest(); m.Levels[1][1].File != beside.File || m.Levels[2][0].File != l2[0].File || m.Levels[3][1].File != l3[1].File {
		t.Fatal("a table outside the tombstone's span was rewritten")
	}
	if len(tr.rtombs) != 0 {
		t.Fatalf("range tombstones left in the union: %v", tr.rtombs)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

// Check rejects an entry lying above a range tombstone that hides it: the
// state in-place reclamation would wrongly resurrect by dropping the
// tombstone.
func TestCheckRejectsEntryAboveItsRangeTombstone(t *testing.T) {
	tr, pool := newTree(t, Options{})
	older := build(t, pool, 3, []int64{150}, nil)
	tomb := build(t, pool, 5, []int64{50}, nil, RangeTomb{Lo: 100, Hi: 200, Seq: 5})
	tr.levels = [][]*SSTable{nil, {older}, {tomb}}
	if err := tr.Check(); err == nil {
		t.Fatal("Check accepted key 150 (seq 3) above the tombstone [100,200]@5 that hides it")
	}
	tr.levels = [][]*SSTable{nil, {tomb}, {older}}
	if err := tr.Check(); err != nil {
		t.Fatalf("Check rejected the entry below its tombstone: %v", err)
	}
}

// DrainTombstones leaves no trigger armed: a range delete over most of a
// randomly loaded tree shrinks the deepest level, and with it every target
// above, so the drain must go on to push what that leaves over target
// rather than hand the pushes to the next writer's flush.
func TestDrainLeavesTreeQuiescent(t *testing.T) {
	for _, frac := range []int64{5, 20, 50, 80} {
		tr, _ := newTree(t, Options{})
		const n = 40000
		rng := rand.New(rand.NewSource(1))
		for _, k := range rng.Perm(n) {
			put(tr, int64(k))
			if err := tr.MaybeFlush(); err != nil {
				t.Fatal(err)
			}
		}
		tr.DeleteRange(0, n*frac/100-1, tr.NextSeq())
		if err := tr.FlushMem(); err != nil {
			t.Fatal(err)
		}
		if err := tr.DrainTombstones(); err != nil {
			t.Fatal(err)
		}
		did, err := tr.CompactNow()
		if err != nil {
			t.Fatal(err)
		}
		if did {
			t.Fatalf("%d%%: a compaction was still due after the drain (levels %v)", frac, tr.Levels())
		}
		if got, err := tr.Count(); err != nil || got != n-n*frac/100 {
			t.Fatalf("%d%%: count %d (%v), want %d", frac, got, err, n-n*frac/100)
		}
	}
}
