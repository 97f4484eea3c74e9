package core

import (
	"errors"
	"testing"

	"bulkdel/internal/btree"
	"bulkdel/internal/buffer"
	"bulkdel/internal/heap"
	"bulkdel/internal/sim"
	"bulkdel/internal/wal"
)

// loggedSetup builds a target, victims, and a WAL.
func loggedSetup(t *testing.T, n, v int) (*buffer.Pool, *Target, []int64, map[int64]bool, *wal.Log) {
	t.Helper()
	pool := testPool(2048)
	tgt := makeTarget(t, pool, n, []int{0, 1, 2}, []bool{true, false, false})
	// The base state must be durable before a crash can be simulated.
	if err := tgt.Heap.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, ix := range tgt.Indexes {
		if err := ix.Tree.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	victims, set := pickVictims(n, v, 21)
	log := wal.Create(pool.Disk())
	return pool, tgt, victims, set, log
}

func TestLoggedExecuteProtocol(t *testing.T) {
	pool, tgt, victims, set, log := loggedSetup(t, 8000, 1500)
	st, err := Execute(tgt, 0, victims, Options{
		Method: SortMerge, Log: log, TxID: 42, CheckpointRows: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 1500 {
		t.Fatalf("deleted %d", st.Deleted)
	}
	verifyTarget(t, tgt, set, 8000)

	_, recs, err := wal.Open(pool.Disk(), log.FileID())
	if err != nil {
		t.Fatal(err)
	}
	// Protocol shape: begin, bulk-start, materialized (rid + 2 key
	// files), 4 struct-start/done pairs, checkpoints, bulk-end, commit.
	counts := map[wal.Type]int{}
	for _, r := range recs {
		counts[r.Type]++
	}
	if counts[wal.TBegin] != 1 || counts[wal.TCommit] != 1 || counts[wal.TBulkEnd] != 1 {
		t.Fatalf("tx framing wrong: %v", counts)
	}
	if counts[wal.TBulkStart] != 1 {
		t.Fatalf("bulk-start: %v", counts)
	}
	if counts[wal.TStructStart] != 4 || counts[wal.TStructDone] != 4 {
		t.Fatalf("structure framing wrong: %v", counts)
	}
	if counts[wal.TMaterialized] != 3 { // RID list + IB keys + IC keys
		t.Fatalf("materialized: %v", counts)
	}
	if counts[wal.TCheckpoint] == 0 {
		t.Fatalf("no checkpoints written: %v", counts)
	}
	bs, ok := wal.AnalyzeBulk(recs)
	if !ok || !bs.Finished {
		t.Fatalf("analyze: %+v ok=%v", bs, ok)
	}
}

// partedSetup is loggedSetup on a heap hash-partitioned three ways on field 0.
func partedSetup(t *testing.T, n, v int) (*buffer.Pool, *Target, []int64, map[int64]bool, *wal.Log) {
	t.Helper()
	pool := testPool(2048)
	h, err := heap.CreatePartitioned(pool, testSchema, heap.PartitionSpec{Field: 0, HashParts: 3})
	if err != nil {
		t.Fatal(err)
	}
	tgt := makeTargetOn(t, pool, h, n, []int{0, 1, 2}, []bool{true, false, false})
	if err := tgt.Heap.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, ix := range tgt.Indexes {
		if err := ix.Tree.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	victims, set := pickVictims(n, v, 21)
	return pool, tgt, victims, set, wal.Create(pool.Disk())
}

// reopenHeap reopens a target's heap store from disk after a crash.
func reopenHeap(t *testing.T, pool *buffer.Pool, tgt *Target) heap.Store {
	t.Helper()
	var h heap.Store
	var err error
	if ph, ok := tgt.Heap.(*heap.Partitioned); ok {
		h, err = heap.OpenPartitioned(pool, tgt.HeapFiles(), tgt.Schema, ph.Spec())
	} else {
		h, err = heap.Open(pool, tgt.Heap.ID())
	}
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// crashAndRecover simulates a crash: volatile state is discarded, the
// structures and the log are reopened, and the bulk delete is resumed.
func crashAndRecover(t *testing.T, pool *buffer.Pool, tgt *Target, log *wal.Log, field int) *Target {
	t.Helper()
	pool.InvalidateAll()

	re := &Target{Name: tgt.Name, Heap: reopenHeap(t, pool, tgt), Schema: tgt.Schema, Pool: pool}
	for _, ix := range tgt.Indexes {
		tr, err := btree.Open(pool, ix.Tree.ID())
		if err != nil {
			t.Fatal(err)
		}
		re.Indexes = append(re.Indexes, IndexRef{
			Name: ix.Name, Tree: tr, Field: ix.Field,
			Unique: ix.Unique, Clustered: ix.Clustered, Priority: ix.Priority,
		})
	}
	log2, recs, err := wal.Open(pool.Disk(), log.FileID())
	if err != nil {
		t.Fatal(err)
	}
	bs, ok := wal.AnalyzeBulk(recs)
	if !ok {
		t.Fatal("no bulk delete found in the log")
	}
	if bs.Finished {
		t.Fatal("bulk delete unexpectedly finished before the crash")
	}
	if _, err := Resume(re, bs, log2, recs, field, Options{CheckpointRows: 300}); err != nil {
		t.Fatal(err)
	}
	return re
}

func TestCrashRecoveryAtManyPoints(t *testing.T) {
	// Inject crashes at increasing applied-row counts, spanning the
	// access pass, the heap pass, and the index passes.
	for _, failAt := range []int{1, 200, 1200, 2600, 4200, 5800} {
		pool, tgt, victims, set, log := loggedSetup(t, 8000, 1500)
		_, err := Execute(tgt, 0, victims, Options{
			Method: SortMerge, Log: log, TxID: 7, CheckpointRows: 300,
			failAfterApplied: failAt,
		})
		if !errors.Is(err, errInjectedCrash) {
			t.Fatalf("failAt=%d: expected injected crash, got %v", failAt, err)
		}
		re := crashAndRecover(t, pool, tgt, log, 0)
		verifyTarget(t, re, set, 8000)

		// The log must now record completion.
		_, recs, err := wal.Open(pool.Disk(), log.FileID())
		if err != nil {
			t.Fatal(err)
		}
		bs, ok := wal.AnalyzeBulk(recs)
		if !ok || !bs.Finished {
			t.Fatalf("failAt=%d: bulk delete not finished after recovery", failAt)
		}
	}
}

func TestCrashRecoveryAtStructureBoundaries(t *testing.T) {
	for _, failStructs := range []int{1, 2, 3} {
		pool, tgt, victims, set, log := loggedSetup(t, 6000, 1000)
		_, err := Execute(tgt, 0, victims, Options{
			Method: SortMerge, Log: log, TxID: 9, CheckpointRows: 250,
			failAfterStructs: failStructs,
		})
		if !errors.Is(err, errInjectedCrash) {
			t.Fatalf("failStructs=%d: expected injected crash, got %v", failStructs, err)
		}
		re := crashAndRecover(t, pool, tgt, log, 0)
		verifyTarget(t, re, set, 6000)
	}
}

func TestRecoveryIsIdempotentAcrossDoubleCrash(t *testing.T) {
	pool, tgt, victims, set, log := loggedSetup(t, 6000, 1200)
	_, err := Execute(tgt, 0, victims, Options{
		Method: SortMerge, Log: log, TxID: 11, CheckpointRows: 200,
		failAfterApplied: 900,
	})
	if !errors.Is(err, errInjectedCrash) {
		t.Fatalf("expected injected crash, got %v", err)
	}
	// First recovery also crashes.
	pool.InvalidateAll()
	h, err := heap.Open(pool, tgt.Heap.ID())
	if err != nil {
		t.Fatal(err)
	}
	re := &Target{Name: tgt.Name, Heap: h, Schema: tgt.Schema, Pool: pool}
	for _, ix := range tgt.Indexes {
		tr, err := btree.Open(pool, ix.Tree.ID())
		if err != nil {
			t.Fatal(err)
		}
		re.Indexes = append(re.Indexes, IndexRef{Name: ix.Name, Tree: tr, Field: ix.Field, Unique: ix.Unique})
	}
	log2, recs, err := wal.Open(pool.Disk(), log.FileID())
	if err != nil {
		t.Fatal(err)
	}
	bs, _ := wal.AnalyzeBulk(recs)
	_, err = Resume(re, bs, log2, recs, 0, Options{CheckpointRows: 200, failAfterApplied: 700})
	if !errors.Is(err, errInjectedCrash) {
		t.Fatalf("expected second injected crash, got %v", err)
	}
	// Second recovery completes.
	re2 := crashAndRecover(t, pool, re, log2, 0)
	verifyTarget(t, re2, set, 6000)
}

func TestResumeOfFinishedBulkIsNoop(t *testing.T) {
	pool, tgt, victims, set, log := loggedSetup(t, 3000, 500)
	if _, err := Execute(tgt, 0, victims, Options{Method: SortMerge, Log: log, TxID: 3}); err != nil {
		t.Fatal(err)
	}
	_, recs, err := wal.Open(pool.Disk(), log.FileID())
	if err != nil {
		t.Fatal(err)
	}
	bs, ok := wal.AnalyzeBulk(recs)
	if !ok || !bs.Finished {
		t.Fatal("bulk should be finished")
	}
	log2, recs2, err := wal.Open(pool.Disk(), log.FileID())
	if err != nil {
		t.Fatal(err)
	}
	st, err := Resume(tgt, bs, log2, recs2, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 0 {
		t.Fatalf("noop resume deleted %d", st.Deleted)
	}
	verifyTarget(t, tgt, set, 3000)
}

func TestLoggedHashMethod(t *testing.T) {
	// The logged protocol also covers the hash method end to end (no
	// crash): the RID list is materialized, key files are unnecessary.
	pool, tgt, victims, set, log := loggedSetup(t, 5000, 800)
	st, err := Execute(tgt, 0, victims, Options{Method: Hash, Log: log, TxID: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 800 {
		t.Fatalf("deleted %d", st.Deleted)
	}
	verifyTarget(t, tgt, set, 5000)
	_, recs, err := wal.Open(pool.Disk(), log.FileID())
	if err != nil {
		t.Fatal(err)
	}
	if bs, ok := wal.AnalyzeBulk(recs); !ok || !bs.Finished {
		t.Fatal("hash bulk not logged as finished")
	}
}

func TestCrashBeforeAnyDestructiveWork(t *testing.T) {
	// failAfterApplied=1 fires during the read-only collect pass: no
	// structure was modified; recovery must still complete the delete.
	pool, tgt, victims, set, log := loggedSetup(t, 4000, 700)
	_, err := Execute(tgt, 0, victims, Options{
		Method: SortMerge, Log: log, TxID: 13, CheckpointRows: 100,
		failAfterApplied: 1,
	})
	if !errors.Is(err, errInjectedCrash) {
		t.Fatalf("expected injected crash, got %v", err)
	}
	re := crashAndRecover(t, pool, tgt, log, 0)
	verifyTarget(t, re, set, 4000)
	_ = sim.InvalidPage
}

// corruptTree scribbles over the root page on disk and in the pool,
// simulating the window where a crash interrupts a walk's leaf free or merge
// after some of the pages it changed were written out.
func corruptTree(t *testing.T, pool *buffer.Pool, tr *btree.Tree) {
	t.Helper()
	// Find the root via the meta page and overwrite it with junk typed as
	// a free page.
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	pool.Invalidate(tr.ID())
	// Reopen to learn the root page number, then damage it on disk.
	re, err := btree.Open(pool, tr.ID())
	if err != nil {
		t.Fatal(err)
	}
	root := re.RootPage()
	junk := make([]byte, sim.PageSize)
	junk[0] = 'F' // free-page type where the root should be
	if err := pool.Disk().WritePage(tr.ID(), root, junk); err != nil {
		t.Fatal(err)
	}
	pool.Invalidate(tr.ID())
}

func TestRecoveryRebuildsStructurallyDamagedAccessIndex(t *testing.T) {
	pool, tgt, victims, set, log := loggedSetup(t, 6000, 1000)
	// Crash while the access index pass is in flight.
	_, err := Execute(tgt, 0, victims, Options{
		Method: SortMerge, Log: log, TxID: 21, CheckpointRows: 200,
		failAfterApplied: 1600,
	})
	if !errors.Is(err, errInjectedCrash) {
		t.Fatalf("expected injected crash, got %v", err)
	}
	// Simulate the crash *and* structural damage to the access index, as
	// an interrupted reorganization would leave it.
	pool.InvalidateAll()
	corruptTree(t, pool, tgt.Indexes[0].Tree)

	h, err := heap.Open(pool, tgt.Heap.ID())
	if err != nil {
		t.Fatal(err)
	}
	re := &Target{Name: tgt.Name, Heap: h, Schema: tgt.Schema, Pool: pool}
	for _, ix := range tgt.Indexes {
		tr, err := btree.Open(pool, ix.Tree.ID())
		if err != nil {
			t.Fatal(err)
		}
		re.Indexes = append(re.Indexes, IndexRef{
			Name: ix.Name, Tree: tr, Field: ix.Field, Unique: ix.Unique,
		})
	}
	if err := re.Indexes[0].Tree.StructuralCheck(); err == nil {
		t.Fatal("corruption not detectable — test is vacuous")
	}
	log2, recs, err := wal.Open(pool.Disk(), log.FileID())
	if err != nil {
		t.Fatal(err)
	}
	bs, ok := wal.AnalyzeBulk(recs)
	if !ok || bs.Finished {
		t.Fatalf("bulk state: %+v %v", bs, ok)
	}
	if _, err := Resume(re, bs, log2, recs, 0, Options{CheckpointRows: 200}); err != nil {
		t.Fatal(err)
	}
	verifyTarget(t, re, set, 6000)
}

func TestRecoveryRebuildsDamagedSecondaryIndex(t *testing.T) {
	pool, tgt, victims, set, log := loggedSetup(t, 6000, 1000)
	// Crash during the secondary-index phase (after heap done): collect
	// ~1000 + access 1000 + heap 1000 = 3000; crash at 3600 lands inside
	// IB's pass.
	_, err := Execute(tgt, 0, victims, Options{
		Method: SortMerge, Log: log, TxID: 23, CheckpointRows: 200,
		failAfterApplied: 3600,
	})
	if !errors.Is(err, errInjectedCrash) {
		t.Fatalf("expected injected crash, got %v", err)
	}
	pool.InvalidateAll()
	corruptTree(t, pool, tgt.Indexes[1].Tree)

	h, err := heap.Open(pool, tgt.Heap.ID())
	if err != nil {
		t.Fatal(err)
	}
	re := &Target{Name: tgt.Name, Heap: h, Schema: tgt.Schema, Pool: pool}
	for _, ix := range tgt.Indexes {
		tr, err := btree.Open(pool, ix.Tree.ID())
		if err != nil {
			t.Fatal(err)
		}
		re.Indexes = append(re.Indexes, IndexRef{
			Name: ix.Name, Tree: tr, Field: ix.Field, Unique: ix.Unique,
		})
	}
	log2, recs, err := wal.Open(pool.Disk(), log.FileID())
	if err != nil {
		t.Fatal(err)
	}
	bs, ok := wal.AnalyzeBulk(recs)
	if !ok {
		t.Fatal("no bulk state")
	}
	if !bs.Done[uint64(tgt.Heap.ID())] {
		t.Fatalf("test setup: heap should be done before the secondary phase (done=%v)", bs.Done)
	}
	if _, ok := bs.Active[uint64(tgt.Indexes[1].Tree.ID())]; !ok || len(bs.Active) != 1 {
		t.Fatalf("test setup: IB should be the one structure in flight (active=%v)", bs.Active)
	}
	if _, err := Resume(re, bs, log2, recs, 0, Options{CheckpointRows: 200}); err != nil {
		t.Fatal(err)
	}
	verifyTarget(t, re, set, 6000)
}

// loggedRecords reopens the log after an injected crash and distills its bulk
// delete, as recovery would.
func loggedRecords(t *testing.T, pool *buffer.Pool, log *wal.Log) wal.BulkState {
	t.Helper()
	pool.InvalidateAll()
	_, recs, err := wal.Open(pool.Disk(), log.FileID())
	if err != nil {
		t.Fatal(err)
	}
	bs, ok := wal.AnalyzeBulk(recs)
	if !ok || bs.Finished {
		t.Fatalf("bulk state: %+v %v", bs, ok)
	}
	return bs
}

// TestCrashBetweenHeapPartitions: a logged sort/merge on a 3-partition heap
// crashes after partition 0's struct-done record, with the last partition's
// not yet written. No key list was logged, so Resume finishes the statement
// on the durable RID list, and its one hash heap scan — keyed by partition
// 0's file, which the log calls done — must still cover every partition.
func TestCrashBetweenHeapPartitions(t *testing.T) {
	pool, tgt, victims, set, log := partedSetup(t, 6000, 1000)
	// Structures finish IA, R#0, R#1, R#2, IB, IC: stop right after R#0.
	_, err := Execute(tgt, 0, victims, Options{
		Method: SortMerge, Log: log, TxID: 31, CheckpointRows: 200,
		failAfterStructs: 2,
	})
	if !errors.Is(err, errInjectedCrash) {
		t.Fatalf("expected injected crash, got %v", err)
	}
	files := tgt.HeapFiles()
	bs := loggedRecords(t, pool, log)
	if !bs.Done[uint64(files[0])] || bs.Done[uint64(files[len(files)-1])] || len(bs.Materialized) != 1 {
		t.Fatalf("test setup: want partition 0 done, the last open, only the RID list logged (done=%v materialized=%v)",
			bs.Done, bs.Materialized)
	}
	re := crashAndRecover(t, pool, tgt, log, 0)
	verifyTarget(t, re, set, 6000)
}

// TestCrashBeforeKeyListsAreLogged: the heap phase is done — every victim
// gone from the heap, its keys projected — but the crash comes before
// stage-keys logs the key lists. Resume finishes the remaining indexes from
// the RID list alone.
func TestCrashBeforeKeyListsAreLogged(t *testing.T) {
	pool, tgt, victims, set, log := loggedSetup(t, 6000, 1000)
	// Structures finish IA, R, IB, IC: stop right after R.
	_, err := Execute(tgt, 0, victims, Options{
		Method: SortMerge, Log: log, TxID: 33, CheckpointRows: 200,
		failAfterStructs: 2,
	})
	if !errors.Is(err, errInjectedCrash) {
		t.Fatalf("expected injected crash, got %v", err)
	}
	bs := loggedRecords(t, pool, log)
	if !bs.Done[uint64(tgt.Heap.ID())] || len(bs.Materialized) != 1 {
		t.Fatalf("test setup: want the heap done and only the RID list logged (done=%v materialized=%v)",
			bs.Done, bs.Materialized)
	}
	re := crashAndRecover(t, pool, tgt, log, 0)
	verifyTarget(t, re, set, 6000)
}
