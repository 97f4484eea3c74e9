package core

import (
	"context"
	"testing"
)

// The unlogged run is Execute without a Log: the paper experiments call
// core directly this way, so its trace, its scratch files and its handling
// of a context are pinned here.

// TestUnloggedSortsDropTheirSpillFiles: a sort/merge whose victim, RID and
// key lists all overflow its Memory spills them to scratch files, and the
// run leaves none of them behind.
func TestUnloggedSortsDropTheirSpillFiles(t *testing.T) {
	pool := testPool(256)
	tgt := makeTarget(t, pool, 3000, []int{0, 1, 2}, []bool{true, false, false})
	victims, set := pickVictims(3000, 1500, 5)
	disk := pool.Disk()
	live := len(disk.Placements())
	first := disk.CreateFile()
	if _, err := Execute(tgt, 0, victims, Options{Method: SortMerge, Memory: 4096}); err != nil {
		t.Fatal(err)
	}
	next := disk.CreateFile()
	if next-first == 1 {
		t.Fatal("the sorts did not spill: the run created no file")
	}
	if got := len(disk.Placements()); got != live+2 {
		t.Errorf("%d live files after the delete, want %d (+2 probe files)", got, live+2)
	}
	verifyTarget(t, tgt, set, 3000)
}

// TestUnloggedTraceHasNoWAL: the trace forms with both ⋈̸ phases, no
// materialization phase and zero WAL bytes.
func TestUnloggedTraceHasNoWAL(t *testing.T) {
	pool := testPool(256)
	tgt := makeTarget(t, pool, 2000, []int{0, 1}, []bool{true, false})
	st, err := Execute(tgt, 0, []int64{5, 6, 7, 8}, Options{Method: SortMerge})
	if err != nil {
		t.Fatal(err)
	}
	tr := st.Trace
	if tr == nil {
		t.Fatal("trace missing")
	}
	if tr.Root().IO.WALBytes != 0 {
		t.Errorf("unlogged run charged WAL bytes")
	}
	if tr.Find("materialize-victims") != nil {
		t.Errorf("unlogged run materialized victims")
	}
	if tr.Find("heap-pass") == nil || tr.Find("access-pass") == nil {
		t.Errorf("phases missing:\n%s", tr.Format())
	}
}

// TestUnloggedRunIgnoresDoneCtx: only a logged run can stop where Resume
// picks up, so an unlogged run drops its context and completes, even one
// already done at admission.
func TestUnloggedRunIgnoresDoneCtx(t *testing.T) {
	pool := testPool(256)
	tgt := makeTarget(t, pool, 2000, []int{0, 1}, []bool{true, false})
	victims, set := pickVictims(2000, 400, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := Execute(tgt, 0, victims, Options{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 400 {
		t.Fatalf("deleted %d, want 400", st.Deleted)
	}
	verifyTarget(t, tgt, set, 2000)
}
