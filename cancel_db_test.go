package bulkdel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bulkdel/internal/obs"
	"bulkdel/internal/sim"
)

// newCancelDB builds one table with three indexes and n rows, flushed
// durable, and returns the even keys as a victim list.
func newCancelDB(t *testing.T, n int, opts Options) (*DB, *Table, []int64) {
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
		if _, err := tbl.Insert(int64(i), int64(3*i), int64(i%7)); err != nil {
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
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	var victims []int64
	for i := int64(0); i < int64(n); i += 2 {
		victims = append(victims, i)
	}
	return db, tbl, victims
}

// TestBulkDeleteCancelMidStatement cancels a bulk delete at its 10th page
// I/O. The statement must fail with ErrCancelled, yet abort-to-consistency
// must leave the structures in the crash-equivalent state: the §3.2
// roll-forward is replayed online, so the delete is complete, the table
// consistent, and nothing is leaked.
func TestBulkDeleteCancelMidStatement(t *testing.T) {
	db, tbl, victims := newCancelDB(t, 60, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	db.Disk().SetFaultPlan(sim.NewFaultPlan().CallAtIO(10, cancel))
	_, err := tbl.BulkDelete(0, victims, BulkOptions{Ctx: ctx, CheckpointRows: 8})
	db.Disk().SetFaultPlan(nil)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("got %v, want ErrCancelled", err)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	for _, v := range victims {
		rows, err := tbl.Lookup(0, v)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 0 {
			t.Fatalf("victim %d survived the abort-to-consistency replay", v)
		}
	}
	if got := tbl.Count(); got != 30 {
		t.Fatalf("%d survivors, want 30", got)
	}
	if insp := db.Inspect(); len(insp.Statements) != 0 || !insp.WaitGraph.Idle() {
		t.Fatalf("leaked concurrent state:\n%s", insp.String())
	}
	reg := db.Observer().Registry()
	if reg.Counter(obs.MetricAborts).Value() != 1 {
		t.Fatalf("cc_aborts = %d, want 1", reg.Counter(obs.MetricAborts).Value())
	}
	// The table must be fully usable afterwards.
	if _, err := tbl.Insert(1000, 3000, 6); err != nil {
		t.Fatal(err)
	}
}

// TestBulkDeleteDeadline drives the Timeout option: an immediately-expiring
// deadline must surface as ErrCancelled wrapping DeadlineExceeded, bump
// cc_deadline_exceeded, and abort to a consistent all-or-nothing state.
func TestBulkDeleteDeadline(t *testing.T) {
	db, tbl, victims := newCancelDB(t, 48, Options{})
	_, err := tbl.BulkDelete(0, victims, BulkOptions{Timeout: time.Nanosecond})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("got %v, want ErrCancelled", err)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	gone := 0
	for _, v := range victims {
		rows, err := tbl.Lookup(0, v)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			gone++
		}
	}
	if gone != 0 && gone != len(victims) {
		t.Fatalf("torn victim set after deadline abort: %d of %d gone", gone, len(victims))
	}
	reg := db.Observer().Registry()
	if reg.Counter(obs.MetricDeadlineExceeded).Value() != 1 {
		t.Fatalf("cc_deadline_exceeded = %d, want 1", reg.Counter(obs.MetricDeadlineExceeded).Value())
	}
}

// TestBulkDeleteLockWaitTimeout holds a table's exclusive lock and issues a
// delete with a small lock-wait budget: the statement must fail fast with
// ErrLockTimeout, have zero effect, and succeed when retried after release.
func TestBulkDeleteLockWaitTimeout(t *testing.T) {
	db, tbl, victims := newCancelDB(t, 48, Options{})
	held := db.cc.Lock("R")
	held.LockExclusive()
	_, err := tbl.BulkDelete(0, victims, BulkOptions{LockWait: 5 * time.Millisecond})
	if !errors.Is(err, ErrLockTimeout) {
		held.UnlockExclusive()
		t.Fatalf("got %v, want ErrLockTimeout", err)
	}
	held.UnlockExclusive()
	if got := tbl.Count(); got != 48 {
		t.Fatalf("timed-out statement changed the table: %d rows, want 48", got)
	}
	res, err := tbl.BulkDelete(0, victims, BulkOptions{LockWait: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != int64(len(victims)) {
		t.Fatalf("retry deleted %d, want %d", res.Deleted, len(victims))
	}
}

// TestRunConcurrentCtxRetries wires the retry policy end to end: statement
// one holds R's lock for a while; statement two runs a delete with a tiny
// lock-wait budget and times out. The policy must retry it (bounded,
// backed off) until the holder releases, and cc_retries must count the
// attempt.
func TestRunConcurrentCtxRetries(t *testing.T) {
	db, tbl, victims := newCancelDB(t, 48, Options{})
	held := make(chan struct{})
	release := make(chan struct{})
	var releaseOnce sync.Once
	holder := func() error {
		l := db.cc.Lock("R")
		l.LockExclusive()
		close(held)
		<-release
		l.UnlockExclusive()
		return nil
	}
	deleter := func() error {
		<-held // attempt only once the holder owns R, so the timeout is certain
		_, err := tbl.BulkDelete(0, victims, BulkOptions{LockWait: 2 * time.Millisecond})
		if errors.Is(err, ErrLockTimeout) {
			// First refusal observed: let the holder go so a retry lands.
			releaseOnce.Do(func() { close(release) })
		}
		return err
	}
	_, err := db.RunConcurrentCtx(context.Background(),
		RetryPolicy{MaxRetries: 5, Backoff: time.Millisecond, Seed: 42}, holder, deleter)
	if err != nil {
		t.Fatal(err)
	}
	reg := db.Observer().Registry()
	if reg.Counter(obs.MetricRetries).Value() == 0 {
		t.Fatal("cc_retries = 0: the policy never retried the timeout victim")
	}
	if got := tbl.Count(); got != 24 {
		t.Fatalf("%d survivors, want 24", got)
	}
}

// TestAdmissionShed caps the admission queue at zero and floods the pool
// with parallel statements: the overflow must be shed with ErrOverloaded
// before doing any work, and adm_shed must count each refusal.
func TestAdmissionShed(t *testing.T) {
	db, tbl, _ := newCancelDB(t, 120, Options{Devices: 4, Parallel: 1, AdmissionQueue: 1})
	// Saturate: statements that want pool workers beyond budget+queue.
	stmts := make([]func() error, 6)
	errsC := make(chan error, len(stmts))
	for i := range stmts {
		lo := int64(i * 10)
		stmts[i] = func() error {
			var victims []int64
			for v := lo; v < lo+10; v++ {
				victims = append(victims, v)
			}
			_, err := tbl.BulkDelete(0, victims, BulkOptions{Parallel: 3})
			errsC <- err
			if errors.Is(err, ErrOverloaded) {
				return nil // shed is an expected outcome here
			}
			return err
		}
	}
	if _, err := db.RunConcurrent(stmts...); err != nil {
		t.Fatal(err)
	}
	close(errsC)
	shed := 0
	for err := range errsC {
		if errors.Is(err, ErrOverloaded) {
			shed++
		}
	}
	reg := db.Observer().Registry()
	if int(reg.Counter(obs.MetricAdmissionShed).Value()) != shed {
		t.Fatalf("adm_shed = %d, observed %d ErrOverloaded", reg.Counter(obs.MetricAdmissionShed).Value(), shed)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	if insp := db.Inspect(); len(insp.Statements) != 0 || !insp.WaitGraph.Idle() {
		t.Fatalf("leaked concurrent state:\n%s", insp.String())
	}
}

// TestRebalanceCtxCancel cancels an online rebalancing between moves: the
// call must return ErrCancelled, completed moves stay durable (the catalog
// was saved), and every table remains consistent.
func TestRebalanceCtxCancel(t *testing.T) {
	db, err := Open(Options{Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	var tbls []*Table
	for ti := 0; ti < 3; ti++ {
		tbl, err := db.CreateTable(fmt.Sprintf("T%d", ti), 3, 64)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if _, err := tbl.Insert(int64(i), int64(3*i), int64(i%7)); err != nil {
				t.Fatal(err)
			}
		}
		for _, ix := range []IndexOptions{
			{Name: "IA", Field: 0, Unique: true},
			{Name: "IB", Field: 1},
		} {
			if err := tbl.CreateIndex(ix); err != nil {
				t.Fatal(err)
			}
		}
		tbls = append(tbls, tbl)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Widen the array: a rebalance now wants to spread the indexes, one
	// move per index. A pre-cancelled context must stop it at the first
	// move boundary.
	if err := db.GrowDevices(4); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := db.RebalanceCtx(ctx)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("got %v, want ErrCancelled", err)
	}
	if res != nil && len(res.Moves) != 0 {
		t.Fatalf("pre-cancelled rebalance moved %d files", len(res.Moves))
	}
	// A live context lets it finish; each table stays consistent.
	if _, err := db.RebalanceCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range tbls {
		if err := tbl.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUnloggedParallelCancelIsAllOrNothing cancels an unlogged delete whose
// remaining-index passes fan out over the device array, at every page I/O.
// Without a WAL nothing can be rolled forward, so a statement past admission
// observes its context nowhere — not at a pass boundary, not at a scheduler
// node boundary: it either completes, or fails ErrCancelled untouched.
func TestUnloggedParallelCancelIsAllOrNothing(t *testing.T) {
	const n = 600
	// run cancels at the statement's kth I/O (0 = never) and returns the
	// statement's error and I/O count.
	run := func(k uint64) (*Table, uint64, error) {
		db, tbl, victims := newCancelDB(t, n, Options{DisableWAL: true, Devices: 4})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if k > 0 {
			db.Disk().SetFaultPlan(sim.NewFaultPlan().CallAtIO(k, cancel))
		}
		before := db.Disk().IOCount()
		_, err := tbl.BulkDelete(0, victims, BulkOptions{Ctx: ctx, Parallel: 3})
		db.Disk().SetFaultPlan(nil)
		return tbl, db.Disk().IOCount() - before, err
	}
	_, total, err := run(0)
	if err != nil || total == 0 {
		t.Fatalf("fault-free delete: %d I/Os, %v", total, err)
	}
	for k := uint64(1); k <= total; k++ {
		tbl, _, err := run(k)
		want := int64(n / 2)
		if errors.Is(err, ErrCancelled) {
			want = n
		} else if err != nil {
			t.Fatalf("cancel at I/O %d: %v", k, err)
		}
		if cerr := tbl.Check(); cerr != nil {
			t.Fatalf("cancel at I/O %d (statement returned %v): %v", k, err, cerr)
		}
		if got := tbl.Count(); got != want {
			t.Fatalf("cancel at I/O %d (statement returned %v): %d rows, want %d", k, err, got, want)
		}
	}
}
