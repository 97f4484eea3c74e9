package bulkdel

import (
	"context"
	"errors"
	"testing"

	"bulkdel/internal/sim"
)

// layoutFiles counts the live files of the array, scratch lists included.
func layoutFiles(db *DB) int {
	n := 0
	for _, d := range db.Layout() {
		n += d.Files
	}
	return n
}

var leakMethods = []struct {
	name   string
	method Method
	// memory forces several range partitions out of the hash+partition plan.
	memory int
}{
	{"sort", SortMerge, 0},
	{"hash", Hash, 0},
	{"partition", HashPartition, 12000},
}

// TestLoggedDeleteDropsItsLists: a committed WAL-on bulk delete leaves no
// victim, RID or key list behind — the file count of DB.Layout() is what it
// was before the statement.
func TestLoggedDeleteDropsItsLists(t *testing.T) {
	for _, m := range leakMethods {
		db, tbl, victims := newCancelDB(t, 600, Options{})
		before := layoutFiles(db)
		if _, err := tbl.BulkDelete(0, victims, BulkOptions{Method: m.method, Memory: m.memory}); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if after := layoutFiles(db); after != before {
			t.Errorf("%s: %d files before the delete, %d after it committed", m.name, before, after)
		}
	}
}

// TestCancelledDeleteDropsItsLists cancels a logged delete at every page
// I/O; abort-to-consistency rolls it forward. Whatever the first attempt had
// staged — the partition buckets of a hash+partition index pass included —
// must be gone with the statement.
func TestCancelledDeleteDropsItsLists(t *testing.T) {
	for _, m := range leakMethods {
		// run cancels at the statement's kth I/O (0 = never).
		run := func(k uint64) (before, after int, ios uint64, err error) {
			db, tbl, victims := newCancelDB(t, 600, Options{})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if k > 0 {
				db.Disk().SetFaultPlan(sim.NewFaultPlan().CallAtIO(k, cancel))
			}
			before = layoutFiles(db)
			io0 := db.Disk().IOCount()
			_, err = tbl.BulkDelete(0, victims, BulkOptions{Ctx: ctx, Method: m.method,
				Memory: m.memory, CheckpointRows: 16})
			db.Disk().SetFaultPlan(nil)
			if cerr := tbl.Check(); cerr != nil {
				t.Fatalf("%s: cancel at I/O %d: %v", m.name, k, cerr)
			}
			return before, layoutFiles(db), db.Disk().IOCount() - io0, err
		}
		_, _, total, err := run(0)
		if err != nil || total == 0 {
			t.Fatalf("%s: fault-free delete: %d I/Os, %v", m.name, total, err)
		}
		cancelled := 0
		for k := uint64(1); k <= total; k++ {
			before, after, _, err := run(k)
			if errors.Is(err, ErrCancelled) {
				cancelled++
			} else if err != nil {
				t.Fatalf("%s: cancel at I/O %d: %v", m.name, k, err)
			}
			if after != before {
				t.Errorf("%s: cancel at I/O %d (statement returned %v): %d files before, %d after",
					m.name, k, err, before, after)
			}
		}
		if cancelled == 0 {
			t.Fatalf("%s: no ordinal of %d cancelled the statement", m.name, total)
		}
	}
}

// TestSortsDropTheirSpillFiles: a sort whose iterator ran dry, or stopped
// short of that, or never got as far as Finish, takes its spill file with
// it. The statement sorts at a budget its lists overflow and is cancelled
// across its whole I/O stream, the read-only ⋈̸ filling the RID sorter and
// the heap pass filling the per-index sorters included. (The unlogged core
// run's spills are internal/core's TestUnloggedSortsDropTheirSpillFiles.)
func TestSortsDropTheirSpillFiles(t *testing.T) {
	opts := BulkOptions{Method: SortMerge, Memory: 4096}
	db, tbl, victims := newCancelDB(t, 3000, Options{})
	io0 := db.Disk().IOCount()
	if _, err := tbl.BulkDelete(0, victims, opts); err != nil {
		t.Fatal(err)
	}
	total := db.Disk().IOCount() - io0
	cancelled := 0
	for k := uint64(1); k <= total; k += 5 {
		db, tbl, victims := newCancelDB(t, 3000, Options{})
		ctx, cancel := context.WithCancel(context.Background())
		db.Disk().SetFaultPlan(sim.NewFaultPlan().CallAtIO(k, cancel))
		before := layoutFiles(db)
		opts.Ctx = ctx
		_, err := tbl.BulkDelete(0, victims, opts)
		cancel()
		db.Disk().SetFaultPlan(nil)
		if errors.Is(err, ErrCancelled) {
			cancelled++
		} else if err != nil {
			t.Fatalf("cancel at I/O %d: %v", k, err)
		}
		if after := layoutFiles(db); after != before {
			t.Errorf("cancel at I/O %d of %d: %d files before, %d after", k, total, before, after)
		}
	}
	if cancelled == 0 {
		t.Fatal("no ordinal cancelled the statement")
	}
}
