package crashtest

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"bulkdel"
	"bulkdel/internal/sim"
)

// TestLSMSweepAllOrdinals crashes the LSM delete/flush/compaction sequences
// at every I/O ordinal: recovery must always land on the base state or
// base-minus-victims, and post-recovery compaction must never resurrect a
// deleted row.
func TestLSMSweepAllOrdinals(t *testing.T) {
	for _, c := range []struct {
		scenario, survived string
		rows               int
	}{
		{"lsm", "range-survived", 0},   // default
		{"lsm", "range-survived", 600}, // multi-SSTable with deeper compactions
		// 500 point tombstones: the statement's WAL records span several
		// pages, so a crash can leave a durable prefix of them behind.
		{"lsm-in", "victims-survived", 1500},
	} {
		t.Run(fmt.Sprintf("%s/rows=%d", c.scenario, c.rows), func(t *testing.T) {
			sw := mustRun(t, c.scenario, Config{Rows: c.rows})
			if sw.Ran != sw.TotalIOs {
				t.Fatalf("swept %d of %d ordinals", sw.Ran, sw.TotalIOs)
			}
			// The sweep must cross the durable-delete boundary: early ordinals
			// keep the base, late ones lose the victims.
			var survived, gone bool
			for _, r := range sw.Ordinals {
				if r.Field(c.survived) == true {
					survived = true
				} else {
					gone = true
				}
			}
			if !survived || !gone {
				t.Fatalf("sweep never crossed the durability boundary (survived=%v gone=%v)", survived, gone)
			}
		})
	}
}

// TestLSMGrowSweepCrossesMemtables: crashes inside the insert stream recover
// whole memtables of it — every flush commits 256 inserts, and the WAL
// restarts after each one — and the late ordinals, inside the compaction,
// keep all of them.
func TestLSMGrowSweepCrossesMemtables(t *testing.T) {
	sw := mustRun(t, "lsm-grow", Config{Stride: 7})
	seen := make(map[int64]bool)
	for _, r := range sw.Ordinals {
		n := r.Field("inserted").(int64)
		if n%256 != 0 {
			t.Fatalf("ordinal %d recovered %d inserts, not whole memtables", r.Ordinal, n)
		}
		seen[n] = true
	}
	for _, n := range []int64{0, 256, lsmGrowInserts} {
		if !seen[n] {
			t.Fatalf("no ordinal recovered %d inserts (saw %v)", n, seen)
		}
	}
}

// TestLSMDropSweep crashes the filler flush that ages a tenant drop to its
// TTL, and the in-place reclamation it triggers, at every fifth I/O
// (`crashtest -lsm` sweeps them all): no dropped row may come back, and the
// sweep must cross both outcomes of the filler — rows recovered from the
// log before their hiding tombstone was durable, and none after.
func TestLSMDropSweep(t *testing.T) {
	sw := mustRun(t, "lsm-drop", Config{Stride: 5})
	seen := make(map[bool]bool)
	for _, r := range sw.Ordinals {
		seen[r.Field("filler").(int64) > 0] = true
	}
	if !seen[true] || !seen[false] {
		t.Fatalf("filler recovered in some ordinals: %v, in none: %v", seen[true], seen[false])
	}
}

// TestLSMHeapSweepAllOrdinals crashes a heap bulk delete at every I/O while
// an LSM table lives beside it in the WAL only: each recovery must bring
// the LSM rows back by replay, and the ones that find the delete in the log
// must roll it forward on the heap table — Recover used to dereference the
// LSM table's missing heap while looking for the statement's target.
func TestLSMHeapSweepAllOrdinals(t *testing.T) {
	sw := mustRun(t, "lsm-heap", Config{Method: bulkdel.SortMerge})
	if sw.Ran != sw.TotalIOs {
		t.Fatalf("swept %d of %d ordinals", sw.Ran, sw.TotalIOs)
	}
	var interrupted bool
	for _, r := range sw.Ordinals {
		if r.Field("replayed") == int64(0) {
			t.Fatalf("ordinal %d: no LSM record replayed", r.Ordinal)
		}
		if r.Field("bulk-in-wal") == true {
			interrupted = true
		}
	}
	if !interrupted {
		t.Fatal("no ordinal left the bulk delete unfinished in the WAL")
	}
}

// TestLSMInTwoCrashes: a multi-tombstone delete torn by a crash must stay
// dead for good. Statement 1 is crashed at every one of its I/Os and
// recovered; a second IN-delete then runs to completion and the database
// crashes and recovers again. The second statement's commit record must not
// adopt the first one's orphaned tombstones (the catalog's TxID floor lags
// the log, so a careless restart hands the torn statement's TxID out
// again): wherever the first delete did not commit, every one of its
// victims is still there at the end.
func TestLSMInTwoCrashes(t *testing.T) {
	cfg := Config{Rows: 1500}.withDefaults()
	sc := scenarios["lsm-in"]
	// Few enough keys that the second statement does not fill the memtable:
	// a flush would move the tree's flushed-seq horizon past the orphaned
	// records and hide them from the second replay.
	second := []int64{1, 4, 7}
	var uncommitted int
	for k := 1; ; k++ {
		st, err := sc.build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st.db.Disk().SetFaultPlan(sim.NewFaultPlan().CrashAtIO(uint64(k)))
		if err := sc.run(context.Background(), cfg, st, &Result{}); err == nil {
			if uncommitted == 0 {
				t.Fatal("no ordinal crashed the first statement before its commit")
			}
			return // k is past the sequence's last I/O
		} else if !sim.IsCrash(err) {
			t.Fatalf("ordinal %d: %v", k, err)
		}
		disk := st.db.SimulateCrash()
		disk.SetFaultPlan(nil)
		rdb, _, err := bulkdel.Recover(disk, options(cfg))
		if err != nil {
			t.Fatalf("ordinal %d: first recovery: %v", k, err)
		}
		_, firstIntact, msg := atomicState(rdb, "R", cfg.Rows, st.victims[0], true)
		if msg != "" {
			t.Fatalf("ordinal %d: after the first recovery: %s", k, msg)
		}
		if firstIntact {
			uncommitted++
		}

		if _, err := rdb.Table("R").BulkDelete(0, second, bulkdel.BulkOptions{}); err != nil {
			t.Fatalf("ordinal %d: second delete: %v", k, err)
		}
		rdb2, _, err := bulkdel.Recover(rdb.SimulateCrash(), options(cfg))
		if err != nil {
			t.Fatalf("ordinal %d: second recovery: %v", k, err)
		}
		want := cfg.Rows
		if !firstIntact {
			want -= len(st.victims[0])
		}
		tbl := rdb2.Table("R")
		var firstLeft, secondLeft int
		err = tbl.Scan(func(_ bulkdel.RID, f []int64) error {
			if f[0]%3 == 0 {
				firstLeft++
			} else if slices.Contains(second, f[0]) {
				secondLeft++
			}
			return nil
		})
		if err != nil {
			t.Fatalf("ordinal %d: scanning after the second recovery: %v", k, err)
		}
		if secondLeft != 0 {
			t.Fatalf("ordinal %d: %d victims of the committed second delete survive", k, secondLeft)
		}
		if firstIntact && firstLeft != len(st.victims[0]) {
			t.Fatalf("ordinal %d: the first delete never committed, yet only %d of its %d victims survive the second crash",
				k, firstLeft, len(st.victims[0]))
		}
		if got := tbl.Count(); got != int64(want-len(second)) {
			t.Fatalf("ordinal %d: %d rows after the second recovery, want %d", k, got, want-len(second))
		}
		if err := tbl.Check(); err != nil {
			t.Fatalf("ordinal %d: %v", k, err)
		}
	}
}

// lsmTornGrowStride thins the lsm-grow sweep of TestTornLSMWritesRecover;
// the race build sets it (race_test.go), the full sweep takes ~10x longer
// there.
var lsmTornGrowStride = 1

// TestTornLSMWritesRecover crashes every LSM scenario's I/Os with the
// crashing write torn after 48 bytes. A torn SSTable page fails its CRC in
// a file no catalog names yet, and a torn catalog save fails its slot's
// CRC, so recovery must fall back to the catalog before it: no ordinal may
// fail. (lsm-heap is left out: its torn ordinals tear heap index pages.)
func TestTornLSMWritesRecover(t *testing.T) {
	for _, c := range []struct {
		scenario string
		stride   int
	}{
		{"lsm", 1}, {"lsm-in", 1}, {"lsm-grow", lsmTornGrowStride}, {"lsm-drop", 1},
	} {
		t.Run(c.scenario, func(t *testing.T) {
			sw := mustRun(t, c.scenario, Config{TearBytes: 48, Stride: c.stride})
			if sw.Fired == 0 {
				t.Fatal("no ordinal crashed")
			}
		})
	}
}
