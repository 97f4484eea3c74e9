package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"bulkdel/internal/buffer"
	"bulkdel/internal/heap"
	"bulkdel/internal/obs"
	"bulkdel/internal/wal"
)

// parallelTarget builds a 3-index target spread over a 4-device array:
// device 0 is the system spindle (heap, WAL, scratch), IA..IC live on
// devices 1..3.
func parallelTarget(t *testing.T, pool *buffer.Pool, n int) *Target {
	t.Helper()
	pool.Disk().ConfigureDevices(4)
	tgt := makeTarget(t, pool, n, []int{0, 1, 2}, []bool{true, false, false})
	for k, ix := range tgt.Indexes {
		if err := pool.Relocate(ix.Tree.ID(), k+1); err != nil {
			t.Fatal(err)
		}
	}
	return tgt
}

func TestParallelMatchesSerial(t *testing.T) {
	const n = 3000
	for _, m := range []Method{SortMerge, Hash, HashPartition} {
		t.Run(m.String(), func(t *testing.T) {
			run := func(parallel int) (*Stats, *Target, map[int64]bool) {
				pool := testPool(256)
				tgt := parallelTarget(t, pool, n)
				victims, set := pickVictims(n, n/6, 77)
				st, err := Execute(tgt, 0, victims, Options{
					Method: m, Memory: 1 << 16, Parallel: parallel,
				})
				if err != nil {
					t.Fatal(err)
				}
				return st, tgt, set
			}
			ser, stgt, sset := run(0)
			par, ptgt, pset := run(4)
			verifyTarget(t, stgt, sset, n)
			verifyTarget(t, ptgt, pset, n)
			if ser.Deleted != par.Deleted {
				t.Fatalf("deleted: serial %d, parallel %d", ser.Deleted, par.Deleted)
			}
			if ser.Schedule != nil || ser.Makespan != ser.Elapsed {
				t.Fatalf("serial run reported a parallel schedule: %+v", ser)
			}
			if par.Schedule == nil || len(par.Schedule.Items) != 2 {
				t.Fatalf("parallel schedule missing or wrong size: %+v", par.Schedule)
			}
			if par.Workers != 2 { // two remaining indexes on two devices
				t.Fatalf("workers = %d, want 2", par.Workers)
			}
			if par.Makespan >= par.Elapsed {
				t.Fatalf("no overlap: makespan %v vs serial-equivalent %v", par.Makespan, par.Elapsed)
			}
			// Per-structure deletion counts must agree pairwise.
			serDel := map[string]int64{}
			for _, ss := range ser.PerStructure {
				serDel[ss.Name] = ss.Deleted
			}
			for _, ss := range par.PerStructure {
				if serDel[ss.Name] != ss.Deleted {
					t.Fatalf("structure %s: serial deleted %d, parallel %d",
						ss.Name, serDel[ss.Name], ss.Deleted)
				}
			}
			// Each pass span carries its structure's I/O, the fanned-out
			// ones included: a span and its stats row are one measurement.
			var passes []*obs.Span
			for _, sp := range par.Trace.Root().Children {
				if strings.HasSuffix(sp.Name, "-pass") {
					passes = append(passes, sp)
				}
			}
			if len(passes) != len(par.PerStructure) {
				t.Fatalf("%d pass spans for %d structures", len(passes), len(par.PerStructure))
			}
			for i, ss := range par.PerStructure {
				if io := passes[i].IO; io.Reads != ss.Reads || io.Writes != ss.Writes {
					t.Errorf("%s span %s: %d reads, %d writes; its row has %d, %d",
						passes[i].Name, ss.Name, io.Reads, io.Writes, ss.Reads, ss.Writes)
				}
			}
		})
	}
}

// Same plan + same seed ⇒ identical simulated makespan, elapsed time, and
// virtual schedule.
func TestParallelDeterministicMakespan(t *testing.T) {
	const n = 2500
	run := func() *Stats {
		pool := testPool(256)
		tgt := parallelTarget(t, pool, n)
		victims, _ := pickVictims(n, n/5, 13)
		st, err := Execute(tgt, 0, victims, Options{
			Method: SortMerge, Memory: 1 << 16, Parallel: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	first := run()
	if first.Schedule == nil {
		t.Fatal("no schedule reported")
	}
	for i := 0; i < 4; i++ {
		again := run()
		if first.Elapsed != again.Elapsed {
			t.Fatalf("elapsed differs: %v vs %v", first.Elapsed, again.Elapsed)
		}
		if first.Makespan != again.Makespan {
			t.Fatalf("makespan differs: %v vs %v", first.Makespan, again.Makespan)
		}
		if !reflect.DeepEqual(first.Schedule, again.Schedule) {
			t.Fatalf("schedule differs:\n%+v\n%+v", first.Schedule, again.Schedule)
		}
	}
}

// items builds schedule items from (device, duration in ms) pairs.
func items(devDurs ...[2]int) []Item {
	out := make([]Item, len(devDurs))
	for i, dd := range devDurs {
		out[i] = Item{Label: string(rune('a' + i)), Device: dd[0], Duration: time.Duration(dd[1]) * time.Millisecond}
	}
	return out
}

func TestPlanMath(t *testing.T) {
	sc := planSchedule(2, items([2]int{1, 10}, [2]int{2, 20}, [2]int{1, 5}))
	if sc.Makespan != 20*time.Millisecond {
		t.Fatalf("makespan %v, want 20ms", sc.Makespan)
	}
	if sc.Items[2].Start != 10*time.Millisecond {
		t.Fatalf("item c start %v, want 10ms (device busy)", sc.Items[2].Start)
	}
	if len(sc.Critical) == 0 || sc.Critical[len(sc.Critical)-1] != 1 {
		t.Fatalf("critical path %v, want to end at item 1", sc.Critical)
	}
}

func TestPlanSerialWorker(t *testing.T) {
	sc := planSchedule(1, items([2]int{1, 10}, [2]int{2, 10}, [2]int{3, 10}))
	if sc.Makespan != 30*time.Millisecond {
		t.Fatalf("one worker must serialize: makespan %v, want 30ms", sc.Makespan)
	}
}

// TestPlanDeviceExclusive: two items on one device never overlap in the
// virtual schedule, however many workers are free, and the item that waits
// for the device has it on its critical chain.
func TestPlanDeviceExclusive(t *testing.T) {
	sc := planSchedule(4, items([2]int{0, 20}, [2]int{1, 10}, [2]int{2, 30}, [2]int{3, 5}, [2]int{0, 8}))
	a, e := sc.Items[0], sc.Items[4]
	if e.Start < a.Finish && a.Start < e.Finish {
		t.Fatalf("device-0 items overlap: %+v vs %+v", a, e)
	}
	if sc.Makespan != 30*time.Millisecond || !reflect.DeepEqual(sc.Critical, []int{2}) {
		t.Fatalf("makespan %v critical %v, want 30ms [2]", sc.Makespan, sc.Critical)
	}
}

// A logged parallel run must keep the §3.2 protocol intact: one
// struct-start/done pair per structure, materialized lists for every
// remaining index, and a log that analyzes as finished.
func TestParallelLoggedProtocol(t *testing.T) {
	const n = 4000
	pool := testPool(2048)
	tgt := parallelTarget(t, pool, n)
	if err := tgt.Heap.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, ix := range tgt.Indexes {
		if err := ix.Tree.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	victims, set := pickVictims(n, 900, 5)
	log := wal.Create(pool.Disk())
	st, err := Execute(tgt, 0, victims, Options{
		Method: SortMerge, Log: log, TxID: 7, CheckpointRows: 200, Parallel: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 900 {
		t.Fatalf("deleted %d", st.Deleted)
	}
	verifyTarget(t, tgt, set, n)
	_, recs, err := wal.Open(pool.Disk(), log.FileID())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[wal.Type]int{}
	for _, r := range recs {
		counts[r.Type]++
	}
	if counts[wal.TStructStart] != 4 || counts[wal.TStructDone] != 4 {
		t.Fatalf("structure framing wrong: %v", counts)
	}
	if counts[wal.TMaterialized] != 3 {
		t.Fatalf("materialized: %v", counts)
	}
	bs, ok := wal.AnalyzeBulk(recs)
	if !ok || !bs.Finished {
		t.Fatalf("analyze: %+v ok=%v", bs, ok)
	}
}

// TestClampWorkers: the remaining-index passes of a delete get as many
// workers as the cap allows, but no more than there are passes and distinct
// devices under them.
func TestClampWorkers(t *testing.T) {
	pool := testPool(256)
	tgt := parallelTarget(t, pool, 500)
	workers := func(limit int) int {
		rest := remainingIndexes(tgt, accessIndex(tgt, 0))
		return clampWorkers(pool.Disk(), indexFiles(rest), limit)
	}
	// Two remaining indexes on two distinct devices: degree 2 whatever the cap.
	if w := workers(8); w != 2 {
		t.Fatalf("cap 8: %d workers, want 2", w)
	}
	if w := workers(2); w != 2 {
		t.Fatalf("cap 2: %d workers, want 2", w)
	}
	if w := workers(1); w != 1 {
		t.Fatalf("cap 1: %d workers, want 1", w)
	}
	// Collapse every tree onto one device: nothing to overlap.
	for _, ix := range tgt.Indexes {
		if err := pool.Relocate(ix.Tree.ID(), 1); err != nil {
			t.Fatal(err)
		}
	}
	if w := workers(8); w != 1 {
		t.Fatalf("one device: %d workers, want 1", w)
	}
}

// TestPartitionedHeapFanOutWithRemainingIndexes: an unlogged plan on a
// partitioned heap keeps its per-partition fan-out when index passes remain.
// Each partition job projects into sinks of its own — a whole-partition
// victim list through the truncation's per-record hook; the per-partition lists
// are merged (sort/merge) or read one after another (hash+partition) by
// phase 3, and the result is the serial run's.
func TestPartitionedHeapFanOutWithRemainingIndexes(t *testing.T) {
	const n = 3000
	for _, m := range []Method{SortMerge, HashPartition} {
		t.Run(m.String(), func(t *testing.T) {
			deleted := map[int]int64{}
			for _, parallel := range []int{0, 4} {
				pool := testPool(256)
				pool.Disk().ConfigureDevices(4)
				h, err := heap.CreateHeap(pool, testSchema, heap.PartitionSpec{Field: 0, HashParts: 3})
				if err != nil {
					t.Fatal(err)
				}
				tgt := makeTargetOn(t, pool, h, n, []int{0, 1, 2}, []bool{true, false, false})
				for k, f := range tgt.HeapFiles() {
					if err := pool.Relocate(f, k+1); err != nil {
						t.Fatal(err)
					}
				}
				for k, ix := range tgt.Indexes {
					if err := pool.Relocate(ix.Tree.ID(), k+1); err != nil {
						t.Fatal(err)
					}
				}
				// Every row of partition 0 (dropped by truncation, projected
				// through its per-record hook) and a sixth of the rest.
				victims, set := pickVictims(n, n/6, 19)
				for v := int64(0); v < n; v++ {
					if h.Spec().Route(v) == 0 && !set[v] {
						victims, set[v] = append(victims, v), true
					}
				}
				st, err := Execute(tgt, 0, victims, Options{Method: m, Memory: 2048, Parallel: parallel})
				if err != nil {
					t.Fatal(err)
				}
				verifyTarget(t, tgt, set, n)
				deleted[parallel] = st.Deleted
				if fanned := st.HeapSchedule != nil; fanned != (parallel > 1) {
					t.Fatalf("parallel=%d: heap schedule %+v", parallel, st.HeapSchedule)
				}
				if parallel > 1 && len(st.HeapSchedule.Items) != 3 {
					t.Fatalf("heap fan-out ran %d partition jobs, want 3", len(st.HeapSchedule.Items))
				}
			}
			if deleted[0] != deleted[4] {
				t.Fatalf("deleted: serial %d, parallel %d", deleted[0], deleted[4])
			}
		})
	}
}
