package core

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
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

// crossoverRows scales the benchmark's 200k-row table down to what a test can
// rebuild two dozen times; the pool keeps its one-third share of the heap.
const crossoverRows = 40000

var crossoverSchema = record.Schema{NumFields: 3, Size: 128}

// crossoverTarget builds the paper's three-index table on the default cost
// model: IA unique on a, IB and IC on attributes scattered over the rows, so
// a contiguous range of a is one run of IA's leaves and a sprinkle over the
// other two. The indexes are bulk-loaded over the even keys; a four-hundredth as
// many odd ones inserted afterwards split leaves the way a running system's
// have been.
func crossoverTarget(t *testing.T) (*Target, *wal.Log) {
	t.Helper()
	pool := buffer.New(sim.NewDisk(sim.DefaultCostModel()), 430*sim.PageSize)
	h, err := heap.Create(pool, crossoverSchema.Size)
	if err != nil {
		t.Fatal(err)
	}
	tgt := &Target{Name: "R", Heap: h, Schema: crossoverSchema, Pool: pool}
	rng := rand.New(rand.NewSource(7))
	rec := make([]byte, crossoverSchema.Size)
	insert := func(a int64) ([]int64, record.RID) {
		row := []int64{a, rng.Int63n(1 << 40), rng.Int63n(1 << 40)}
		if err := crossoverSchema.EncodeInto(rec, row); err != nil {
			t.Fatal(err)
		}
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		return row, rid
	}
	ents := make([][]btree.Entry, 3)
	for i := 0; i < crossoverRows; i++ {
		row, rid := insert(int64(2 * i))
		for k := range ents {
			ents[k] = append(ents[k], btree.Entry{Key: keyenc.Int64Key(row[k], 8), RID: rid})
		}
	}
	for k, name := range []string{"IA", "IB", "IC"} {
		tr, err := btree.Create(pool, 8, k == 0)
		if err != nil {
			t.Fatal(err)
		}
		es := ents[k]
		slices.SortFunc(es, func(x, y btree.Entry) int {
			if c := bytes.Compare(x.Key, y.Key); c != 0 {
				return c
			}
			return cmp.Compare(x.RID.Page, y.RID.Page)
		})
		err = tr.BulkLoad(func() (btree.Entry, bool, error) {
			if len(es) == 0 {
				return btree.Entry{}, false, nil
			}
			e := es[0]
			es = es[1:]
			return e, true, nil
		}, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		tgt.Indexes = append(tgt.Indexes, IndexRef{Name: name, Tree: tr, Field: k, Unique: k == 0})
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pool.InvalidateAll() // every statement starts cold
	return tgt, wal.Create(pool.Disk())
}

// crossoverCost runs one logged delete on a fresh table and returns its
// simulated cost, write-back included, and its stats.
func crossoverCost(t *testing.T, m Method, victims []int64) (time.Duration, *Stats) {
	t.Helper()
	tgt, log := crossoverTarget(t)
	disk := tgt.Pool.Disk()
	start := disk.Clock()
	st, err := Execute(tgt, 0, victims, Options{Method: m, Log: log, TxID: 1})
	if err != nil {
		t.Fatalf("%v: %v", m, err)
	}
	if err := tgt.Pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	cost := disk.Clock() - start
	if st.Deleted != int64(len(victims)) {
		t.Fatalf("%v deleted %d of %d", m, st.Deleted, len(victims))
	}
	for _, ix := range tgt.Indexes {
		if err := ix.Tree.CheckInvariants(); err != nil {
			t.Fatalf("%v: index %s: %v", m, ix.Name, err)
		}
	}
	return cost, st
}

// TestArmCrossover: whatever the victim count, the plan Auto picks costs at
// most 1.3× the cheaper of the all-pass and the all-probe plan; and on a
// contiguous key range it mixes the arms — probes where the victims are one
// run of leaves, passes where they are scattered. (There the all-probe plan
// measured 4 % under the mix: over a freshly loaded leaf level a batch of
// probes in key order is itself a skip-sequential pass, and the planner
// prices each probed leaf a near skip even where most are successors.)
func TestArmCrossover(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	perm := rng.Perm(crossoverRows)
	for _, of200k := range []int{1, 64, 500, 2000, 10000} {
		n := max(1, of200k*crossoverRows/200000)
		victims := make([]int64, n)
		for i := range victims {
			victims[i] = int64(2 * perm[i])
		}
		pass, _ := crossoverCost(t, SortMerge, victims)
		probe, _ := crossoverCost(t, Probe, victims)
		auto, st := crossoverCost(t, Auto, victims)
		t.Logf("%5d victims: sort/merge %v, probe %v, auto %v (%v)", n, pass, probe, auto, st.Method)
		if limit := min(pass, probe) * 13 / 10; auto > limit {
			t.Errorf("%d victims: auto (%v) costs %v, over 1.3× the cheaper of sort/merge %v and probe %v",
				n, st.Method, auto, pass, probe)
		}
	}

	var victims []int64
	for i := 0; i < crossoverRows*3/400; i++ { // 0.75 %
		victims = append(victims, int64(2*(crossoverRows/3+i)))
	}
	pass, _ := crossoverCost(t, SortMerge, victims)
	probe, _ := crossoverCost(t, Probe, victims)
	auto, st := crossoverCost(t, Auto, victims)
	t.Logf("contiguous %d: sort/merge %v, probe %v, auto %v (%v)", len(victims), pass, probe, auto, st.Method)
	if st.Method != Auto || auto > pass || auto > probe*105/100 {
		t.Errorf("contiguous range: auto ran %v at %v; want a mix no dearer than sort/merge %v or (within 5 %%) probe %v",
			st.Method, auto, pass, probe)
	}
	if st.PlanText != goldenMixedArms {
		t.Errorf("plan mismatch\n--- got ---\n%s--- want ---\n%s", st.PlanText, goldenMixedArms)
	}
	if !strings.Contains(st.ExplainAnalyze(), "  auto=") {
		t.Errorf("the mixed plan's estimate is missing:\n%s", st.ExplainAnalyze())
	}
}

const goldenMixedArms = `DELETE  FROM R WHERE field0 IN D  —  method=auto, memory=5.0 MB
   ├─ ⋈̸[merge] R (by RID)  → π_{key,RID} per remaining index
   │  └─ sort  RIDs by physical position
   │     └─ ⋈̸[probe] IA (by key)  → RIDs of deleted entries
   │        └─ sort  π_field0(D) by key
   ├─ ⋈̸[merge] IB (by key,RID)
   │  └─ sort  π_{IB,RID} by key
   │     └─ π  {key(IB), RID} from R deletes
   └─ ⋈̸[merge] IC (by key,RID)
      └─ sort  π_{IC,RID} by key
         └─ π  {key(IC), RID} from R deletes
`
