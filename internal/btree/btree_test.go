package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"bulkdel/internal/buffer"
	"bulkdel/internal/keyenc"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
)

func testPool(pages int) *buffer.Pool {
	d := sim.NewDisk(sim.CostModel{
		Seek:         8 * time.Millisecond,
		Rotation:     4 * time.Millisecond,
		TransferPage: 1 * time.Millisecond,
	})
	return buffer.New(d, pages*sim.PageSize)
}

func intKey(v int64) []byte { return keyenc.Int64Key(v, 8) }

func ridFor(i int) record.RID {
	return record.RID{Page: sim.PageNo(1 + i/7), Slot: uint16(i % 7)}
}

func mustCheck(t *testing.T, tr *Tree) {
	t.Helper()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateEmptyTree(t *testing.T) {
	p := testPool(64)
	tr, err := Create(p, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 1 || tr.Count() != 0 {
		t.Fatalf("height=%d count=%d", tr.Height(), tr.Count())
	}
	rids, err := tr.Search(intKey(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 0 {
		t.Fatal("search on empty tree found something")
	}
	mustCheck(t, tr)
	if _, err := Create(p, 0, false); err == nil {
		t.Fatal("key length 0 should fail")
	}
	if _, err := Create(p, 3000, false); err == nil {
		t.Fatal("huge key length should fail")
	}
}

func TestInsertSearchSmall(t *testing.T) {
	p := testPool(64)
	tr, err := Create(p, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tr.Insert(intKey(int64(i*3)), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCheck(t, tr)
	for i := 0; i < 100; i++ {
		rids, err := tr.Search(intKey(int64(i * 3)))
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) != 1 || rids[0] != ridFor(i) {
			t.Fatalf("search %d = %v", i*3, rids)
		}
	}
	if rids, _ := tr.Search(intKey(1)); len(rids) != 0 {
		t.Fatal("search for absent key found something")
	}
	if tr.Count() != 100 {
		t.Fatalf("count = %d", tr.Count())
	}
}

func TestInsertSplitsGrowTree(t *testing.T) {
	p := testPool(256)
	tr, err := Create(p, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	// Leaf capacity for keyLen 8 is (4096-20)/16 = 254. Insert enough
	// for height 3.
	n := 254 * 150
	for i := 0; i < n; i++ {
		if err := tr.Insert(intKey(int64(i)), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("height = %d, want >= 3", tr.Height())
	}
	if tr.Count() != int64(n) {
		t.Fatalf("count = %d, want %d", tr.Count(), n)
	}
	mustCheck(t, tr)
	// Spot-check searches across the range.
	for _, v := range []int64{0, 1, 253, 254, 255, int64(n / 2), int64(n - 1)} {
		rids, err := tr.Search(intKey(v))
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) != 1 {
			t.Fatalf("search %d = %v", v, rids)
		}
	}
}

func TestInsertReverseAndRandomOrder(t *testing.T) {
	for _, mode := range []string{"reverse", "random"} {
		p := testPool(256)
		tr, err := Create(p, 8, false)
		if err != nil {
			t.Fatal(err)
		}
		n := 5000
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		if mode == "reverse" {
			for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
				perm[i], perm[j] = perm[j], perm[i]
			}
		} else {
			rand.New(rand.NewSource(7)).Shuffle(n, func(i, j int) {
				perm[i], perm[j] = perm[j], perm[i]
			})
		}
		for _, v := range perm {
			if err := tr.Insert(intKey(int64(v)), ridFor(v)); err != nil {
				t.Fatalf("%s insert %d: %v", mode, v, err)
			}
		}
		mustCheck(t, tr)
		// ScanAll must produce sorted order.
		var prev int64 = -1
		count := 0
		err = tr.ScanAll(func(k []byte, rid record.RID) error {
			v := keyenc.Int64(k)
			if v != prev+1 {
				return fmt.Errorf("%s scan: got %d after %d", mode, v, prev)
			}
			prev = v
			count++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if count != n {
			t.Fatalf("%s scan count = %d", mode, count)
		}
	}
}

func TestDuplicateKeys(t *testing.T) {
	p := testPool(128)
	tr, err := Create(p, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	// 600 duplicates of one key span multiple leaves.
	key := intKey(42)
	for i := 0; i < 600; i++ {
		if err := tr.Insert(key, ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Insert(intKey(41), ridFor(9999)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(intKey(43), ridFor(9998)); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, tr)
	rids, err := tr.Search(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 600 {
		t.Fatalf("found %d duplicates, want 600", len(rids))
	}
	for i := 1; i < len(rids); i++ {
		if !rids[i-1].Less(rids[i]) {
			t.Fatal("duplicate RIDs not in order")
		}
	}
	// Exact duplicate entry is rejected.
	if err := tr.Insert(key, ridFor(0)); err == nil {
		t.Fatal("duplicate (key, RID) should fail")
	}
	// Delete a specific duplicate.
	if err := tr.Delete(key, ridFor(300)); err != nil {
		t.Fatal(err)
	}
	rids, _ = tr.Search(key)
	if len(rids) != 599 {
		t.Fatalf("after delete found %d", len(rids))
	}
	for _, r := range rids {
		if r == ridFor(300) {
			t.Fatal("deleted duplicate still present")
		}
	}
	mustCheck(t, tr)
}

func TestUniqueIndex(t *testing.T) {
	p := testPool(128)
	tr, err := Create(p, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := tr.Insert(intKey(int64(i)), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Same key, different RID: must fail everywhere, including at leaf
	// boundaries.
	for _, v := range []int64{0, 1, 253, 254, 500, 999} {
		if err := tr.Insert(intKey(v), ridFor(5000)); err != ErrDuplicateKey {
			t.Fatalf("insert dup %d: %v, want ErrDuplicateKey", v, err)
		}
	}
	if tr.Count() != 1000 {
		t.Fatalf("count changed to %d after rejected inserts", tr.Count())
	}
	// After deleting, the key is insertable again.
	if err := tr.Delete(intKey(500), ridFor(500)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(intKey(500), ridFor(5000)); err != nil {
		t.Fatalf("reinsert after delete: %v", err)
	}
	mustCheck(t, tr)
}

func TestDeleteFreeAtEmpty(t *testing.T) {
	p := testPool(256)
	tr, err := Create(p, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetPolicy(FreeAtEmpty)
	n := 254 * 20
	for i := 0; i < n; i++ {
		if err := tr.Insert(intKey(int64(i)), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete everything in a contiguous range: whole leaves empty out
	// and must be reclaimed.
	for i := 1000; i < 3000; i++ {
		if err := tr.Delete(intKey(int64(i)), ridFor(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	mustCheck(t, tr)
	free, err := tr.FreePages()
	if err != nil {
		t.Fatal(err)
	}
	if free < 5 {
		t.Fatalf("only %d pages freed after emptying ~8 leaves", free)
	}
	// Survivors intact; victims gone.
	for _, v := range []int64{0, 999, 3000, int64(n - 1)} {
		if rids, _ := tr.Search(intKey(v)); len(rids) != 1 {
			t.Fatalf("survivor %d missing", v)
		}
	}
	for _, v := range []int64{1000, 2000, 2999} {
		if rids, _ := tr.Search(intKey(v)); len(rids) != 0 {
			t.Fatalf("victim %d still present", v)
		}
	}
	if err := tr.Delete(intKey(1000), ridFor(1000)); err != ErrNotFound {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}
}

func TestDeleteEverythingFreeAtEmpty(t *testing.T) {
	p := testPool(256)
	tr, err := Create(p, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	n := 2000
	for i := 0; i < n; i++ {
		if err := tr.Insert(intKey(int64(i)), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := tr.Delete(intKey(int64(i)), ridFor(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if tr.Count() != 0 {
		t.Fatalf("count = %d", tr.Count())
	}
	mustCheck(t, tr)
	// The tree is usable again.
	if err := tr.Insert(intKey(7), ridFor(7)); err != nil {
		t.Fatal(err)
	}
	if rids, _ := tr.Search(intKey(7)); len(rids) != 1 {
		t.Fatal("insert after full drain failed")
	}
	mustCheck(t, tr)
}

func TestDeleteMergeAtHalf(t *testing.T) {
	p := testPool(256)
	tr, err := Create(p, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetPolicy(MergeAtHalf)
	n := 254 * 20
	for i := 0; i < n; i++ {
		if err := tr.Insert(intKey(int64(i)), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Random 70% deletion keeps the structure under constant rebalance.
	rng := rand.New(rand.NewSource(3))
	perm := rng.Perm(n)
	for _, v := range perm[:n*7/10] {
		if err := tr.Delete(intKey(int64(v)), ridFor(v)); err != nil {
			t.Fatalf("delete %d: %v", v, err)
		}
	}
	mustCheck(t, tr)
	alive := map[int]bool{}
	for _, v := range perm[n*7/10:] {
		alive[v] = true
	}
	for v := range alive {
		if rids, _ := tr.Search(intKey(int64(v))); len(rids) != 1 {
			t.Fatalf("survivor %d missing", v)
		}
	}
	// Merge-at-half keeps occupancy: counted leaves should be close to
	// count/capacity.
	var leaves int
	pg, err := tr.leftmostLeaf()
	if err != nil {
		t.Fatal(err)
	}
	for pg != sim.InvalidPage {
		fr, err := p.Get(tr.ID(), pg)
		if err != nil {
			t.Fatal(err)
		}
		nd := tr.node(fr.Data())
		if nd.count() < nd.capacity()/2 && nd.left() != sim.InvalidPage && nd.right() != sim.InvalidPage {
			// Only boundary nodes may be underfull... actually with
			// merge-at-half every non-root node must hold >= half
			// after rebalancing unless it had no sibling.
			t.Errorf("leaf %d underfull: %d/%d", pg, nd.count(), nd.capacity())
		}
		leaves++
		pg = nd.right()
		p.Unpin(fr, false)
	}
	if leaves > int(tr.Count())/(254/2)+2 {
		t.Fatalf("%d leaves for %d entries: merge-at-half not merging", leaves, tr.Count())
	}
}

func TestDeleteMergeAtHalfDrain(t *testing.T) {
	p := testPool(256)
	tr, err := Create(p, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetPolicy(MergeAtHalf)
	n := 5000
	for i := 0; i < n; i++ {
		if err := tr.Insert(intKey(int64(i)), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := tr.Delete(intKey(int64(i)), ridFor(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if tr.Count() != 0 {
		t.Fatalf("count = %d", tr.Count())
	}
	mustCheck(t, tr)
}

func TestSearchRange(t *testing.T) {
	p := testPool(128)
	tr, err := Create(p, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(intKey(int64(i*2)), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []int64
	err = tr.SearchRange(intKey(100), intKey(200), func(k []byte, rid record.RID) error {
		got = append(got, keyenc.Int64(k))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("range returned %d entries, want 50", len(got))
	}
	if got[0] != 100 || got[len(got)-1] != 198 {
		t.Fatalf("range bounds wrong: %d..%d", got[0], got[len(got)-1])
	}
	// Open-ended range.
	count := 0
	if err := tr.SearchRange(intKey(3900), nil, func([]byte, record.RID) error {
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Fatalf("open range returned %d, want 50", count)
	}
}

func TestBulkLoad(t *testing.T) {
	p := testPool(256)
	tr, err := Create(p, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	n := 100000
	i := 0
	err = tr.BulkLoad(func() (Entry, bool, error) {
		if i >= n {
			return Entry{}, false, nil
		}
		e := Entry{Key: intKey(int64(i)), RID: ridFor(i)}
		i++
		return e, true, nil
	}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Count() != int64(n) {
		t.Fatalf("count = %d", tr.Count())
	}
	if tr.Height() != 3 { // 100k/254 = 394 leaves; 394/169(cap) = 3 inner; height 3
		t.Fatalf("height = %d, want 3", tr.Height())
	}
	mustCheck(t, tr)
	for _, v := range []int64{0, 1, 50000, int64(n - 1)} {
		if rids, _ := tr.Search(intKey(v)); len(rids) != 1 {
			t.Fatalf("search %d failed after bulk load", v)
		}
	}
	// Inserts still work after a bulk load.
	if err := tr.Insert(intKey(int64(n+5)), ridFor(n+5)); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, tr)
}

func TestBulkLoadRejectsUnsortedAndNonEmpty(t *testing.T) {
	p := testPool(64)
	tr, err := Create(p, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	vals := []int64{1, 3, 2}
	i := 0
	err = tr.BulkLoad(func() (Entry, bool, error) {
		if i >= len(vals) {
			return Entry{}, false, nil
		}
		e := Entry{Key: intKey(vals[i]), RID: ridFor(int(vals[i]))}
		i++
		return e, true, nil
	}, 1.0)
	if err == nil {
		t.Fatal("unsorted bulk load should fail")
	}
	tr2, err := Create(p, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.Insert(intKey(1), ridFor(1)); err != nil {
		t.Fatal(err)
	}
	if err := tr2.BulkLoad(func() (Entry, bool, error) { return Entry{}, false, nil }, 1.0); err == nil {
		t.Fatal("bulk load into non-empty tree should fail")
	}
	tr3, err := Create(p, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr3.BulkLoad(func() (Entry, bool, error) { return Entry{}, false, nil }, 1.5); err == nil {
		t.Fatal("fill factor > 1 should fail")
	}
}

func TestBulkLoadFillFactorControlsHeight(t *testing.T) {
	// Wider keys shrink fan-out and grow the tree — Experiment 3's knob.
	p := testPool(1024)
	mk := func(keyLen int) *Tree {
		tr, err := Create(p, keyLen, false)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		err = tr.BulkLoad(func() (Entry, bool, error) {
			if i >= 300000 {
				return Entry{}, false, nil
			}
			e := Entry{Key: keyenc.Int64Key(int64(i), keyLen), RID: ridFor(i)}
			i++
			return e, true, nil
		}, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	narrow := mk(8)
	wide := mk(56)
	if wide.Height() <= narrow.Height() {
		t.Fatalf("wide keys height %d, narrow %d: wider keys must grow the tree",
			wide.Height(), narrow.Height())
	}
	mustCheck(t, narrow)
	mustCheck(t, wide)
}

func TestLeafCursorDeleteAndRebuild(t *testing.T) {
	for _, reorg := range []bool{false, true} {
		p := testPool(512)
		tr, err := Create(p, 8, false)
		if err != nil {
			t.Fatal(err)
		}
		n := 20000
		i := 0
		if err := tr.BulkLoad(func() (Entry, bool, error) {
			if i >= n {
				return Entry{}, false, nil
			}
			e := Entry{Key: intKey(int64(i)), RID: ridFor(i)}
			i++
			return e, true, nil
		}, 1.0); err != nil {
			t.Fatal(err)
		}
		// Keep only every third key outside [5000, 9000): most leaves
		// shrink to ~1/3 occupancy (so reorganization can merge
		// neighbors) and the leaves inside the range empty completely
		// (so free-at-empty reclamation kicks in).
		cur, err := tr.EditLeavesFrom(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for {
			ok, err := cur.NextLeaf()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			cnt, _ := cur.Count()
			for e := 0; e < cnt; {
				k, err := cur.Key(e)
				if err != nil {
					t.Fatal(err)
				}
				v := keyenc.Int64(k)
				if v%3 != 0 || (v >= 5000 && v < 9000) {
					if err := cur.Delete(e); err != nil {
						t.Fatal(err)
					}
					cnt--
				} else {
					e++
				}
			}
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		// The cursor freed the leaves it emptied: the tree is whole before
		// any rebuild.
		mustCheck(t, tr)
		if err := tr.RebuildUpper(reorg); err != nil {
			t.Fatal(err)
		}
		mustCheck(t, tr)
		// Verify contents.
		want := int64(0)
		for v := 0; v < n; v++ {
			if v%3 != 0 || (v >= 5000 && v < 9000) {
				continue
			}
			want++
		}
		if tr.Count() != want {
			t.Fatalf("reorg=%v: count = %d, want %d", reorg, tr.Count(), want)
		}
		for _, v := range []int64{0, 3, 4998, 9003, 19998} {
			if rids, _ := tr.Search(intKey(v)); len(rids) != 1 {
				t.Fatalf("reorg=%v: survivor %d missing", reorg, v)
			}
		}
		for _, v := range []int64{1, 2, 5001, 8997, 19999} {
			if rids, _ := tr.Search(intKey(v)); len(rids) != 0 {
				t.Fatalf("reorg=%v: victim %d present", reorg, v)
			}
		}
		// The tree remains fully usable.
		if err := tr.Insert(intKey(5000), ridFor(5000)); err != nil {
			t.Fatal(err)
		}
		if err := tr.Delete(intKey(5000), ridFor(5000)); err != nil {
			t.Fatal(err)
		}
		mustCheck(t, tr)
		if reorg {
			// Reorganization must shrink the leaf level: count leaves.
			leaves := 0
			pg, err := tr.leftmostLeaf()
			if err != nil {
				t.Fatal(err)
			}
			for pg != sim.InvalidPage {
				fr, err := p.Get(tr.ID(), pg)
				if err != nil {
					t.Fatal(err)
				}
				nd := tr.node(fr.Data())
				pg = nd.right()
				p.Unpin(fr, false)
				leaves++
			}
			// Greedy neighbor merging guarantees every surviving
			// leaf pair exceeds one page, i.e. >= half occupancy
			// on average.
			maxLeaves := int(tr.Count())/127 + 3
			if leaves > maxLeaves {
				t.Fatalf("after reorg %d leaves, want <= %d", leaves, maxLeaves)
			}
		}
	}
}

func TestRebuildAfterTotalDeletion(t *testing.T) {
	p := testPool(256)
	tr, err := Create(p, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := tr.Insert(intKey(int64(i)), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := tr.EditLeavesFrom(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		ok, err := cur.NextLeaf()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		cnt, _ := cur.Count()
		if err := cur.DeleteRange(0, cnt); err != nil {
			t.Fatal(err)
		}
	}
	cur.Close()
	if err := tr.RebuildUpper(true); err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 0 || tr.Height() != 1 {
		t.Fatalf("count=%d height=%d after total deletion", tr.Count(), tr.Height())
	}
	mustCheck(t, tr)
	if err := tr.Insert(intKey(1), ridFor(1)); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, tr)
}

func TestFlushAndOpen(t *testing.T) {
	p := testPool(256)
	tr, err := Create(p, 16, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := tr.Insert(keyenc.Int64Key(int64(i), 16), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	p.InvalidateAll() // simulate losing all volatile state
	tr2, err := Open(p, tr.ID())
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Count() != 3000 || tr2.KeyLen() != 16 || !tr2.Unique() || tr2.Height() != tr.Height() {
		t.Fatalf("reopened tree state wrong: %d/%d/%v/%d",
			tr2.Count(), tr2.KeyLen(), tr2.Unique(), tr2.Height())
	}
	mustCheck(t, tr2)
	if rids, _ := tr2.Search(keyenc.Int64Key(1234, 16)); len(rids) != 1 {
		t.Fatal("search after reopen failed")
	}
	// Open of a non-index file fails.
	hf := p.Disk().CreateFile()
	if _, err := p.Disk().Allocate(hf); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(p, hf); err == nil {
		t.Fatal("Open on a non-index file should fail")
	}
}

func TestWrongKeySizeErrors(t *testing.T) {
	p := testPool(64)
	tr, err := Create(p, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]byte, 4)
	if err := tr.Insert(bad, ridFor(0)); err == nil {
		t.Fatal("short key insert should fail")
	}
	if err := tr.Delete(bad, ridFor(0)); err == nil {
		t.Fatal("short key delete should fail")
	}
	if _, err := tr.Search(bad); err == nil {
		t.Fatal("short key search should fail")
	}
	if err := tr.SearchRange(bad, nil, nil); err == nil {
		t.Fatal("short range bound should fail")
	}
}

// TestQuickTreeAgainstReference drives random operations against a sorted
// reference, verifying contents and invariants, for both policies.
func TestQuickTreeAgainstReference(t *testing.T) {
	run := func(seed int64, policy Policy) bool {
		rng := rand.New(rand.NewSource(seed))
		p := testPool(512)
		tr, err := Create(p, 8, false)
		if err != nil {
			t.Log(err)
			return false
		}
		tr.SetPolicy(policy)
		type ent struct {
			key int64
			rid record.RID
		}
		ref := map[ent]bool{}
		keyspace := int64(500) // force duplicates
		for op := 0; op < 2500; op++ {
			k := rng.Int63n(keyspace)
			e := ent{key: k, rid: ridFor(rng.Intn(200))}
			if rng.Intn(2) == 0 {
				err := tr.Insert(intKey(e.key), e.rid)
				if ref[e] {
					if err == nil {
						t.Logf("duplicate insert of %v accepted", e)
						return false
					}
				} else if err != nil {
					t.Logf("insert %v: %v", e, err)
					return false
				} else {
					ref[e] = true
				}
			} else {
				err := tr.Delete(intKey(e.key), e.rid)
				if ref[e] {
					if err != nil {
						t.Logf("delete %v: %v", e, err)
						return false
					}
					delete(ref, e)
				} else if err != ErrNotFound {
					t.Logf("delete of absent %v: %v", e, err)
					return false
				}
			}
		}
		if tr.Count() != int64(len(ref)) {
			t.Logf("count %d vs ref %d", tr.Count(), len(ref))
			return false
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Log(err)
			return false
		}
		// Full scan must equal the sorted reference.
		var want []ent
		for e := range ref {
			want = append(want, e)
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].key != want[j].key {
				return want[i].key < want[j].key
			}
			return want[i].rid.Less(want[j].rid)
		})
		idx := 0
		err = tr.ScanAll(func(k []byte, rid record.RID) error {
			if idx >= len(want) {
				return fmt.Errorf("scan produced extra entries")
			}
			if keyenc.Int64(k) != want[idx].key || rid != want[idx].rid {
				return fmt.Errorf("scan mismatch at %d", idx)
			}
			idx++
			return nil
		})
		if err != nil {
			t.Log(err)
			return false
		}
		return idx == len(want)
	}
	if err := quick.Check(func(seed int64) bool { return run(seed, FreeAtEmpty) },
		&quick.Config{MaxCount: 6}); err != nil {
		t.Fatalf("free-at-empty: %v", err)
	}
	if err := quick.Check(func(seed int64) bool { return run(seed, MergeAtHalf) },
		&quick.Config{MaxCount: 6}); err != nil {
		t.Fatalf("merge-at-half: %v", err)
	}
}

func TestScanAllUsesSequentialIO(t *testing.T) {
	p := testPool(1024)
	tr, err := Create(p, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	n := 100000
	i := 0
	if err := tr.BulkLoad(func() (Entry, bool, error) {
		if i >= n {
			return Entry{}, false, nil
		}
		e := Entry{Key: intKey(int64(i)), RID: ridFor(i)}
		i++
		return e, true, nil
	}, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	p.InvalidateAll()
	d := p.Disk()
	d.ResetStats()
	if err := tr.ScanAll(func([]byte, record.RID) error { return nil }); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	// ~394 leaves; bulk load allocates them consecutively, so chained
	// runs dominate: positioning charges should be a small fraction.
	if st.RandomOps*10 > st.Reads {
		t.Fatalf("leaf scan: %d positioning charges for %d reads", st.RandomOps, st.Reads)
	}
}

func TestFreeListReuse(t *testing.T) {
	p := testPool(256)
	tr, err := Create(p, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(intKey(int64(i)), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		if err := tr.Delete(intKey(int64(i)), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	free, err := tr.FreePages()
	if err != nil {
		t.Fatal(err)
	}
	if free == 0 {
		t.Fatal("no pages on the free list after draining the tree")
	}
	pages, err := p.Disk().NumPages(tr.ID())
	if err != nil {
		t.Fatal(err)
	}
	// Refilling must reuse freed pages rather than grow the file.
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(intKey(int64(i)), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	pages2, err := p.Disk().NumPages(tr.ID())
	if err != nil {
		t.Fatal(err)
	}
	if pages2 > pages {
		t.Fatalf("file grew from %d to %d pages despite free list", pages, pages2)
	}
	mustCheck(t, tr)
}

func TestSeparatorSample(t *testing.T) {
	p := testPool(512)
	tr, err := Create(p, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	// Single-leaf tree: no separators available.
	if seps, err := tr.SeparatorSample(4); err != nil || seps != nil {
		t.Fatalf("single leaf: %v %v", seps, err)
	}
	n := 50000
	i := 0
	if err := tr.BulkLoad(func() (Entry, bool, error) {
		if i >= n {
			return Entry{}, false, nil
		}
		e := Entry{Key: intKey(int64(i)), RID: ridFor(i)}
		i++
		return e, true, nil
	}, 1.0); err != nil {
		t.Fatal(err)
	}
	seps, err := tr.SeparatorSample(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(seps) != 3 {
		t.Fatalf("got %d separators, want 3", len(seps))
	}
	// Sorted, strictly increasing, and roughly equally spaced.
	prev := int64(-1)
	for k, s := range seps {
		v := keyenc.Int64(s)
		if v <= prev {
			t.Fatalf("separators out of order at %d", k)
		}
		expected := int64(n) * int64(k+1) / 4
		if v < expected/2 || v > expected*2 {
			t.Fatalf("separator %d = %d, expected near %d", k, v, expected)
		}
		prev = v
	}
	// k <= 1 yields nil.
	if seps, _ := tr.SeparatorSample(1); seps != nil {
		t.Fatal("k=1 should yield no separators")
	}
}

// TestLeafCursorFind: Find lands on the first entry at or above the key from
// any start, for keys present, absent, below and above the leaf.
func TestLeafCursorFind(t *testing.T) {
	tr, err := Create(testPool(64), 8, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i += 2 {
		if err := tr.Insert(intKey(i), ridFor(int(i))); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := tr.EditLeavesFrom(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if ok, err := cur.NextLeaf(); !ok || err != nil {
		t.Fatalf("NextLeaf: %v %v", ok, err)
	}
	n, _ := cur.Count()
	for from := 0; from <= n; from += 7 {
		for v := int64(-1); v <= 101; v++ {
			want := max(from, int(min(max(v+1, 0)/2, int64(n))))
			if got := cur.Find(tr.minFullKey(intKey(v)), from); got != want {
				t.Fatalf("Find(%d, from %d) = %d, want %d", v, from, got, want)
			}
		}
	}
}

func TestEditLeavesFrom(t *testing.T) {
	p := testPool(512)
	tr, err := Create(p, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	n := 10000
	i := 0
	if err := tr.BulkLoad(func() (Entry, bool, error) {
		if i >= n {
			return Entry{}, false, nil
		}
		e := Entry{Key: intKey(int64(i)), RID: ridFor(i)}
		i++
		return e, true, nil
	}, 1.0); err != nil {
		t.Fatal(err)
	}
	cur, err := tr.EditLeavesFrom(tr.minFullKey(intKey(5000)), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	ok, err := cur.NextLeaf()
	if err != nil || !ok {
		t.Fatalf("NextLeaf: %v %v", ok, err)
	}
	k, err := cur.Key(0)
	if err != nil {
		t.Fatal(err)
	}
	first := keyenc.Int64(k)
	// The first leaf must cover 5000: its first key <= 5000 and its
	// last key >= 5000 (or the next leaf starts above it).
	if first > 5000 {
		t.Fatalf("cursor started past the target: first key %d", first)
	}
	cnt, _ := cur.Count()
	last, _ := cur.Key(cnt - 1)
	if keyenc.Int64(last) < 5000 {
		t.Fatalf("cursor leaf ends before the target: last key %d", keyenc.Int64(last))
	}
	if _, err := tr.EditLeavesFrom(make([]byte, 4), nil); err == nil {
		t.Fatal("wrong key width accepted")
	}
}

// TestQuickRandomKeyWidths drives trees with random key widths through
// inserts, deletes, and bulk cursor edits against a reference.
func TestQuickRandomKeyWidths(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		keyLen := 8 * (1 + rng.Intn(6)) // 8..48
		p := testPool(512)
		tr, err := Create(p, keyLen, false)
		if err != nil {
			t.Log(err)
			return false
		}
		ref := map[int64]record.RID{}
		for i := 0; i < 1500; i++ {
			v := rng.Int63n(3000)
			r := ridFor(int(v))
			if _, dup := ref[v]; dup {
				continue
			}
			if err := tr.Insert(keyenc.Int64Key(v, keyLen), r); err != nil {
				t.Logf("keyLen=%d insert %d: %v", keyLen, v, err)
				return false
			}
			ref[v] = r
		}
		for v, r := range ref {
			if rng.Intn(3) == 0 {
				if err := tr.Delete(keyenc.Int64Key(v, keyLen), r); err != nil {
					t.Logf("keyLen=%d delete %d: %v", keyLen, v, err)
					return false
				}
				delete(ref, v)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Logf("keyLen=%d: %v", keyLen, err)
			return false
		}
		if tr.Count() != int64(len(ref)) {
			t.Logf("keyLen=%d count %d vs %d", keyLen, tr.Count(), len(ref))
			return false
		}
		for v, r := range ref {
			rids, err := tr.Search(keyenc.Int64Key(v, keyLen))
			if err != nil || len(rids) != 1 || rids[0] != r {
				t.Logf("keyLen=%d search %d: %v %v", keyLen, v, rids, err)
				return false
			}
			break
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestStructuralCheckDetectsDamage(t *testing.T) {
	p := testPool(256)
	tr, err := Create(p, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := tr.Insert(intKey(int64(i)), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.StructuralCheck(); err != nil {
		t.Fatalf("healthy tree flagged: %v", err)
	}
	// Damage the root on disk and drop the cached copy.
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	p.Invalidate(tr.ID())
	junk := make([]byte, sim.PageSize)
	junk[0] = 'F'
	if err := p.Disk().WritePage(tr.ID(), tr.RootPage(), junk); err != nil {
		t.Fatal(err)
	}
	if err := tr.StructuralCheck(); err == nil {
		t.Fatal("damaged tree passed the structural check")
	}
	// ResetEmpty recovers usability.
	if err := tr.ResetEmpty(); err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 0 || tr.Height() != 1 {
		t.Fatalf("reset state: count=%d height=%d", tr.Count(), tr.Height())
	}
	if err := tr.Insert(intKey(1), ridFor(1)); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRecomputeCountRepairsDrift(t *testing.T) {
	p := testPool(64)
	tr, err := Create(p, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := tr.Insert(intKey(int64(i)), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the durable meta count, as a crash whose evicted leaf
	// writes outran the meta-page flush would: reopen sees a stale value.
	tr.count = 123
	if err := tr.writeMeta(); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	p.InvalidateAll()
	re, err := Open(p, tr.ID())
	if err != nil {
		t.Fatal(err)
	}
	if re.Count() != 123 {
		t.Fatalf("reopened count = %d, want the drifted 123", re.Count())
	}
	if err := re.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants should reject the drifted count")
	}
	got, err := re.RecomputeCount()
	if err != nil {
		t.Fatal(err)
	}
	if got != 500 || re.Count() != 500 {
		t.Fatalf("recomputed count = %d / %d, want 500", got, re.Count())
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The repaired count is durable: it survives another reopen.
	if err := re.Flush(); err != nil {
		t.Fatal(err)
	}
	p.InvalidateAll()
	re2, err := Open(p, tr.ID())
	if err != nil {
		t.Fatal(err)
	}
	if re2.Count() != 500 {
		t.Fatalf("count after flush+reopen = %d, want 500", re2.Count())
	}
}
