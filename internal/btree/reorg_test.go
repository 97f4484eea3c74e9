package btree

import (
	"testing"

	"bulkdel/internal/keyenc"
	"bulkdel/internal/sim"
)

// loadedTree bulk-loads keys 0..n-1 at full leaves and flushes, so every
// tree built with the same n has the same pages.
func loadedTree(t *testing.T, pool int, n int) *Tree {
	t.Helper()
	tr, err := Create(testPool(pool), 8, true)
	if err != nil {
		t.Fatal(err)
	}
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
	return tr
}

// levelWidth counts the nodes of one inner level along its sibling chain.
func levelWidth(t *testing.T, tr *Tree, level int) int {
	t.Helper()
	pg := tr.root
	for l := tr.height - 1; l > level; l-- {
		fr, err := tr.pool.Get(tr.id, pg)
		if err != nil {
			t.Fatal(err)
		}
		next := tr.node(fr.Data()).child(0)
		tr.pool.Unpin(fr, false)
		pg = next
	}
	n := 0
	for pg != sim.InvalidPage {
		fr, err := tr.pool.Get(tr.id, pg)
		if err != nil {
			t.Fatal(err)
		}
		pg = tr.node(fr.Data()).right()
		tr.pool.Unpin(fr, false)
		n++
	}
	return n
}

// walkDeleting walks the whole chain with merging on or off and deletes
// every entry whose key victim selects.
func walkDeleting(t *testing.T, tr *Tree, merge bool, victim func(int64) bool) int {
	t.Helper()
	cur, err := tr.EditLeavesFrom(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if merge {
		cur.Reorganize()
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
			k, _ := cur.Key(e)
			if !victim(keyenc.Int64(k)) {
				e++
				continue
			}
			if err := cur.Delete(e); err != nil {
				t.Fatal(err)
			}
			cnt--
		}
	}
	merged := cur.Merged()
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	return merged
}

// TestWalkMergeHalvesLeaves: deleting every other entry from full leaves,
// the merging walk folds each half-full leaf into the one before it, so the
// leaf level halves and the tree stays exact with every survivor findable.
func TestWalkMergeHalvesLeaves(t *testing.T) {
	const n = 60000 // 237 full leaves under two level-1 parents
	tr := loadedTree(t, 1024, n)
	before := tr.Leaves()
	parents := levelWidth(t, tr, 1)
	merged := walkDeleting(t, tr, true, func(v int64) bool { return v%2 == 1 })
	mustCheck(t, tr)
	if got := tr.Leaves(); got != before-int64(merged) || got > before/2+int64(parents) || got < before/2-1 {
		t.Fatalf("leaves %d → %d with %d merged (%d parents): want about half", before, got, merged, parents)
	}
	for v := int64(0); v < n; v++ {
		rids, err := tr.Search(intKey(v))
		if err != nil {
			t.Fatal(err)
		}
		if want := 1 - int(v%2); len(rids) != want {
			t.Fatalf("key %d: %d entries, want %d", v, len(rids), want)
		}
	}
}

// TestWalkMergeStaysUnderOneParent: with one survivor per leaf every
// neighbouring pair fits, yet each level-1 parent keeps one leaf: the first
// child of a parent never folds into the last leaf of the one before.
func TestWalkMergeStaysUnderOneParent(t *testing.T) {
	tr := loadedTree(t, 1024, 60000)
	parents := levelWidth(t, tr, 1)
	if parents < 2 {
		t.Fatalf("setup: %d level-1 parents, want at least 2", parents)
	}
	leafCap := int64(tr.LeafCapacity())
	walkDeleting(t, tr, true, func(v int64) bool { return v%leafCap != 0 })
	mustCheck(t, tr)
	if tr.Leaves() != int64(parents) || levelWidth(t, tr, 1) != parents {
		t.Fatalf("%d leaves under %d parents, want one leaf per parent (%d)",
			tr.Leaves(), levelWidth(t, tr, 1), parents)
	}
}

// TestSparseWalkMergesNothing: a walk that seeks from victim to victim, far
// apart, meets no neighbouring pair, so merging changes nothing it reads,
// writes or charges.
func TestSparseWalkMergesNothing(t *testing.T) {
	run := func(merge bool) (sim.Stats, int) {
		tr := loadedTree(t, 64, 30000)
		tr.pool.Invalidate(tr.id)
		tr.pool.Disk().ResetStats()
		cur, err := tr.EditLeavesFrom(tr.minFullKey(intKey(1000)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if merge {
			cur.Reorganize()
		}
		for _, v := range []int64{1000, 9000, 17001, 25002} {
			leaf, _, err := tr.Locate(tr.fullKey(intKey(v), ridFor(int(v))))
			if err != nil {
				t.Fatal(err)
			}
			cur.Seek(leaf)
			if ok, err := cur.NextLeaf(); !ok || err != nil {
				t.Fatalf("NextLeaf: %v %v", ok, err)
			}
			i := cur.Find(tr.fullKey(intKey(v), ridFor(int(v))), 0)
			if err := cur.Delete(i); err != nil {
				t.Fatal(err)
			}
		}
		merged := cur.Merged()
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		mustCheck(t, tr)
		return tr.pool.Disk().Stats(), merged
	}
	off, _ := run(false)
	on, merged := run(true)
	if merged != 0 || on != off {
		t.Fatalf("merging walk: %d merged, stats %+v; without merging %+v", merged, on, off)
	}
}

// TestTornMergeFailsTheCheck: a crash can write the merged-into leaf with
// its neighbour's entries while the neighbour is still linked; the
// structural check recovery trusts must reject that tree.
func TestTornMergeFailsTheCheck(t *testing.T) {
	tr := loadedTree(t, 64, 1000)
	first, err := tr.leftmostLeaf()
	if err != nil {
		t.Fatal(err)
	}
	pf, err := tr.pool.Get(tr.id, first)
	if err != nil {
		t.Fatal(err)
	}
	p := tr.node(pf.Data())
	lf, err := tr.pool.Get(tr.id, p.right())
	if err != nil {
		t.Fatal(err)
	}
	l := tr.node(lf.Data())
	p.removeRange(l.count(), p.count()) // make room, as the walk's deletes would
	p.appendFrom(l, 0, l.count())
	tr.pool.Unpin(lf, false)
	tr.pool.Unpin(pf, true)
	if _, err := tr.RecomputeCount(); err == nil {
		t.Fatal("a leaf holding its still-linked neighbour's entries passed the structural check")
	}
}
