package core

import (
	"errors"
	"testing"

	"bulkdel/internal/btree"
	"bulkdel/internal/buffer"
	"bulkdel/internal/keyenc"
	"bulkdel/internal/wal"
)

// TestSeekingWalkReadsOnlyVictimLeaves: sixteen scattered victims, a forced
// sort/merge delete, every index five times the pool and the pool cold. Each
// index sits on a device of its own, so the device's reads are that index's:
// its walk reads the sixteen leaves that hold a victim plus the inner pages
// its descents pass, not the leaf level.
func TestSeekingWalkReadsOnlyVictimLeaves(t *testing.T) {
	const rows, poolPages = 72000, 48
	pool := testPool(poolPages)
	tgt := makeTarget(t, pool, rows, []int{0, 1}, []bool{true, false})
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pool.InvalidateAll()
	disk := pool.Disk()
	disk.ConfigureDevices(1 + len(tgt.Indexes))
	for i, ix := range tgt.Indexes {
		if err := disk.PlaceFile(ix.Tree.ID(), 1+i); err != nil {
			t.Fatal(err)
		}
	}
	var victims []int64
	for i := int64(0); i < 16; i++ {
		victims = append(victims, i*rows/16+7)
	}
	st, err := Execute(tgt, 0, victims, Options{Method: SortMerge})
	if err != nil || st.Deleted != int64(len(victims)) {
		t.Fatalf("deleted %d of %d: %v", st.Deleted, len(victims), err)
	}
	for i, ix := range tgt.Indexes {
		pages, err := disk.NumPages(ix.Tree.ID())
		if err != nil {
			t.Fatal(err)
		}
		leaves := (rows + ix.Tree.LeafCapacity() - 1) / ix.Tree.LeafCapacity()
		inner := int(pages) - 1 - leaves
		if leaves < 5*poolPages {
			t.Fatalf("%s has %d leaves, under 5× the %d-page pool", ix.Name, leaves, poolPages)
		}
		reads := int(disk.DeviceStats(1 + i).Reads)
		if reads < len(victims) || reads > len(victims)+inner {
			t.Errorf("%s: the walk read %d pages; want its %d victim leaves and at most its %d inner pages (the leaf level is %d)",
				ix.Name, reads, len(victims), inner, leaves)
		}
		if err := ix.Tree.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", ix.Name, err)
		}
	}
}

// TestWalkFreesEmptiedLeaf: a contiguous run of victims empties a stretch of
// the unique index's leaves. The walk frees each as it moves on — the tree
// passes its check and its free list grows — and never rebuilds the inner
// levels, which would have given the tree a new root.
func TestWalkFreesEmptiedLeaf(t *testing.T) {
	pool := testPool(256)
	tgt := makeTarget(t, pool, 20000, []int{0, 1}, []bool{true, false})
	ia := tgt.Indexes[0].Tree
	free0, err := ia.FreePages()
	if err != nil {
		t.Fatal(err)
	}
	root := ia.RootPage()
	var victims []int64
	deleted := map[int64]bool{}
	for v := int64(5000); v < 8000; v++ {
		victims = append(victims, v)
		deleted[v] = true
	}
	if _, err := Execute(tgt, 0, victims, Options{Method: SortMerge}); err != nil {
		t.Fatal(err)
	}
	free1, err := ia.FreePages()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(victims)/ia.LeafCapacity() - 1; free1-free0 < want {
		t.Errorf("free list grew by %d pages; %d victims empty at least %d leaves", free1-free0, len(victims), want)
	}
	if ia.RootPage() != root {
		t.Errorf("root moved from %d to %d: the inner levels were rebuilt", root, ia.RootPage())
	}
	for _, ix := range tgt.Indexes {
		if err := ix.Tree.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", ix.Name, err)
		}
	}
	verifyTarget(t, tgt, deleted, 20000)
}

// TestResumeLeavesNoEmptyLeaf: a contiguous run of victims empties leaves of
// IB, the remaining index, and every victim is checkpointed. The statement
// crashes right after the checkpoint that follows the last victim of such a
// leaf, and recovery finishes it from there. The leaf must be gone: the walk
// freed it before that checkpoint's flush, so the disk never held it empty
// under a parent that still points to it — a resumed walk, which seeks past
// the checkpointed victims, would never enter it again.
func TestResumeLeavesNoEmptyLeaf(t *testing.T) {
	const n, lo, hi = 3000, 1000, 1600
	var victims []int64
	set := map[int64]bool{}
	for v := int64(lo); v < hi; v++ {
		victims = append(victims, v)
		set[v] = true
	}
	setup := func() (*buffer.Pool, *Target, *wal.Log) {
		pool := testPool(2048)
		tgt := makeTarget(t, pool, n, []int{0, 1}, []bool{true, false})
		if err := pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
		return pool, tgt, wal.Create(pool.Disk())
	}
	// The position in IB's victim list of the victim that empties IB's first
	// leaf inside the run (field 1 is 3·field 0).
	_, tgt, _ := setup()
	pos := 0
	forLeaves(t, tgt.Indexes[1].Tree, func(first, last int64) bool {
		if first/3 >= lo && last/3 < hi {
			pos = int(last/3-lo) + 1
			return false
		}
		return true
	})
	if pos == 0 {
		t.Fatal("no leaf of IB lies inside the victim run")
	}
	// The collect, access and heap passes each apply every victim first.
	for failAt := 3*len(victims) + pos; failAt <= 3*len(victims)+pos+2; failAt++ {
		pool, tgt, log := setup()
		_, err := Execute(tgt, 0, victims, Options{
			Method: SortMerge, Log: log, TxID: 5, CheckpointRows: 1, failAfterApplied: failAt,
		})
		if !errors.Is(err, errInjectedCrash) {
			t.Fatalf("failAt=%d: expected injected crash, got %v", failAt, err)
		}
		re := crashAndRecover(t, pool, tgt, log, 0)
		for _, ix := range re.Indexes {
			forLeaves(t, ix.Tree, func(first, last int64) bool {
				if first < 0 && ix.Tree.Height() > 1 {
					t.Errorf("failAt=%d: %s keeps an empty leaf after recovery", failAt, ix.Name)
				}
				return true
			})
		}
		verifyTarget(t, re, set, n)
	}
}

// forLeaves hands f each leaf's first and last key in chain order (−1, −1
// for an empty leaf) until f returns false.
func forLeaves(t *testing.T, tr *btree.Tree, f func(first, last int64) bool) {
	t.Helper()
	cur, err := tr.EditLeavesFrom(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for {
		more, err := cur.NextLeaf()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			return
		}
		cnt, err := cur.Count()
		if err != nil {
			t.Fatal(err)
		}
		first, last := int64(-1), int64(-1)
		if cnt > 0 {
			k0, _ := cur.Key(0)
			kl, _ := cur.Key(cnt - 1)
			first, last = keyenc.Int64(k0), keyenc.Int64(kl)
		}
		if !f(first, last) {
			return
		}
	}
}
