package btree

import (
	"bytes"
	"fmt"

	"bulkdel/internal/buffer"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
)

// LeafCursor is the bulk-delete operator's window into the tree: a walk
// over the leaf chain that can delete entries in place. This is the paper's
// vertical access path — the leaf level is processed "from the beginning to
// the end" without touching the inner nodes — except that Seek may skip
// ahead to a leaf its caller located (Tree.Locate), so a walk reads only the
// leaves it needs. A leaf the cursor empties is freed on the spot, the way
// Delete frees one under FreeAtEmpty, so the inner levels stay exact and no
// empty leaf ever reaches the disk. With Reorganize the cursor also merges
// as it goes, the §2.3 reorganization: a leaf it leaves folds into the leaf
// it read just before (see mergeIntoPrev).
type LeafCursor struct {
	t      *Tree
	fr     *buffer.Frame
	dirty  bool
	next   sim.PageNo
	runEnd func(sim.PageNo) (sim.PageNo, error)
	closed bool
	// merge is Reorganize's switch. prev is the leaf the walk left last
	// (InvalidPage: none) and prevCount its entries, so the next leaf can
	// fold into it; merged counts the leaves that did.
	merge     bool
	prev      sim.PageNo
	prevCount int
	merged    int
}

// EditLeavesFrom opens a cursor positioned before the leaf whose range covers
// the full key (key ‖ RID) fk — nil: before the first leaf. A leaf NextLeaf
// finds missing from the pool is read in one chained run with the pages after
// it through runEnd(leaf); nil runEnd reads as far as the pool reads ahead.
func (t *Tree) EditLeavesFrom(fk []byte, runEnd func(sim.PageNo) (sim.PageNo, error)) (*LeafCursor, error) {
	c := &LeafCursor{t: t, runEnd: runEnd, prev: sim.InvalidPage}
	var err error
	if fk == nil {
		c.next, err = t.leftmostLeaf()
	} else if len(fk) != t.keyLen+record.RIDSize {
		err = fmt.Errorf("btree: seek key is %d bytes, tree uses %d", len(fk), t.keyLen+record.RIDSize)
	} else {
		c.next, err = t.locate(fk, nil, nil)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Reorganize makes the walk merge underfull leaves as it leaves them: a leaf
// whose entries fit in its left neighbour under the same parent, when the
// walk read that neighbour just before it and reads its right neighbour
// next, is appended to it and freed. A walk that seeks past the leaves
// between its victims meets no such run and reads nothing extra.
func (c *LeafCursor) Reorganize() { c.merge = true }

// Merged returns how many leaves the walk has merged into their neighbours.
func (c *LeafCursor) Merged() int { return c.merged }

// Seek makes leaf the next one NextLeaf reads — unless it is the current
// leaf, which the caller has read already: then the next stays its right
// sibling.
func (c *LeafCursor) Seek(leaf sim.PageNo) {
	if c.fr == nil || leaf != c.fr.Page() {
		c.next = leaf
	}
}

// SeparatorSample returns up to k-1 keys that split the tree's key space
// into roughly equal ranges, taken from the lowest inner level. The hash +
// range-partitioning plan uses them as partition boundaries, which the
// paper notes are free because the index is ordered by its key. Returns
// nil when the tree has no inner level (a root leaf cannot be split).
func (t *Tree) SeparatorSample(k int) ([][]byte, error) {
	if k <= 1 || t.height < 2 {
		return nil, nil
	}
	// Walk the lowest inner level (level 1) collecting child separators.
	pg := t.root
	for {
		fr, err := t.pool.Get(t.id, pg)
		if err != nil {
			return nil, err
		}
		n := t.node(fr.Data())
		if n.level() == 1 {
			t.pool.Unpin(fr, false)
			break
		}
		if n.count() == 0 {
			t.pool.Unpin(fr, false)
			return nil, fmt.Errorf("btree: empty inner node %d", pg)
		}
		child := n.child(0)
		t.pool.Unpin(fr, false)
		pg = child
	}
	var seps [][]byte
	for p := pg; p != sim.InvalidPage; {
		fr, err := t.pool.Get(t.id, p)
		if err != nil {
			return nil, err
		}
		n := t.node(fr.Data())
		for i := 0; i < n.count(); i++ {
			seps = append(seps, append([]byte(nil), n.key(i)...))
		}
		nxt := n.right()
		t.pool.Unpin(fr, false)
		p = nxt
	}
	if len(seps) <= 1 {
		return nil, nil
	}
	// Pick k-1 evenly spaced boundaries, skipping the first separator
	// (the −inf lower bound).
	want := k - 1
	if want > len(seps)-1 {
		want = len(seps) - 1
	}
	out := make([][]byte, 0, want)
	for i := 1; i <= want; i++ {
		idx := i * len(seps) / (want + 1)
		if idx < 1 {
			idx = 1
		}
		if idx >= len(seps) {
			idx = len(seps) - 1
		}
		out = append(out, seps[idx])
	}
	// Deduplicate (possible with heavy duplicates in the key space).
	dedup := out[:0]
	for i, s := range out {
		if i == 0 || bytes.Compare(dedup[len(dedup)-1], s) < 0 {
			dedup = append(dedup, s)
		}
	}
	return dedup, nil
}

// NextLeaf advances to the next leaf — the one the cursor was opened or
// sought at, else the current leaf's right sibling — leaving the current
// one. It returns false at the end of the chain. A leaf that folds into the
// one before it stays pinned until the next is read, so the merge's sibling
// update finds that leaf in the pool instead of reading it alone; any other
// leaf is let go first, as a walk that does not merge lets it go.
func (c *LeafCursor) NextLeaf() (bool, error) {
	if c.closed {
		return false, fmt.Errorf("btree: cursor is closed")
	}
	path, err := c.mergePath()
	if err != nil {
		return false, err
	}
	if path == nil {
		c.leave()
	}
	var fr *buffer.Frame
	if c.next != sim.InvalidPage {
		run := buffer.FullRun
		if c.runEnd != nil {
			upTo, err := c.runEnd(c.next)
			if err != nil {
				return false, err
			}
			run = int(upTo) - int(c.next) + 1
		}
		if fr, err = c.t.pool.GetForScan(c.t.id, c.next, run); err != nil {
			return false, err
		}
	}
	if path != nil {
		if err := c.mergeIntoPrev(path); err != nil {
			if fr != nil {
				c.t.pool.Unpin(fr, false)
			}
			return false, err
		}
	}
	if fr == nil {
		return false, nil
	}
	c.fr = fr
	c.next = c.t.node(fr.Data()).right()
	return true, nil
}

// leave unpins the current leaf. A merging walk remembers it as the leaf to
// fold the next one into, unless the walk emptied and freed it: then the
// leaf before it, whose right link now skips it, stays that leaf.
func (c *LeafCursor) leave() {
	if c.fr == nil {
		return
	}
	if n := c.t.node(c.fr.Data()); c.merge && n.isLeaf() {
		c.prev, c.prevCount = c.fr.Page(), n.count()
	}
	c.release()
}

// mergePath returns the descent path to the current leaf when it folds into
// prev — prev is its left neighbour under the same parent, its entries fit
// there, and the walk goes on to its right neighbour (or it ends the chain)
// — and nil when it does not. So a merge touches only leaves the walk reads
// anyway, and a walk that seeks past the leaves between its victims merges
// nothing and reads what it reads without merging. The descent runs only
// for such a pair.
func (c *LeafCursor) mergePath() ([]pathStep, error) {
	if !c.merge || c.fr == nil || c.prev == sim.InvalidPage {
		return nil, nil
	}
	l := c.t.node(c.fr.Data())
	if l.count() == 0 || l.left() != c.prev || l.right() != c.next || c.prevCount+l.count() > l.capacity() {
		return nil, nil
	}
	var path []pathStep
	leaf, err := c.t.locate(l.fullKey(0), &path, nil)
	if err != nil {
		return nil, err
	}
	if leaf != c.fr.Page() {
		return nil, fmt.Errorf("btree: leaf %d is not where its first key routes (%d)", c.fr.Page(), leaf)
	}
	// The first child of its parent has its left neighbour under another.
	if len(path) == 0 || path[len(path)-1].idx == 0 {
		return nil, nil
	}
	return path, nil
}

// mergeIntoPrev appends the current leaf's entries to prev and frees the
// emptied leaf by the free-at-empty path (handleEmpty): spliced out of the
// chain, its separator dropped from the parent path names, so the inner
// levels stay exact with no rebuild.
func (c *LeafCursor) mergeIntoPrev(path []pathStep) error {
	pf, err := c.t.pool.Get(c.t.id, c.prev)
	if err != nil {
		return err
	}
	l := c.t.node(c.fr.Data())
	moved := l.count()
	c.t.node(pf.Data()).appendFrom(l, 0, moved)
	c.t.pool.Unpin(pf, true)
	l.setCount(0)
	c.dirty = true
	c.prevCount += moved
	c.merged++
	c.t.pool.Disk().ChargeRecords(moved)
	err = c.t.handleEmpty(c.fr.Page(), path)
	c.release()
	return err
}

// Find returns the position of the first entry, from position from on, whose
// full key is at least fk. It gallops — compares the entries from, from+1,
// from+3, from+7, … until one is not below fk — and binary searches the last
// stride, so a key d entries on costs about 2·log₂ d compares, which are
// charged. Off a leaf it returns from.
func (c *LeafCursor) Find(fk []byte, from int) int {
	n, err := c.current()
	if err != nil {
		return from
	}
	cmps := 0
	below := func(i int) bool {
		cmps++
		return bytes.Compare(n.fullKey(i), fk) < 0
	}
	lo, hi := from, from // the entries before lo are below fk
	for step := 1; hi < n.count() && below(hi); step *= 2 {
		lo, hi = hi+1, hi+step
	}
	for hi = min(hi, n.count()); lo < hi; {
		if mid := int(uint(lo+hi) >> 1); below(mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	c.t.pool.Disk().ChargeCompares(cmps)
	return lo
}

// Rightmost reports whether the current leaf ends the chain.
func (c *LeafCursor) Rightmost() bool { return c.fr != nil && c.next == sim.InvalidPage }

// release unpins the current leaf.
func (c *LeafCursor) release() {
	if c.fr != nil {
		c.t.pool.Unpin(c.fr, c.dirty)
		c.fr, c.dirty = nil, false
	}
}

// freeEmptied frees the current leaf, which the delete of the entry whose
// full key is fk just emptied: spliced out of the chain and its separator
// dropped from the parent along the path a descent by fk takes
// (handleEmpty). It runs before the delete returns, so a checkpoint flush
// never writes the leaf empty while its parent still points to it. A root
// leaf stays. The cursor stays on the freed page until it moves on.
func (c *LeafCursor) freeEmptied(fk []byte) error {
	if c.t.height == 1 {
		return nil
	}
	pg := c.fr.Page()
	var path []pathStep
	leaf, err := c.t.locate(fk, &path, nil)
	if err != nil {
		return err
	}
	if leaf != pg {
		return fmt.Errorf("btree: emptied leaf %d is not where its last key routes (%d)", pg, leaf)
	}
	return c.t.handleEmpty(pg, path)
}

func (c *LeafCursor) current() (node, error) {
	if c.fr == nil {
		return node{}, fmt.Errorf("btree: cursor not positioned on a leaf")
	}
	return c.t.node(c.fr.Data()), nil
}

// Page returns the page number of the current leaf.
func (c *LeafCursor) Page() sim.PageNo {
	if c.fr == nil {
		return sim.InvalidPage
	}
	return c.fr.Page()
}

// Count returns the number of entries in the current leaf.
func (c *LeafCursor) Count() (int, error) {
	n, err := c.current()
	if err != nil {
		return 0, err
	}
	return n.count(), nil
}

// Key returns entry i's key in the current leaf. The slice aliases the
// page buffer and is invalidated by any cursor mutation or advance.
func (c *LeafCursor) Key(i int) ([]byte, error) {
	n, err := c.current()
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= n.count() {
		return nil, fmt.Errorf("btree: cursor entry %d out of range (%d)", i, n.count())
	}
	return n.key(i), nil
}

// FullKey returns entry i's full key (key ‖ encoded RID) in the current
// leaf. The slice aliases the page buffer.
func (c *LeafCursor) FullKey(i int) ([]byte, error) {
	n, err := c.current()
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= n.count() {
		return nil, fmt.Errorf("btree: cursor entry %d out of range (%d)", i, n.count())
	}
	return n.fullKey(i), nil
}

// RID returns entry i's RID in the current leaf.
func (c *LeafCursor) RID(i int) (record.RID, error) {
	n, err := c.current()
	if err != nil {
		return record.NilRID, err
	}
	if i < 0 || i >= n.count() {
		return record.NilRID, fmt.Errorf("btree: cursor entry %d out of range (%d)", i, n.count())
	}
	return n.rid(i), nil
}

// Delete removes entry i from the current leaf. Entries after i shift
// down by one.
func (c *LeafCursor) Delete(i int) error {
	n, err := c.current()
	if err != nil {
		return err
	}
	if i < 0 || i >= n.count() {
		return fmt.Errorf("btree: cursor delete %d out of range (%d)", i, n.count())
	}
	var last []byte
	if n.count() == 1 {
		last = append(last, n.fullKey(i)...)
	}
	n.removeAt(i)
	c.dirty = true
	c.fr.MarkDirty() // visible to checkpoint flushes while still pinned
	c.t.count--
	c.t.pool.Disk().ChargeRecords(1)
	if last != nil {
		return c.freeEmptied(last)
	}
	return nil
}

// DeleteRange removes entries [i, j) from the current leaf.
func (c *LeafCursor) DeleteRange(i, j int) error {
	n, err := c.current()
	if err != nil {
		return err
	}
	if i < 0 || j > n.count() || i > j {
		return fmt.Errorf("btree: cursor delete range [%d,%d) out of range (%d)", i, j, n.count())
	}
	if i == j {
		return nil
	}
	var last []byte
	if j-i == n.count() {
		last = append(last, n.fullKey(j-1)...)
	}
	n.removeRange(i, j)
	c.dirty = true
	c.fr.MarkDirty() // visible to checkpoint flushes while still pinned
	c.t.count -= int64(j - i)
	c.t.pool.Disk().ChargeRecords(j - i)
	if last != nil {
		return c.freeEmptied(last)
	}
	return nil
}

// Close releases the cursor.
func (c *LeafCursor) Close() error {
	c.closed = true
	c.release()
	return nil
}
