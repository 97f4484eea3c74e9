package btree

import (
	"bytes"
	"fmt"

	"bulkdel/internal/buffer"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
)

// LeafCursor is the bulk-delete operator's window into the tree: a
// sequential walk over the leaf chain (chained I/O) that can delete entries
// in place. This is the paper's vertical access path — the whole leaf level
// is processed "from the beginning to the end" without ever touching the
// inner nodes, which are rebuilt afterwards by RebuildUpper.
type LeafCursor struct {
	t       *Tree
	fr      *buffer.Frame
	dirty   bool
	next    sim.PageNo
	started bool
	closed  bool
}

// EditLeaves opens a cursor positioned before the first leaf.
func (t *Tree) EditLeaves() (*LeafCursor, error) {
	leftmost, err := t.leftmostLeaf()
	if err != nil {
		return nil, err
	}
	return &LeafCursor{t: t, next: leftmost}, nil
}

// EditLeavesFrom opens a cursor positioned before the leaf whose range
// covers the given key (the lower bound of a range-partitioned bulk delete,
// paper §2.2.2/Figure 5). The caller stops advancing once it sees keys
// beyond its partition.
func (t *Tree) EditLeavesFrom(key []byte) (*LeafCursor, error) {
	if len(key) != t.keyLen {
		return nil, fmt.Errorf("btree: key is %d bytes, tree uses %d", len(key), t.keyLen)
	}
	fr, err := t.descendToLeaf(t.minFullKey(key), nil)
	if err != nil {
		return nil, err
	}
	pg := fr.Page()
	t.pool.Unpin(fr, false)
	return &LeafCursor{t: t, next: pg}, nil
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

// NextLeaf advances to the next leaf in the chain (the leftmost leaf on the
// first call), releasing the previous one. It returns false at the end.
func (c *LeafCursor) NextLeaf() (bool, error) {
	if c.closed {
		return false, fmt.Errorf("btree: cursor is closed")
	}
	if c.fr != nil {
		n := c.t.node(c.fr.Data())
		c.next = n.right()
		c.t.pool.Unpin(c.fr, c.dirty)
		c.fr = nil
		c.dirty = false
	}
	c.started = true
	if c.next == sim.InvalidPage {
		return false, nil
	}
	fr, err := c.t.pool.GetForScan(c.t.id, c.next, buffer.FullRun)
	if err != nil {
		return false, err
	}
	c.fr = fr
	return true, nil
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
	n.removeAt(i)
	c.dirty = true
	c.fr.MarkDirty() // visible to checkpoint flushes while still pinned
	c.t.count--
	c.t.pool.Disk().ChargeRecords(1)
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
	n.removeRange(i, j)
	c.dirty = true
	c.fr.MarkDirty() // visible to checkpoint flushes while still pinned
	c.t.count -= int64(j - i)
	c.t.pool.Disk().ChargeRecords(j - i)
	return nil
}

// Close releases the cursor. The tree's inner levels may now be stale with
// respect to emptied leaves; run RebuildUpper to restore full invariants.
func (c *LeafCursor) Close() {
	if c.fr != nil {
		c.t.pool.Unpin(c.fr, c.dirty)
		c.fr = nil
	}
	c.closed = true
}

// collectInnerPages gathers every inner page by walking each level's
// sibling chain top-down. Must be called while the inner structure is
// still consistent.
func (t *Tree) collectInnerPages() ([]sim.PageNo, error) {
	var out []sim.PageNo
	pg := t.root
	for {
		fr, err := t.pool.Get(t.id, pg)
		if err != nil {
			return nil, err
		}
		n := t.node(fr.Data())
		if n.isLeaf() {
			t.pool.Unpin(fr, false)
			return out, nil
		}
		if n.count() == 0 {
			t.pool.Unpin(fr, false)
			return nil, fmt.Errorf("btree: empty inner node %d while collecting levels", pg)
		}
		nextLevel := n.child(0)
		t.pool.Unpin(fr, false)
		// Walk this whole level via right links.
		for p := pg; p != sim.InvalidPage; {
			f2, err := t.pool.Get(t.id, p)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
			nxt := t.node(f2.Data()).right()
			t.pool.Unpin(f2, false)
			p = nxt
		}
		pg = nextLevel
	}
}

// RebuildUpper restores the tree after a leaf-level bulk delete, following
// the paper's §2.3: empty leaves are reclaimed (free-at-empty), neighboring
// underfull leaves are optionally merged (reorg), and the inner levels are
// rebuilt from the surviving leaf chain, reusing the reclaimed pages.
func (t *Tree) RebuildUpper(reorg bool) error {
	oldInner, err := t.collectInnerPages()
	if err != nil {
		return err
	}
	leftmost, err := t.leftmostLeaf()
	if err != nil {
		return err
	}

	var refs []innerRef
	fkLen := t.keyLen + record.RIDSize
	pg := leftmost
	var total int64
	for pg != sim.InvalidPage {
		fr, err := t.pool.GetForScan(t.id, pg, buffer.FullRun)
		if err != nil {
			return err
		}
		n := t.node(fr.Data())
		next := n.right()
		total += int64(n.count())

		if n.count() == 0 {
			// Free-at-empty: splice the page out and reclaim it.
			left, right := n.left(), n.right()
			t.pool.Unpin(fr, false)
			if err := t.spliceOut(left, right); err != nil {
				return err
			}
			if err := t.freeNode(pg); err != nil {
				return err
			}
			pg = next
			continue
		}

		if reorg && len(refs) > 0 {
			// Merge this leaf into its (surviving) left neighbor when
			// the union fits — the "compact and merge with neighbor
			// pages" clustering of §2.3.
			prevPg := refs[len(refs)-1].page
			pf, err := t.pool.Get(t.id, prevPg)
			if err != nil {
				t.pool.Unpin(fr, false)
				return err
			}
			pn := t.node(pf.Data())
			if pn.count()+n.count() <= pn.capacity() {
				moved := n.count()
				pn.appendFrom(n, 0, moved)
				right := n.right()
				pn.setRight(right)
				t.pool.Unpin(fr, false)
				t.pool.Unpin(pf, true)
				if right != sim.InvalidPage {
					rf, err := t.pool.Get(t.id, right)
					if err != nil {
						return err
					}
					t.node(rf.Data()).setLeft(prevPg)
					t.pool.Unpin(rf, true)
				}
				if err := t.freeNode(pg); err != nil {
					return err
				}
				t.pool.Disk().ChargeRecords(moved)
				pg = next
				continue
			}
			t.pool.Unpin(pf, false)
		}

		sep := make([]byte, fkLen)
		copy(sep, n.fullKey(0))
		refs = append(refs, innerRef{sep: sep, page: pg})
		t.pool.Unpin(fr, false)
		pg = next
	}

	// The walk counted the surviving entries authoritatively; adopt that
	// count. (After a crash the cached count can drift because evicted
	// leaf writes may outrun the flushed meta page; recovery repairs any
	// surviving tree's count with RecomputeCount.)
	t.count = total

	// Build the new inner levels *before* reclaiming the old ones: a
	// crash mid-rebuild then leaves the old (stale but traversable)
	// structure in place instead of a root pointing at freed pages. The
	// old pages are reclaimed afterwards; core.Resume additionally
	// carries a rebuild-from-heap fallback for the residual window.
	if len(refs) == 0 {
		// Every leaf was emptied: the tree is empty again.
		fr, err := t.allocNode()
		if err != nil {
			return err
		}
		t.node(fr.Data()).init(pageTypeLeaf, 0)
		t.root = fr.Page()
		t.height = 1
		t.pool.Unpin(fr, true)
	} else if err := t.buildInnerLevels(refs, 1, 1.0); err != nil {
		return err
	}
	for _, p := range oldInner {
		if err := t.freeNode(p); err != nil {
			return err
		}
	}
	return t.writeMeta()
}
