package btree

import (
	"bytes"
	"fmt"

	"bulkdel/internal/sim"

	"bulkdel/internal/record"
)

// Delete removes the entry (key, rid) using the traditional root-to-leaf
// traversal — the record-at-a-time baseline of the paper. It returns
// ErrNotFound when the entry does not exist. Underfull pages are handled
// according to the tree's Policy.
func (t *Tree) Delete(key []byte, rid record.RID) error {
	if len(key) != t.keyLen {
		return fmt.Errorf("btree: key is %d bytes, tree uses %d", len(key), t.keyLen)
	}
	fk := t.fullKey(key, rid)
	var path []pathStep
	fr, err := t.descendToLeaf(fk, &path)
	if err != nil {
		return err
	}
	n := t.node(fr.Data())
	pos, cmps := n.searchFull(fk)
	t.pool.Disk().ChargeCompares(cmps)
	if pos >= n.count() || !bytes.Equal(n.fullKey(pos), fk) {
		t.pool.Unpin(fr, false)
		return ErrNotFound
	}
	n.removeAt(pos)
	t.count--
	t.pool.Disk().ChargeRecords(1)
	cnt := n.count()
	cap := n.capacity()
	pg := fr.Page()
	t.pool.Unpin(fr, true)

	switch t.policy {
	case MergeAtHalf:
		if cnt < cap/2 && len(path) > 0 {
			return t.rebalance(pg, path)
		}
	default: // FreeAtEmpty
		if cnt == 0 && len(path) > 0 {
			return t.handleEmpty(pg, path)
		}
	}
	return t.maybeCollapseRoot()
}

// spliceOut removes a node from its level's doubly-linked sibling chain.
func (t *Tree) spliceOut(left, right sim.PageNo) error {
	if left != sim.InvalidPage {
		lf, err := t.pool.Get(t.id, left)
		if err != nil {
			return err
		}
		t.node(lf.Data()).setRight(right)
		t.pool.Unpin(lf, true)
	}
	if right != sim.InvalidPage {
		rf, err := t.pool.Get(t.id, right)
		if err != nil {
			return err
		}
		t.node(rf.Data()).setLeft(left)
		t.pool.Unpin(rf, true)
	}
	return nil
}

// handleEmpty implements free-at-empty: the now-empty node pg is spliced
// out of its sibling chain, freed, and its separator removed from the
// parent — repeating up the tree while parents empty out too.
func (t *Tree) handleEmpty(pg sim.PageNo, path []pathStep) error {
	for {
		fr, err := t.pool.Get(t.id, pg)
		if err != nil {
			return err
		}
		n := t.node(fr.Data())
		left, right := n.left(), n.right()
		if n.isLeaf() {
			t.leaves--
		}
		t.pool.Unpin(fr, false)

		if err := t.spliceOut(left, right); err != nil {
			return err
		}
		if err := t.freeNode(pg); err != nil {
			return err
		}

		parentPg := path[len(path)-1].page
		path = path[:len(path)-1]
		pf, err := t.pool.Get(t.id, parentPg)
		if err != nil {
			return err
		}
		pn := t.node(pf.Data())
		idx := pn.childIndex(pg)
		if idx < 0 {
			t.pool.Unpin(pf, false)
			return fmt.Errorf("btree: freed child %d not under recorded parent %d", pg, parentPg)
		}
		if idx == 0 && pn.count() >= 2 {
			// Removing the first child: the next child inherits the
			// node's old lower bound so the separator never exceeds
			// keys that may still be routed into this subtree.
			oldLow := make([]byte, t.keyLen+record.RIDSize)
			copy(oldLow, pn.fullKey(0))
			pn.removeAt(0)
			pn.setInnerKey(0, oldLow)
		} else {
			pn.removeAt(idx)
		}
		t.pool.Disk().ChargeRecords(1)
		cnt := pn.count()
		t.pool.Unpin(pf, true)
		if cnt > 0 || len(path) == 0 {
			break
		}
		pg = parentPg
	}
	return t.maybeCollapseRoot()
}

// rebalance implements merge-at-half: the underfull node pg borrows from or
// merges with a sibling under the same parent, propagating underflow to the
// parent when a merge shrinks it below half.
func (t *Tree) rebalance(pg sim.PageNo, path []pathStep) error {
	parentPg := path[len(path)-1].page
	pf, err := t.pool.Get(t.id, parentPg)
	if err != nil {
		return err
	}
	pn := t.node(pf.Data())
	idx := pn.childIndex(pg)
	if idx < 0 {
		t.pool.Unpin(pf, false)
		return fmt.Errorf("btree: underfull child %d not under recorded parent %d", pg, parentPg)
	}
	nf, err := t.pool.Get(t.id, pg)
	if err != nil {
		t.pool.Unpin(pf, false)
		return err
	}
	n := t.node(nf.Data())
	cap := n.capacity()

	switch {
	case n.count() >= cap/2:
		// Already refilled (can happen on recursive calls); done.
		t.pool.Unpin(nf, false)
		t.pool.Unpin(pf, false)
		return t.maybeCollapseRoot()

	case idx+1 < pn.count():
		// Work with the right sibling under the same parent.
		sib := pn.child(idx + 1)
		sf, err := t.pool.Get(t.id, sib)
		if err != nil {
			t.pool.Unpin(nf, false)
			t.pool.Unpin(pf, false)
			return err
		}
		s := t.node(sf.Data())
		if n.count()+s.count() <= cap {
			// Merge the sibling into n and drop the sibling.
			if n.isLeaf() {
				t.leaves--
			}
			moved := s.count()
			n.appendFrom(s, 0, moved)
			right := s.right()
			n.setRight(right)
			t.pool.Unpin(sf, false)
			if right != sim.InvalidPage {
				rf, err := t.pool.Get(t.id, right)
				if err != nil {
					t.pool.Unpin(nf, true)
					t.pool.Unpin(pf, true)
					return err
				}
				t.node(rf.Data()).setLeft(pg)
				t.pool.Unpin(rf, true)
			}
			if err := t.freeNode(sib); err != nil {
				t.pool.Unpin(nf, true)
				t.pool.Unpin(pf, true)
				return err
			}
			pn.removeAt(idx + 1)
			t.pool.Disk().ChargeRecords(moved + 1)
		} else {
			// Borrow from the front of the sibling.
			k := (s.count() - n.count()) / 2
			if k < 1 {
				k = 1
			}
			n.appendFrom(s, 0, k)
			s.removeRange(0, k)
			pn.setInnerKey(idx+1, s.fullKey(0))
			t.pool.Unpin(sf, true)
			t.pool.Disk().ChargeRecords(k)
		}
		t.pool.Unpin(nf, true)

	case idx > 0:
		// Only a left sibling exists under this parent.
		sib := pn.child(idx - 1)
		sf, err := t.pool.Get(t.id, sib)
		if err != nil {
			t.pool.Unpin(nf, false)
			t.pool.Unpin(pf, false)
			return err
		}
		s := t.node(sf.Data())
		if s.count()+n.count() <= cap {
			// Merge n into the left sibling and drop n.
			if n.isLeaf() {
				t.leaves--
			}
			moved := n.count()
			s.appendFrom(n, 0, moved)
			right := n.right()
			s.setRight(right)
			t.pool.Unpin(nf, false)
			t.pool.Unpin(sf, true)
			if right != sim.InvalidPage {
				rf, err := t.pool.Get(t.id, right)
				if err != nil {
					t.pool.Unpin(pf, true)
					return err
				}
				t.node(rf.Data()).setLeft(sib)
				t.pool.Unpin(rf, true)
			}
			if err := t.freeNode(pg); err != nil {
				t.pool.Unpin(pf, true)
				return err
			}
			pn.removeAt(idx)
			t.pool.Disk().ChargeRecords(moved + 1)
		} else {
			// Borrow from the tail of the left sibling.
			k := (s.count() - n.count()) / 2
			if k < 1 {
				k = 1
			}
			// Shift n's entries right by k, then copy the donors in.
			copy(n.buf[n.entryOff(k):n.entryOff(n.count()+k)], n.buf[n.entryOff(0):n.entryOff(n.count())])
			copy(n.buf[n.entryOff(0):n.entryOff(k)], s.buf[s.entryOff(s.count()-k):s.entryOff(s.count())])
			n.setCount(n.count() + k)
			s.setCount(s.count() - k)
			pn.setInnerKey(idx, n.fullKey(0))
			t.pool.Unpin(sf, true)
			t.pool.Unpin(nf, true)
			t.pool.Disk().ChargeRecords(k)
		}

	default:
		// No sibling under this parent (single child): leave as is.
		t.pool.Unpin(nf, false)
	}

	underfull := pn.count() < pn.capacity()/2
	t.pool.Unpin(pf, true)
	if underfull && len(path) > 1 {
		return t.rebalance(parentPg, path[:len(path)-1])
	}
	return t.maybeCollapseRoot()
}

// maybeCollapseRoot shrinks the tree: an inner root with a single child is
// replaced by that child; an inner root with no children (every leaf was
// freed) is replaced by a fresh empty leaf.
func (t *Tree) maybeCollapseRoot() error {
	for {
		fr, err := t.pool.Get(t.id, t.root)
		if err != nil {
			return err
		}
		n := t.node(fr.Data())
		if n.isLeaf() {
			t.pool.Unpin(fr, false)
			return nil
		}
		switch n.count() {
		case 1:
			child := n.child(0)
			old := t.root
			t.pool.Unpin(fr, false)
			t.root = child
			t.height--
			if err := t.freeNode(old); err != nil {
				return err
			}
			// The promoted node's first separator becomes the root's
			// lower bound and must be −inf (see growRoot).
			cf, err := t.pool.Get(t.id, child)
			if err != nil {
				return err
			}
			cn := t.node(cf.Data())
			if !cn.isLeaf() && cn.count() > 0 {
				cn.setInnerKey(0, make([]byte, t.keyLen+record.RIDSize))
				t.pool.Unpin(cf, true)
			} else {
				t.pool.Unpin(cf, false)
			}
			// Loop: the child might itself be a single-entry inner.
		case 0:
			old := t.root
			t.pool.Unpin(fr, false)
			nf, err := t.allocNode()
			if err != nil {
				return err
			}
			t.node(nf.Data()).init(pageTypeLeaf, 0)
			t.root = nf.Page()
			t.height = 1
			t.leaves = 1
			t.pool.Unpin(nf, true)
			return t.freeNode(old)
		default:
			t.pool.Unpin(fr, false)
			return nil
		}
	}
}
