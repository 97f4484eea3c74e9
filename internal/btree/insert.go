package btree

import (
	"bytes"
	"fmt"

	"bulkdel/internal/record"
	"bulkdel/internal/sim"
)

// Insert adds the entry (key, rid). On a unique index it returns
// ErrDuplicateKey when the key is already present (under any RID).
func (t *Tree) Insert(key []byte, rid record.RID) error {
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

	if pos < n.count() && bytes.Equal(n.fullKey(pos), fk) {
		t.pool.Unpin(fr, false)
		if t.unique {
			return ErrDuplicateKey
		}
		return fmt.Errorf("btree: entry (%x, %s) already present", key, rid)
	}
	if t.unique {
		// Entries with the same key are contiguous in full-key order,
		// so a violation is adjacent to the insert position — possibly
		// across a leaf boundary.
		dup, err := t.uniqueNeighborConflict(fr, pos, key)
		if err != nil {
			t.pool.Unpin(fr, false)
			return err
		}
		if dup {
			t.pool.Unpin(fr, false)
			return ErrDuplicateKey
		}
	}

	if n.count() < n.capacity() {
		n.insertAt(pos)
		if hook := t.Hooks.MidInsert; hook != nil {
			hook()
		}
		n.setLeafEntry(pos, fk)
		t.pool.Unpin(fr, true)
		t.count++
		t.pool.Disk().ChargeRecords(1)
		return nil
	}

	// Split the leaf: keep the left half, move the right half to a new
	// node, link it into the chain, then insert into the proper half.
	newFr, err := t.allocNode()
	if err != nil {
		t.pool.Unpin(fr, false)
		return err
	}
	nn := t.node(newFr.Data())
	nn.init(pageTypeLeaf, 0)
	t.leaves++
	mid := n.count() / 2
	moved := n.count() - mid
	copy(nn.buf[nodeHeaderSize:], n.buf[n.entryOff(mid):n.entryOff(n.count())])
	nn.setCount(moved)
	n.setCount(mid)
	t.pool.Disk().ChargeRecords(moved)

	// Chain: n <-> nn <-> oldRight.
	oldRight := n.right()
	nn.setRight(oldRight)
	nn.setLeft(fr.Page())
	n.setRight(newFr.Page())
	if oldRight != sim.InvalidPage {
		rf, err := t.pool.Get(t.id, oldRight)
		if err != nil {
			t.pool.Unpin(newFr, true)
			t.pool.Unpin(fr, true)
			return err
		}
		t.node(rf.Data()).setLeft(newFr.Page())
		t.pool.Unpin(rf, true)
	}

	// Insert the entry into the correct half.
	if pos <= mid {
		n.insertAt(pos)
		if hook := t.Hooks.MidInsert; hook != nil {
			hook()
		}
		n.setLeafEntry(pos, fk)
	} else {
		p := pos - mid
		nn.insertAt(p)
		if hook := t.Hooks.MidInsert; hook != nil {
			hook()
		}
		nn.setLeafEntry(p, fk)
	}
	sep := make([]byte, t.keyLen+record.RIDSize)
	copy(sep, nn.fullKey(0))
	newPage := newFr.Page()
	leftPage := fr.Page()
	t.pool.Unpin(newFr, true)
	t.pool.Unpin(fr, true)
	t.count++
	t.pool.Disk().ChargeRecords(1)
	return t.insertSeparator(path, leftPage, sep, newPage)
}

// uniqueNeighborConflict checks whether the entry adjacent to the insert
// position (pos in the pinned leaf fr) carries the same key, following
// sibling links when pos is at a leaf boundary.
func (t *Tree) uniqueNeighborConflict(fr frameHandle, pos int, key []byte) (bool, error) {
	n := t.node(fr.Data())
	// Successor side.
	if pos < n.count() {
		if bytes.Equal(n.key(pos), key) {
			return true, nil
		}
	} else if right := n.right(); right != sim.InvalidPage {
		rf, err := t.pool.Get(t.id, right)
		if err != nil {
			return false, err
		}
		rn := t.node(rf.Data())
		dup := rn.count() > 0 && bytes.Equal(rn.key(0), key)
		t.pool.Unpin(rf, false)
		if dup {
			return true, nil
		}
	}
	// Predecessor side.
	if pos > 0 {
		if bytes.Equal(n.key(pos-1), key) {
			return true, nil
		}
	} else if left := n.left(); left != sim.InvalidPage {
		lf, err := t.pool.Get(t.id, left)
		if err != nil {
			return false, err
		}
		ln := t.node(lf.Data())
		dup := ln.count() > 0 && bytes.Equal(ln.key(ln.count()-1), key)
		t.pool.Unpin(lf, false)
		if dup {
			return true, nil
		}
	}
	return false, nil
}

// frameHandle is the minimal frame surface used by helpers, satisfied by
// *buffer.Frame.
type frameHandle interface {
	Data() []byte
	Page() sim.PageNo
}

// insertSeparator inserts (sep -> newChild) into the parent of leftChild,
// splitting upward as needed. path holds the inner steps of the original
// descent; its last element is the immediate parent.
func (t *Tree) insertSeparator(path []pathStep, leftChild sim.PageNo, sep []byte, newChild sim.PageNo) error {
	if len(path) == 0 {
		// leftChild was the root: grow the tree.
		return t.growRoot(leftChild, sep, newChild)
	}
	parentPg := path[len(path)-1].page
	path = path[:len(path)-1]
	fr, err := t.pool.Get(t.id, parentPg)
	if err != nil {
		return err
	}
	n := t.node(fr.Data())
	idx := n.childIndex(leftChild)
	if idx < 0 {
		t.pool.Unpin(fr, false)
		return fmt.Errorf("btree: child %d not under recorded parent %d", leftChild, parentPg)
	}
	if n.count() < n.capacity() {
		n.insertAt(idx + 1)
		n.setInnerEntry(idx+1, sep, newChild)
		t.pool.Unpin(fr, true)
		t.pool.Disk().ChargeRecords(1)
		return nil
	}
	// Split the inner node.
	newFr, err := t.allocNode()
	if err != nil {
		t.pool.Unpin(fr, false)
		return err
	}
	nn := t.node(newFr.Data())
	nn.init(pageTypeInner, n.level())
	mid := n.count() / 2
	moved := n.count() - mid
	copy(nn.buf[nodeHeaderSize:], n.buf[n.entryOff(mid):n.entryOff(n.count())])
	nn.setCount(moved)
	n.setCount(mid)
	t.pool.Disk().ChargeRecords(moved)

	oldRight := n.right()
	nn.setRight(oldRight)
	nn.setLeft(fr.Page())
	n.setRight(newFr.Page())
	if oldRight != sim.InvalidPage {
		rf, err := t.pool.Get(t.id, oldRight)
		if err != nil {
			t.pool.Unpin(newFr, true)
			t.pool.Unpin(fr, true)
			return err
		}
		t.node(rf.Data()).setLeft(newFr.Page())
		t.pool.Unpin(rf, true)
	}

	// Insert the separator into the proper half.
	if idx+1 <= mid {
		n.insertAt(idx + 1)
		n.setInnerEntry(idx+1, sep, newChild)
	} else {
		p := idx + 1 - mid
		nn.insertAt(p)
		nn.setInnerEntry(p, sep, newChild)
	}
	upSep := make([]byte, t.keyLen+record.RIDSize)
	copy(upSep, nn.fullKey(0))
	leftPage := fr.Page()
	newPage := newFr.Page()
	t.pool.Unpin(newFr, true)
	t.pool.Unpin(fr, true)
	t.pool.Disk().ChargeRecords(1)
	return t.insertSeparator(path, leftPage, upSep, newPage)
}

// growRoot replaces the root with a fresh inner node over (oldRoot, sibling).
// The first separator is all-zero: it denotes the root's unbounded lower
// range (−inf), so keys smaller than anything currently stored still route
// into the leftmost subtree without ever producing a stale-high separator.
func (t *Tree) growRoot(oldRoot sim.PageNo, sep []byte, sibling sim.PageNo) error {
	of, err := t.pool.Get(t.id, oldRoot)
	if err != nil {
		return err
	}
	on := t.node(of.Data())
	minSep := make([]byte, t.keyLen+record.RIDSize) // zeros = −inf
	level := on.level() + 1
	t.pool.Unpin(of, false)

	fr, err := t.allocNode()
	if err != nil {
		return err
	}
	n := t.node(fr.Data())
	n.init(pageTypeInner, level)
	n.setCount(2)
	n.setInnerEntry(0, minSep, oldRoot)
	n.setInnerEntry(1, sep, sibling)
	t.root = fr.Page()
	t.height++
	t.pool.Unpin(fr, true)
	t.pool.Disk().ChargeRecords(2)
	return nil
}
