package btree

import (
	"bytes"
	"fmt"

	"bulkdel/internal/buffer"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
)

// Entry is one ⟨key, RID⟩ index entry, used by bulk interfaces.
type Entry struct {
	Key []byte
	RID record.RID
}

// BulkLoad builds the tree bottom-up from entries delivered in (key, RID)
// order by next (which returns ok=false at the end). The tree must be
// empty. fill in (0, 1] sets the leaf/inner fill factor; the experiments
// load at 1.0 like a freshly created index. Bulk loading is the fast half
// of the paper's drop-&-create baseline and the standard way to build the
// benchmark database.
func (t *Tree) BulkLoad(next func() (Entry, bool, error), fill float64) error {
	if t.count != 0 {
		return fmt.Errorf("btree: BulkLoad requires an empty tree (count=%d)", t.count)
	}
	if fill <= 0 || fill > 1 {
		return fmt.Errorf("btree: fill factor %v outside (0,1]", fill)
	}
	leafCap := leafCapacity(t.keyLen)
	target := int(float64(leafCap) * fill)
	if target < 1 {
		target = 1
	}

	// The initial empty root leaf is recycled as the first leaf.
	first := t.root
	curFr, err := t.pool.Get(t.id, first)
	if err != nil {
		return err
	}
	cur := t.node(curFr.Data())
	cur.init(pageTypeLeaf, 0)

	type childRef struct {
		sep  []byte // full key lower bound
		page sim.PageNo
	}
	var leaves []childRef
	fkLen := t.keyLen + record.RIDSize
	// Full keys alternate between two buffers: the entry being placed and
	// the one placed before it, which it must follow.
	fks := [2][]byte{make([]byte, fkLen), make([]byte, fkLen)}
	n := int64(0)
	// The entries placed are charged a leaf at a time; an early return
	// charges those of the leaf it leaves.
	placed := 0
	charge := func() {
		t.pool.Disk().ChargeRecords(placed)
		placed = 0
	}
	defer charge()

	flushLeaf := func() {
		sep := make([]byte, fkLen)
		copy(sep, cur.fullKey(0))
		leaves = append(leaves, childRef{sep: sep, page: curFr.Page()})
	}

	for {
		e, ok, err := next()
		if err != nil {
			t.pool.Unpin(curFr, true)
			return err
		}
		if !ok {
			break
		}
		if len(e.Key) != t.keyLen {
			t.pool.Unpin(curFr, true)
			return fmt.Errorf("btree: bulk load key is %d bytes, tree uses %d", len(e.Key), t.keyLen)
		}
		fk, prev := fks[n%2], fks[(n+1)%2]
		copy(fk, e.Key)
		record.PutRID(fk[t.keyLen:], e.RID)
		if n > 0 {
			if bytes.Compare(prev, fk) >= 0 {
				t.pool.Unpin(curFr, true)
				return fmt.Errorf("btree: bulk load input not strictly ordered at entry %d", n)
			}
			if t.unique && bytes.Equal(prev[:t.keyLen], fk[:t.keyLen]) {
				t.pool.Unpin(curFr, true)
				return ErrDuplicateKey
			}
		}
		if cur.count() >= target {
			// Start a new leaf, chained to the current one.
			charge()
			nf, err := t.allocNode()
			if err != nil {
				t.pool.Unpin(curFr, true)
				return err
			}
			nn := t.node(nf.Data())
			nn.init(pageTypeLeaf, 0)
			nn.setLeft(curFr.Page())
			cur.setRight(nf.Page())
			flushLeaf()
			t.pool.Unpin(curFr, true)
			curFr, cur = nf, nn
		}
		cur.setCount(cur.count() + 1)
		cur.setLeafEntry(cur.count()-1, fk)
		n++
		placed++
	}
	charge()
	flushLeaf()
	t.pool.Unpin(curFr, true)
	t.count = n
	t.leaves = int64(len(leaves))

	refs := make([]innerRef, len(leaves))
	for i, l := range leaves {
		refs[i] = innerRef{sep: l.sep, page: l.page}
	}
	return t.buildInnerLevels(refs, 1, fill)
}

// ResetEmpty reinitializes the tree to a single empty root leaf, abandoning
// whatever structure the file held. It is the first step of rebuilding a
// structurally damaged index after a crash: the old pages — unreachable and
// possibly corrupt — are leaked inside the file (a production system would
// reclaim them with a file-level free-space scan; recovery correctness does
// not depend on it).
func (t *Tree) ResetEmpty() error {
	fr, err := t.pool.NewPage(t.id)
	if err != nil {
		return err
	}
	t.node(fr.Data()).init(pageTypeLeaf, 0)
	t.root = fr.Page()
	t.height = 1
	t.count = 0
	t.leaves = 1
	t.freeHead = sim.InvalidPage
	t.pool.Unpin(fr, true)
	return t.writeMeta()
}

// innerRef describes one child for inner-level construction.
type innerRef struct {
	sep  []byte
	page sim.PageNo
}

// buildInnerLevels constructs inner levels bottom-up over children (in
// order) starting at the given level, and installs the root/height. The
// first separator of every level is forced to all-zero (−inf) so the
// leftmost subtree's lower range is unbounded; see growRoot.
func (t *Tree) buildInnerLevels(children []innerRef, level int, fill float64) error {
	t.height = level
	if len(children) == 1 {
		t.root = children[0].page
		return nil
	}
	children[0].sep = make([]byte, t.keyLen+record.RIDSize) // zeros = −inf
	innerCap := innerCapacity(t.keyLen)
	target := int(float64(innerCap) * fill)
	if target < 2 {
		target = 2
	}
	for len(children) > 1 {
		var parents []innerRef
		var curFr *buffer.Frame
		var cur node
		for i, c := range children {
			if curFr == nil {
				nf, err := t.allocNode()
				if err != nil {
					return err
				}
				nn := t.node(nf.Data())
				nn.init(pageTypeInner, level)
				if len(parents) > 0 {
					// Chain to the previous inner node.
					pf, err := t.pool.Get(t.id, parents[len(parents)-1].page)
					if err != nil {
						t.pool.Unpin(nf, true)
						return err
					}
					t.node(pf.Data()).setRight(nf.Page())
					nn.setLeft(pf.Page())
					t.pool.Unpin(pf, true)
				}
				parents = append(parents, innerRef{sep: c.sep, page: nf.Page()})
				curFr = nf
				cur = nn
			}
			cur.setCount(cur.count() + 1)
			cur.setInnerEntry(cur.count()-1, c.sep, c.page)
			// Close the node at the fill target or at the end of the
			// level, charging its entries. (A trailing node with a
			// single entry is valid; only the root is ever collapsed.)
			if cur.count() >= target || i == len(children)-1 {
				t.pool.Disk().ChargeRecords(cur.count())
				t.pool.Unpin(curFr, true)
				curFr = nil
			}
		}
		children = parents
		level++
		t.height = level
	}
	t.root = children[0].page
	return nil
}
