package btree

import (
	"bytes"
	"fmt"

	"bulkdel/internal/sim"
)

// CheckInvariants validates the whole tree structure. It is used heavily by
// tests and is exported so integration tests and the CLI's `check` command
// can call it. Checked invariants:
//
//   - every node reachable from the root has the expected type and level;
//   - entries within every node are strictly ordered by full key, and so
//     are the entries along the whole leaf chain;
//   - every subtree's entries fall inside the separator range the parent
//     assigns to it (separators are lower bounds; they may be stale-low
//     after deletions, which is harmless, but never too high);
//   - sibling links on every level form a consistent doubly-linked chain
//     that enumerates exactly the children order of the level above;
//   - the entry and leaf counts equal the tree's cached Count and Leaves;
//   - no page is reachable both as a node and via the free list.
func (t *Tree) CheckInvariants() error {
	total, leaves, err := t.structuralCheck()
	if err != nil {
		return err
	}
	if total != t.count {
		return fmt.Errorf("btree: counted %d entries, cached count %d", total, t.count)
	}
	if leaves != t.leaves {
		return fmt.Errorf("btree: counted %d leaves, cached count %d", leaves, t.leaves)
	}
	return nil
}

// StructuralCheck validates the tree's physical structure (node types,
// ordering, separator ranges, sibling chains, free list) without comparing
// the cached counts — which can legitimately drift after a crash.
// Recovery uses it to decide whether a tree survived intact or must be
// rebuilt from the base table.
func (t *Tree) StructuralCheck() error {
	_, _, err := t.structuralCheck()
	return err
}

// RecomputeCount validates the tree structurally, adopts the walked entry
// and leaf counts as authoritative, and persists them to the meta page.
// Recovery calls it on every surviving tree instead of trusting the cached
// header counts: after a crash they can drift, because evicted leaf writes
// may outrun the flushed meta page. Returns the recomputed entry count.
func (t *Tree) RecomputeCount() (int64, error) {
	total, leaves, err := t.structuralCheck()
	if err != nil {
		return 0, err
	}
	t.count, t.leaves = total, leaves
	return total, t.writeMeta()
}

// structuralCheck walks the tree level by level and returns the entries and
// leaves it counted.
func (t *Tree) structuralCheck() (int64, int64, error) {
	type job struct {
		page     sim.PageNo
		level    int
		lowerSep []byte // inclusive lower bound (may be nil for leftmost)
		upperSep []byte // exclusive upper bound (nil for rightmost)
	}
	seen := make(map[sim.PageNo]bool)
	var total, leaves int64
	var chainLast []byte // the last full key met along the leaf chain

	// Level-order walk so sibling chains can be validated per level.
	current := []job{{page: t.root, level: t.height - 1}}
	for len(current) > 0 {
		var nextLevel []job
		// Validate sibling chain: children order across the whole level.
		var prevPage sim.PageNo = sim.InvalidPage
		for i, j := range current {
			if seen[j.page] {
				return 0, 0, fmt.Errorf("btree: page %d reachable twice", j.page)
			}
			seen[j.page] = true
			fr, err := t.pool.Get(t.id, j.page)
			if err != nil {
				return 0, 0, err
			}
			n := t.node(fr.Data())
			fail := func(format string, args ...any) error {
				t.pool.Unpin(fr, false)
				return fmt.Errorf("btree: page %d: %s", j.page, fmt.Sprintf(format, args...))
			}
			if n.level() != j.level {
				return 0, 0, fail("level %d, expected %d", n.level(), j.level)
			}
			if j.level == 0 && !n.isLeaf() {
				return 0, 0, fail("expected leaf, got %q", n.typ())
			}
			if j.level > 0 && n.typ() != pageTypeInner {
				return 0, 0, fail("expected inner, got %q", n.typ())
			}
			// Sibling links.
			if n.left() != prevPage {
				return 0, 0, fail("left link %d, expected %d", n.left(), prevPage)
			}
			if i == len(current)-1 {
				if n.right() != sim.InvalidPage {
					return 0, 0, fail("rightmost node has right link %d", n.right())
				}
			} else if n.right() != current[i+1].page {
				return 0, 0, fail("right link %d, expected %d", n.right(), current[i+1].page)
			}
			prevPage = j.page
			if n.count() > n.capacity() {
				// Guard before touching entries: a corrupt count would
				// index past the page.
				return 0, 0, fail("count %d exceeds capacity %d", n.count(), n.capacity())
			}
			// Entry order and bounds.
			for e := 0; e < n.count(); e++ {
				fk := n.fullKey(e)
				if e > 0 && bytes.Compare(n.fullKey(e-1), fk) >= 0 {
					return 0, 0, fail("entries %d,%d out of order", e-1, e)
				}
				if j.lowerSep != nil && bytes.Compare(fk, j.lowerSep) < 0 {
					return 0, 0, fail("entry %d below the parent separator", e)
				}
				if j.upperSep != nil && bytes.Compare(fk, j.upperSep) >= 0 {
					return 0, 0, fail("entry %d at/above the next separator", e)
				}
			}
			if n.isLeaf() {
				// A torn merge can leave a leaf's entries both appended to
				// its left neighbour and still in place.
				if c := n.count(); c > 0 {
					if chainLast != nil && bytes.Compare(n.fullKey(0), chainLast) <= 0 {
						return 0, 0, fail("first entry not above the previous leaf's last")
					}
					chainLast = append(chainLast[:0], n.fullKey(c-1)...)
				}
				total += int64(n.count())
				leaves++
			} else {
				if n.count() == 0 {
					return 0, 0, fail("empty inner node")
				}
				for e := 0; e < n.count(); e++ {
					child := job{
						page:     n.child(e),
						level:    j.level - 1,
						lowerSep: append([]byte(nil), n.fullKey(e)...),
					}
					if e+1 < n.count() {
						child.upperSep = append([]byte(nil), n.fullKey(e+1)...)
					} else {
						child.upperSep = j.upperSep
					}
					nextLevel = append(nextLevel, child)
				}
			}
			t.pool.Unpin(fr, false)
		}
		current = nextLevel
	}

	// The free list must not intersect reachable pages.
	for p := t.freeHead; p != sim.InvalidPage; {
		if seen[p] {
			return 0, 0, fmt.Errorf("btree: page %d both reachable and free", p)
		}
		fr, err := t.pool.Get(t.id, p)
		if err != nil {
			return 0, 0, err
		}
		n := t.node(fr.Data())
		if n.typ() != pageTypeFree {
			t.pool.Unpin(fr, false)
			return 0, 0, fmt.Errorf("btree: free-list page %d has type %q", p, n.typ())
		}
		nxt := n.right()
		t.pool.Unpin(fr, false)
		p = nxt
	}
	return total, leaves, nil
}
