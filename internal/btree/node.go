// Package btree implements the B⁺-tree variant the paper's experiments run
// on: a B-link organization (nodes on every level carry sibling links, after
// Lehman/Yao) with all ⟨key, RID⟩ entries in the leaves and reference keys
// only in the inner nodes.
//
// The leaf chain is what makes the paper's vertical bulk delete possible:
// "the leaf pages are scanned from the beginning to the end", deleting
// entries in bulk and reorganizing as the scan goes (paper §2.3 / Figure 6):
// a leaf the scan empties is freed, and one whose survivors fit in the leaf
// before it is merged into it, each through the parent's separator, so the
// inner levels stay exact without a rebuild. The traditional root-to-leaf
// record-at-a-time delete — the baseline the paper beats — is implemented
// here too, with the free-at-empty reclamation policy of Johnson & Shasha
// that the paper adopts, and merge-at-half as an ablation alternative.
//
// Entries are ordered by the composite (key, RID) — the paper notes that
// index entries are looked up "by their key (and their RID to distinguish
// duplicate keys)". Keys are fixed-width order-preserving byte strings
// (package keyenc) and the RID encoding is order-preserving too, so the
// composite — called a full key below — is compared with one bytes.Compare.
// Inner separators store full keys as well, which makes every descent
// exact even among duplicates.
package btree

import (
	"bytes"
	"encoding/binary"

	"bulkdel/internal/record"
	"bulkdel/internal/sim"
)

// Page types used inside an index file.
const (
	pageTypeLeaf  = uint8('L')
	pageTypeInner = uint8('I')
	pageTypeFree  = uint8('F')
)

// node header layout (first nodeHeaderSize bytes of a node page):
//
//	offset 0  : uint8  page type ('L' or 'I')
//	offset 1  : uint8  level (0 = leaf)
//	offset 2  : uint16 entry count
//	offset 4  : uint32 right sibling (InvalidPage at the right edge)
//	offset 8  : uint32 left sibling (InvalidPage at the left edge)
//	offset 12 : uint64 page LSN (reserved for the WAL)
const nodeHeaderSize = 20

const (
	offNodeType  = 0
	offNodeLevel = 1
	offNodeCount = 2
	offNodeRight = 4
	offNodeLeft  = 8
	offNodeLSN   = 12
)

// node wraps one pinned page buffer with typed accessors. It carries the
// tree's key length so entry offsets can be computed. A full key is
// keyLen + record.RIDSize bytes: the key followed by the big-endian RID.
type node struct {
	buf    []byte
	keyLen int
}

func (t *Tree) node(buf []byte) node { return node{buf: buf, keyLen: t.keyLen} }

// fkLen returns the full-key width.
func (n node) fkLen() int { return n.keyLen + record.RIDSize }

func (n node) typ() uint8     { return n.buf[offNodeType] }
func (n node) level() int     { return int(n.buf[offNodeLevel]) }
func (n node) isLeaf() bool   { return n.buf[offNodeType] == pageTypeLeaf }
func (n node) count() int     { return int(binary.LittleEndian.Uint16(n.buf[offNodeCount:])) }
func (n node) setCount(c int) { binary.LittleEndian.PutUint16(n.buf[offNodeCount:], uint16(c)) }

func (n node) right() sim.PageNo {
	return sim.PageNo(binary.LittleEndian.Uint32(n.buf[offNodeRight:]))
}

func (n node) setRight(p sim.PageNo) {
	binary.LittleEndian.PutUint32(n.buf[offNodeRight:], uint32(p))
}

func (n node) left() sim.PageNo {
	return sim.PageNo(binary.LittleEndian.Uint32(n.buf[offNodeLeft:]))
}

func (n node) setLeft(p sim.PageNo) {
	binary.LittleEndian.PutUint32(n.buf[offNodeLeft:], uint32(p))
}

func (n node) init(typ uint8, level int) {
	for i := range n.buf[:nodeHeaderSize] {
		n.buf[i] = 0
	}
	n.buf[offNodeType] = typ
	n.buf[offNodeLevel] = uint8(level)
	n.setRight(sim.InvalidPage)
	n.setLeft(sim.InvalidPage)
}

// entrySize returns the byte width of one entry in this node: a full key
// for leaves, a full key plus a child pointer for inner nodes.
func (n node) entrySize() int {
	if n.isLeaf() {
		return n.fkLen()
	}
	return n.fkLen() + 4
}

// capacity returns how many entries fit in this node.
func (n node) capacity() int {
	return (sim.PageSize - nodeHeaderSize) / n.entrySize()
}

// leafCapacity / innerCapacity compute capacities for a given key length
// without a node at hand.
func leafCapacity(keyLen int) int {
	return (sim.PageSize - nodeHeaderSize) / (keyLen + record.RIDSize)
}

func innerCapacity(keyLen int) int {
	return (sim.PageSize - nodeHeaderSize) / (keyLen + record.RIDSize + 4)
}

func (n node) entryOff(i int) int { return nodeHeaderSize + i*n.entrySize() }

// fullKey returns entry i's full key (key ‖ RID), aliased into the page.
func (n node) fullKey(i int) []byte {
	off := n.entryOff(i)
	return n.buf[off : off+n.fkLen()]
}

// key returns entry i's key bytes (aliased into the page buffer).
func (n node) key(i int) []byte {
	off := n.entryOff(i)
	return n.buf[off : off+n.keyLen]
}

// rid returns entry i's RID.
func (n node) rid(i int) record.RID {
	off := n.entryOff(i) + n.keyLen
	return record.GetRID(n.buf[off : off+record.RIDSize])
}

// child returns inner entry i's child page.
func (n node) child(i int) sim.PageNo {
	off := n.entryOff(i) + n.fkLen()
	return sim.PageNo(binary.LittleEndian.Uint32(n.buf[off:]))
}

func (n node) setLeafEntry(i int, fk []byte) {
	off := n.entryOff(i)
	copy(n.buf[off:off+n.fkLen()], fk)
}

func (n node) setInnerEntry(i int, fk []byte, child sim.PageNo) {
	off := n.entryOff(i)
	copy(n.buf[off:off+n.fkLen()], fk)
	binary.LittleEndian.PutUint32(n.buf[off+n.fkLen():], uint32(child))
}

// setInnerKey rewrites only the separator full key of inner entry i.
func (n node) setInnerKey(i int, fk []byte) {
	off := n.entryOff(i)
	copy(n.buf[off:off+n.fkLen()], fk)
}

// insertAt opens a hole at position i (shifting entries right) in a node
// that must have spare capacity. The caller fills the hole.
func (n node) insertAt(i int) {
	es := n.entrySize()
	c := n.count()
	copy(n.buf[n.entryOff(i)+es:n.entryOff(c)+es], n.buf[n.entryOff(i):n.entryOff(c)])
	n.setCount(c + 1)
}

// removeAt deletes entry i, shifting the tail left.
func (n node) removeAt(i int) {
	c := n.count()
	copy(n.buf[n.entryOff(i):], n.buf[n.entryOff(i+1):n.entryOff(c)])
	n.setCount(c - 1)
}

// removeRange deletes entries [i, j), shifting the tail left.
func (n node) removeRange(i, j int) {
	c := n.count()
	copy(n.buf[n.entryOff(i):], n.buf[n.entryOff(j):n.entryOff(c)])
	n.setCount(c - (j - i))
}

// appendFrom copies entries [i, j) of src onto the end of n. Both nodes
// must have the same entry size.
func (n node) appendFrom(src node, i, j int) {
	c := n.count()
	copy(n.buf[n.entryOff(c):], src.buf[src.entryOff(i):src.entryOff(j)])
	n.setCount(c + (j - i))
}

// searchFull returns the position of the first entry with full key >= fk
// and the number of comparisons spent. Works for leaves and inner nodes
// (entry offsets differ but the compared prefix is the full key).
func (n node) searchFull(fk []byte) (pos, cmps int) {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		cmps++
		if bytes.Compare(n.fullKey(mid), fk) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, cmps
}

// searchInner returns the child index to descend for full key fk: the
// largest i with fk_i <= fk, clamped to 0 when fk precedes every separator
// (the leftmost subtree absorbs smaller keys).
func (n node) searchInner(fk []byte) (idx, cmps int) {
	lo, hi := 0, n.count() // find first separator > fk
	for lo < hi {
		mid := (lo + hi) / 2
		cmps++
		if bytes.Compare(n.fullKey(mid), fk) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0, cmps
	}
	return lo - 1, cmps
}

// childIndex finds the position of child page c in an inner node.
func (n node) childIndex(c sim.PageNo) int {
	for i := 0; i < n.count(); i++ {
		if n.child(i) == c {
			return i
		}
	}
	return -1
}
