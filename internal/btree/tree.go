package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"bulkdel/internal/buffer"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
)

// Policy selects how the traditional (record-at-a-time) delete reclaims
// underfull leaf pages.
type Policy int

const (
	// FreeAtEmpty reclaims a page only when it becomes completely empty.
	// This is the policy the paper uses in its experiments, following
	// Johnson & Shasha ("why free-at-empty is better than merge-at-half").
	FreeAtEmpty Policy = iota
	// MergeAtHalf rebalances (borrows or merges) when a node drops below
	// half capacity — the textbook algorithm, kept as an ablation.
	MergeAtHalf
)

func (p Policy) String() string {
	switch p {
	case FreeAtEmpty:
		return "free-at-empty"
	case MergeAtHalf:
		return "merge-at-half"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ErrDuplicateKey is returned by Insert on a unique index when the key is
// already present.
var ErrDuplicateKey = errors.New("btree: duplicate key in unique index")

// ErrNotFound is returned by Delete when the entry does not exist.
var ErrNotFound = errors.New("btree: entry not found")

const metaMagic = 0x42545245 // "BTRE"

// meta page layout (page 0):
//
//	offset 0  : uint32 magic
//	offset 4  : uint16 key length
//	offset 6  : uint8  unique flag
//	offset 7  : uint8  reserved
//	offset 8  : uint32 root page
//	offset 12 : uint16 height
//	offset 16 : uint32 free-list head
//	offset 20 : uint64 entry count
const (
	offMetaMagic  = 0
	offMetaKeyLen = 4
	offMetaUnique = 6
	offMetaRoot   = 8
	offMetaHeight = 12
	offMetaFree   = 16
	offMetaCount  = 20
)

// Tree is a B-link tree over a buffer pool. A Tree is not safe for
// concurrent use; the engine serializes access per the paper's concurrency
// scheme (exclusive table lock, indexes taken offline during bulk deletes).
type Tree struct {
	pool     *buffer.Pool
	id       sim.FileID
	keyLen   int
	unique   bool
	policy   Policy
	root     sim.PageNo
	height   int // number of levels; 1 = root is a leaf
	count    int64
	freeHead sim.PageNo

	// Hooks are the tree's test interception points; the zero value (every
	// production tree) has none.
	Hooks Hooks
}

// Hooks lets a test stop a tree operation inside a window no public boundary
// exposes.
type Hooks struct {
	// MidInsert runs between a leaf's entry shift (insertAt) and the write of
	// the new entry (setLeafEntry). In that window the displaced entry
	// transiently appears at two positions, so an unsynchronized concurrent
	// reader can observe a duplicate.
	MidInsert func()
}

// Create makes a new, empty tree with fixed-width keys of keyLen bytes.
func Create(pool *buffer.Pool, keyLen int, unique bool) (*Tree, error) {
	if keyLen < 1 || leafCapacity(keyLen) < 4 || innerCapacity(keyLen) < 4 {
		return nil, fmt.Errorf("btree: unusable key length %d", keyLen)
	}
	id := pool.Disk().CreateFile()
	mf, err := pool.NewPage(id) // meta page 0
	if err != nil {
		return nil, err
	}
	pool.Unpin(mf, true)
	t := &Tree{
		pool:     pool,
		id:       id,
		keyLen:   keyLen,
		unique:   unique,
		root:     sim.InvalidPage,
		height:   0,
		freeHead: sim.InvalidPage,
	}
	// Start with an empty root leaf so the tree is never rootless.
	fr, err := t.allocNode()
	if err != nil {
		return nil, err
	}
	t.node(fr.Data()).init(pageTypeLeaf, 0)
	t.root = fr.Page()
	t.height = 1
	pool.Unpin(fr, true)
	if err := t.writeMeta(); err != nil {
		return nil, err
	}
	return t, nil
}

// Open attaches to an existing tree file.
func Open(pool *buffer.Pool, id sim.FileID) (*Tree, error) {
	fr, err := pool.Get(id, 0)
	if err != nil {
		return nil, err
	}
	defer pool.Unpin(fr, false)
	b := fr.Data()
	if binary.LittleEndian.Uint32(b[offMetaMagic:]) != metaMagic {
		return nil, fmt.Errorf("btree: file %d is not an index file", id)
	}
	return &Tree{
		pool:     pool,
		id:       id,
		keyLen:   int(binary.LittleEndian.Uint16(b[offMetaKeyLen:])),
		unique:   b[offMetaUnique] != 0,
		root:     sim.PageNo(binary.LittleEndian.Uint32(b[offMetaRoot:])),
		height:   int(binary.LittleEndian.Uint16(b[offMetaHeight:])),
		freeHead: sim.PageNo(binary.LittleEndian.Uint32(b[offMetaFree:])),
		count:    int64(binary.LittleEndian.Uint64(b[offMetaCount:])),
	}, nil
}

func (t *Tree) writeMeta() error {
	fr, err := t.pool.Get(t.id, 0)
	if err != nil {
		return err
	}
	b := fr.Data()
	binary.LittleEndian.PutUint32(b[offMetaMagic:], metaMagic)
	binary.LittleEndian.PutUint16(b[offMetaKeyLen:], uint16(t.keyLen))
	if t.unique {
		b[offMetaUnique] = 1
	} else {
		b[offMetaUnique] = 0
	}
	binary.LittleEndian.PutUint32(b[offMetaRoot:], uint32(t.root))
	binary.LittleEndian.PutUint16(b[offMetaHeight:], uint16(t.height))
	binary.LittleEndian.PutUint32(b[offMetaFree:], uint32(t.freeHead))
	binary.LittleEndian.PutUint64(b[offMetaCount:], uint64(t.count))
	t.pool.Unpin(fr, true)
	return nil
}

// ID returns the underlying file ID.
func (t *Tree) ID() sim.FileID { return t.id }

// KeyLen returns the fixed key width in bytes.
func (t *Tree) KeyLen() int { return t.keyLen }

// Unique reports whether the index enforces key uniqueness.
func (t *Tree) Unique() bool { return t.unique }

// Height returns the number of levels (1 = the root is a leaf).
func (t *Tree) Height() int { return t.height }

// RootPage returns the page number of the current root (diagnostics and
// corruption-injection tests).
func (t *Tree) RootPage() sim.PageNo { return t.root }

// Count returns the number of entries.
func (t *Tree) Count() int64 { return t.count }

// Policy returns the active deletion policy.
func (t *Tree) Policy() Policy { return t.policy }

// SetPolicy selects the deletion policy for traditional deletes.
func (t *Tree) SetPolicy(p Policy) { t.policy = p }

// LeafCapacity returns the number of entries per leaf page.
func (t *Tree) LeafCapacity() int { return leafCapacity(t.keyLen) }

// InnerCapacity returns the number of entries per inner page.
func (t *Tree) InnerCapacity() int { return innerCapacity(t.keyLen) }

// fullKey builds the composite (key ‖ RID) search key.
func (t *Tree) fullKey(key []byte, rid record.RID) []byte {
	fk := make([]byte, t.keyLen+record.RIDSize)
	copy(fk, key)
	record.PutRID(fk[t.keyLen:], rid)
	return fk
}

// minFullKey builds the smallest composite for a key (RID zero), used as a
// lower bound when searching by key alone.
func (t *Tree) minFullKey(key []byte) []byte {
	fk := make([]byte, t.keyLen+record.RIDSize)
	copy(fk, key)
	return fk
}

// allocNode hands out a pinned node page, reusing the free list first.
func (t *Tree) allocNode() (*buffer.Frame, error) {
	if t.freeHead != sim.InvalidPage {
		fr, err := t.pool.Get(t.id, t.freeHead)
		if err != nil {
			return nil, err
		}
		n := t.node(fr.Data())
		if n.typ() != pageTypeFree {
			t.pool.Unpin(fr, false)
			return nil, fmt.Errorf("btree: free-list head %d is not a free page", t.freeHead)
		}
		t.freeHead = n.right()
		return fr, nil
	}
	return t.pool.NewPage(t.id)
}

// freeNode returns page p to the tree's free list.
func (t *Tree) freeNode(p sim.PageNo) error {
	fr, err := t.pool.Get(t.id, p)
	if err != nil {
		return err
	}
	n := t.node(fr.Data())
	n.init(pageTypeFree, 0)
	n.setRight(t.freeHead)
	t.freeHead = p
	t.pool.Unpin(fr, true)
	return nil
}

// FreePages counts the pages currently on the free list (test helper).
func (t *Tree) FreePages() (int, error) {
	n := 0
	for p := t.freeHead; p != sim.InvalidPage; {
		fr, err := t.pool.Get(t.id, p)
		if err != nil {
			return 0, err
		}
		p = t.node(fr.Data()).right()
		t.pool.Unpin(fr, false)
		n++
	}
	return n, nil
}

// pathStep records one inner node visited during a descent and the child
// index taken out of it.
type pathStep struct {
	page sim.PageNo
	idx  int
}

// Locate returns the page of the leaf whose range covers the full key fk
// (key ‖ RID) and the fence that range ends before: every full key from fk
// up to the fence routes to the same leaf (nil: the rightmost leaf). The
// descent reads the inner levels only: CPU charges alone while they are
// resident.
func (t *Tree) Locate(fk []byte) (leaf sim.PageNo, fence []byte, err error) {
	leaf, err = t.locate(fk, nil, &fence)
	return leaf, fence, err
}

// locate walks the inner levels from the root to the leaf whose range covers
// fk and returns the leaf's page number without reading the leaf, recording
// the (page, child index) path through the inner nodes when path is non-nil
// and the leaf's fence (see Locate) when fence is.
func (t *Tree) locate(fk []byte, path *[]pathStep, fence *[]byte) (sim.PageNo, error) {
	pg := t.root
	for level := t.height - 1; level > 0; level-- {
		fr, err := t.pool.Get(t.id, pg)
		if err != nil {
			return sim.InvalidPage, err
		}
		n := t.node(fr.Data())
		if typ := n.typ(); typ != pageTypeInner {
			t.pool.Unpin(fr, false)
			return sim.InvalidPage, fmt.Errorf("btree: page %d has type %q in search path", pg, typ)
		}
		idx, cmps := n.searchInner(fk)
		t.pool.Disk().ChargeCompares(cmps)
		if path != nil {
			*path = append(*path, pathStep{page: pg, idx: idx})
		}
		if fence != nil && idx+1 < n.count() {
			*fence = append((*fence)[:0], n.fullKey(idx+1)...)
		}
		child := n.child(idx)
		t.pool.Unpin(fr, false)
		pg = child
	}
	return pg, nil
}

// descendToLeaf is locate that also pins and returns the leaf.
func (t *Tree) descendToLeaf(fk []byte, path *[]pathStep) (*buffer.Frame, error) {
	pg, err := t.locate(fk, path, nil)
	if err != nil {
		return nil, err
	}
	fr, err := t.pool.Get(t.id, pg)
	if err != nil {
		return nil, err
	}
	if n := t.node(fr.Data()); !n.isLeaf() {
		t.pool.Unpin(fr, false)
		return nil, fmt.Errorf("btree: page %d has type %q in search path", pg, n.typ())
	}
	return fr, nil
}

// Search returns the RIDs of every entry with exactly this key, in RID
// order. The key must be keyLen bytes.
func (t *Tree) Search(key []byte) ([]record.RID, error) {
	if len(key) != t.keyLen {
		return nil, fmt.Errorf("btree: key is %d bytes, tree uses %d", len(key), t.keyLen)
	}
	var out []record.RID
	err := t.SearchRange(key, nil, func(k []byte, rid record.RID) error {
		if !bytes.Equal(k, key) {
			return errStopScan
		}
		out = append(out, rid)
		return nil
	})
	if err != nil && err != errStopScan {
		return nil, err
	}
	return out, nil
}

var errStopScan = errors.New("btree: stop scan")

// SearchRange calls fn for every entry with lo <= key and (hi == nil or
// key < hi), in (key, RID) order.
func (t *Tree) SearchRange(lo, hi []byte, fn func(key []byte, rid record.RID) error) error {
	if len(lo) != t.keyLen || (hi != nil && len(hi) != t.keyLen) {
		return fmt.Errorf("btree: range bounds must be %d bytes", t.keyLen)
	}
	fk := t.minFullKey(lo)
	fr, err := t.descendToLeaf(fk, nil)
	if err != nil {
		return err
	}
	n := t.node(fr.Data())
	pos, cmps := n.searchFull(fk)
	t.pool.Disk().ChargeCompares(cmps)
	for {
		n = t.node(fr.Data())
		for ; pos < n.count(); pos++ {
			if hi != nil && bytes.Compare(n.key(pos), hi) >= 0 {
				t.pool.Unpin(fr, false)
				return nil
			}
			t.pool.Disk().ChargeRecords(1)
			if err := fn(n.key(pos), n.rid(pos)); err != nil {
				t.pool.Unpin(fr, false)
				return err
			}
		}
		right := n.right()
		t.pool.Unpin(fr, false)
		if right == sim.InvalidPage {
			return nil
		}
		fr, err = t.pool.Get(t.id, right)
		if err != nil {
			return err
		}
		pos = 0
	}
}

// leftmostLeaf descends to the first leaf of the tree.
func (t *Tree) leftmostLeaf() (sim.PageNo, error) {
	pg := t.root
	for {
		fr, err := t.pool.Get(t.id, pg)
		if err != nil {
			return sim.InvalidPage, err
		}
		n := t.node(fr.Data())
		if n.isLeaf() {
			t.pool.Unpin(fr, false)
			return pg, nil
		}
		if n.count() == 0 {
			t.pool.Unpin(fr, false)
			return sim.InvalidPage, fmt.Errorf("btree: empty inner node %d on leftmost path", pg)
		}
		child := n.child(0)
		t.pool.Unpin(fr, false)
		pg = child
	}
}

// ScanAll calls fn for every entry in (key, RID) order by walking the leaf
// chain with sequential I/O. The key slice is only valid during the call.
func (t *Tree) ScanAll(fn func(key []byte, rid record.RID) error) error {
	pg, err := t.leftmostLeaf()
	if err != nil {
		return err
	}
	for pg != sim.InvalidPage {
		fr, err := t.pool.GetForScan(t.id, pg, buffer.FullRun)
		if err != nil {
			return err
		}
		n := t.node(fr.Data())
		for i := 0; i < n.count(); i++ {
			t.pool.Disk().ChargeRecords(1)
			if err := fn(n.key(i), n.rid(i)); err != nil {
				t.pool.Unpin(fr, false)
				return err
			}
		}
		next := n.right()
		t.pool.Unpin(fr, false)
		pg = next
	}
	return nil
}

// Flush persists the meta page and writes back all dirty pages.
func (t *Tree) Flush() error {
	if err := t.writeMeta(); err != nil {
		return err
	}
	return t.pool.FlushFile(t.id)
}

// Drop discards the index file, mirroring the cheap "drop index" step of
// the drop-&-create baseline.
func (t *Tree) Drop() error {
	return t.pool.DropFile(t.id)
}
