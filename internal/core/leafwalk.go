package core

import (
	"bytes"
	"errors"
	"sort"

	"bulkdel/internal/btree"
	"bulkdel/internal/keyenc"
	"bulkdel/internal/record"
)

// matcher tells walkLeaves, entry by entry, whether it is looking at a
// victim. Every method reports live = false once the victim list has run
// out, which ends the walk on the spot.
type matcher interface {
	// start is asked once, before the cursor opens: a merge pulls its first
	// victim here, so the list's I/O precedes the descent to the first leaf.
	start() (live bool, err error)
	// test examines the entry whose full key (key ‖ RID) is fk.
	test(fk []byte) (hit, live bool, err error)
	// took is told that the entry test just hit was emitted / deleted.
	took() (live bool, err error)
}

// walkLeaves is the index ⋈̸: the one loop over a tree's leaf chain. It
// enters at the leaf covering from (nil = the leftmost leaf; a resumed pass
// hands the first remaining victim's key, a range partition its lower
// boundary), asks m about every entry, and for a hit that no concurrent
// transaction protected (Options.Undeletable) hands the RID to emit and, if
// del is set, deletes the entry. It returns the number of hits. The walk
// ends with the chain, when m runs out of victims, or — upTo non-nil — at the
// first non-empty leaf whose first key is ≥ upTo, which is still read and
// counted. A protected entry is skipped, not counted, and m.took is not
// told, so it does not consume a merge victim.
//
// The charge model, which TestLeafKernels pins:
//
//	matcher  predicate  victims        per entry              checkpoint (noteApplied)     stops
//	merge    key        sorted 8-byte  1 compare per victim   per victim advanced past     list exhausted: at once
//	                    keys           it is held against †
//	merge    key‖RID    sorted rows    same †                 same, and per hit            same
//	probe    RID        in-memory set  1 record               per hit                      end of chain
//	probe    key‖RID    set of one     1 record               per hit                      upTo, end of chain
//	                    range partition
//
// † advancing the list re-compares the same entry, and that comparison is
// charged too. Every leaf entered costs its page read and one Stmt.AddPages;
// every delete costs the record charge btree.LeafCursor.Delete makes.
func walkLeaves(e *execCtx, ix *IndexRef, from, upTo []byte, m matcher, del bool,
	emit func(record.RID) error) (int64, error) {

	if live, err := m.start(); err != nil || !live {
		return 0, err
	}
	keyLen := ix.Tree.KeyLen()
	var cur *btree.LeafCursor
	var err error
	if from != nil {
		cur, err = ix.Tree.EditLeavesFrom(padKey(from, keyLen))
	} else {
		cur, err = ix.Tree.EditLeaves()
	}
	if err != nil {
		return 0, err
	}
	defer cur.Close()

	var hits int64
	for {
		more, err := cur.NextLeaf()
		if err != nil || !more {
			return hits, err
		}
		e.opts.Stmt.AddPages(1)
		n, err := cur.Count()
		if err != nil {
			return hits, err
		}
		if n > 0 && upTo != nil {
			first, err := cur.Key(0)
			if err != nil {
				return hits, err
			}
			if bytes.Compare(first, upTo) >= 0 {
				return hits, nil
			}
		}
		for i := 0; i < n; {
			fk, err := cur.FullKey(i)
			if err != nil {
				return hits, err
			}
			hit, live, err := m.test(fk)
			if err != nil || !live {
				return hits, err
			}
			if !hit {
				i++
				continue
			}
			rid := record.GetRID(fk[keyLen:])
			if e.undeletable(fk[:keyLen], rid) {
				i++
				continue
			}
			if emit != nil {
				if err := emit(rid); err != nil {
					return hits, err
				}
			}
			if del {
				if err := cur.Delete(i); err != nil {
					return hits, err
				}
				n--
				e.emptiedLeaf = e.emptiedLeaf || n == 0
			} else {
				i++
			}
			hits++
			if live, err := m.took(); err != nil || !live {
				return hits, err
			}
		}
	}
}

// indexJoin is ix's ⋈̸ with a sorted list — victim keys when byKey, key ‖ RID
// rows otherwise — on the arm the plan gave the index: the leaf pass entered
// at from, or the batched probes.
func (e *execCtx) indexJoin(ix *IndexRef, rows rowIter, from []byte, byKey, del bool,
	emit func(record.RID) error) (int64, error) {

	if e.probe[ix] {
		return probeIndex(e, ix, rows, byKey, del, emit)
	}
	m := e.mergeByFullKey(ix, rows)
	if byKey {
		m = e.mergeByKey(ix, rows)
	}
	return walkLeaves(e, ix, from, nil, m, del, emit)
}

// probeIndex is the probe arm of the index ⋈̸: the list a leaf pass would
// merge, applied instead as root-to-leaf operations in key order, so the
// batch shares the resident upper levels and every leaf it revisits and
// reads no leaf without a victim. A victim key is looked up with Tree.Search
// and each of its entries (a key ‖ RID row names its one entry itself) that
// no concurrent transaction protected is handed to emit and, if del is set,
// removed with Tree.Delete — which frees an emptied leaf and keeps the inner
// levels itself, so no RebuildUpper follows. It returns the number of hits.
// An entry already gone is an error unless Options.IgnoreMissing (a resumed
// run re-applying its suffix) says otherwise.
//
// Its row of the charge table above:
//
//	probes  key /    sorted list  the descent's and the leaf    per list row  list exhausted
//	        key‖RID               search's compares per Search
//	                              and per Delete; 1 record per
//	                              entry Search visits
//
// No leaf is read but by a descent; every delete costs the record charge
// Tree.Delete makes. (Stmt.AddPages is not called: the batch cannot tell a
// leaf it revisits from a new one.)
func probeIndex(e *execCtx, ix *IndexRef, rows rowIter, byKey, del bool,
	emit func(record.RID) error) (int64, error) {

	keyLen := ix.Tree.KeyLen()
	var hits int64
	var one [1]record.RID
	for {
		row, ok, err := rows()
		if err != nil || !ok {
			return hits, err
		}
		key, rids := row[:min(len(row), keyLen)], one[:]
		if byKey {
			key = padKey(row, keyLen)
			if rids, err = ix.Tree.Search(key); err != nil {
				return hits, err
			}
		} else {
			one[0] = record.GetRID(row[keyLen:])
		}
		for _, rid := range rids {
			if e.undeletable(key, rid) {
				continue
			}
			if emit != nil {
				if err := emit(rid); err != nil {
					return hits, err
				}
			}
			if del {
				err := ix.Tree.Delete(key, rid)
				if errors.Is(err, btree.ErrNotFound) && e.opts.IgnoreMissing {
					continue
				}
				if err != nil {
					return hits, err
				}
			}
			hits++
		}
		if err := e.noteApplied(ix.Tree.ID(), ix.Tree.Flush); err != nil {
			return hits, err
		}
	}
}

// padKey widens an 8-byte canonical key to the index's key length.
func padKey(k []byte, keyLen int) []byte {
	if len(k) == keyLen {
		return k
	}
	out := make([]byte, keyLen)
	copy(out, k)
	return out
}

// mergeMatcher merges a sorted victim list with the (equally sorted) leaf
// chain. width is what a victim row is compared with: the leading 8 key
// bytes — the access index's ⋈̸ by key, where one victim matches every
// duplicate — or the whole key ‖ RID, the sort/merge plan's per-index ⋈̸
// (Figure 3), where a hit is the one entry the victim names.
type mergeMatcher struct {
	e     *execCtx
	ix    *IndexRef
	rows  rowIter
	width int
	v     []byte // the victim the entries are held against
}

func (e *execCtx) mergeByKey(ix *IndexRef, keys rowIter) *mergeMatcher {
	return &mergeMatcher{e: e, ix: ix, rows: keys, width: keyenc.Int64Width}
}

func (e *execCtx) mergeByFullKey(ix *IndexRef, rows rowIter) *mergeMatcher {
	return &mergeMatcher{e: e, ix: ix, rows: rows, width: ix.Tree.KeyLen() + record.RIDSize}
}

func (m *mergeMatcher) start() (live bool, err error) {
	m.v, live, err = m.rows()
	return live, err
}

// advance checkpoints the victim just finished and pulls the next one.
func (m *mergeMatcher) advance() (bool, error) {
	if err := m.e.noteApplied(m.ix.Tree.ID(), m.ix.Tree.Flush); err != nil {
		return false, err
	}
	return m.start()
}

func (m *mergeMatcher) test(fk []byte) (hit, live bool, err error) {
	for {
		m.e.disk().ChargeCompares(1)
		c := bytes.Compare(fk[:m.width], m.v)
		if c <= 0 {
			return c == 0, true, nil
		}
		// The current victim has no (more) matches.
		if live, err := m.advance(); err != nil || !live {
			return false, false, err
		}
	}
}

func (m *mergeMatcher) took() (bool, error) {
	if m.width < m.ix.Tree.KeyLen()+record.RIDSize {
		return true, nil // by key: the duplicates that follow match too
	}
	return m.advance()
}

// probeMatcher looks every entry up in an in-memory set: the RIDs of the
// deleted records — the hash plan's ⋈̸ by RID (Figure 4; §2.1 notes that
// looking index entries up by RID "might sound counterintuitive" but pays off
// exactly here) — or the key ‖ RID rows of one range partition (Figure 5).
type probeMatcher struct {
	e    *execCtx
	ix   *IndexRef
	rids map[record.RID]struct{}
	rows map[string]struct{} // consulted when rids is nil
}

func (p *probeMatcher) start() (bool, error) { return true, nil }

func (p *probeMatcher) test(fk []byte) (hit, live bool, err error) {
	p.e.disk().ChargeRecords(1) // hash probe
	if p.rids != nil {
		_, hit = p.rids[record.GetRID(fk[p.ix.Tree.KeyLen():])]
	} else {
		_, hit = p.rows[string(fk)]
	}
	return hit, true, nil
}

func (p *probeMatcher) took() (bool, error) {
	return true, p.e.noteApplied(p.ix.Tree.ID(), p.ix.Tree.Flush)
}

// hashOverheadPerEntry approximates the memory cost of one hash-table entry
// (Go map overhead included) for the planner and the partition count.
const hashOverheadPerEntry = 48

// indexDeletePartitioned is the routing step of the hash + range-partitioning
// ⋈̸ of Figure 5 for one index: the ⟨key, RID⟩ rows are split into partitions
// small enough for an in-memory hash table using separator keys sampled from
// the index itself ("I_B and I_C can be range partitioned without any cost
// because the index is clustered by the key"), four compares charged per
// routed row; then each non-empty partition probes only its own leaf range.
// The rows arrive in one or more lists (one per heap job).
func indexDeletePartitioned(e *execCtx, ix *IndexRef, lists []*rowFile) (deleted int64, parts int, err error) {
	fkLen := ix.Tree.KeyLen() + record.RIDSize
	var rows int64
	for _, rf := range lists {
		rows += rf.rows
	}
	need := rows * int64(fkLen+hashOverheadPerEntry)
	k := int(need/int64(e.opts.Memory)) + 1
	boundaries, err := ix.Tree.SeparatorSample(k)
	if err != nil {
		return 0, 0, err
	}
	parts = len(boundaries) + 1

	partFiles := make([]*rowFile, parts)
	defer func() { dropLists(&err, partFiles...) }()
	for i := range partFiles {
		if partFiles[i], err = newRowFileOn(e.disk(), fkLen, e.scratchDev); err != nil {
			return 0, parts, err
		}
	}
	for _, rf := range lists {
		err = rf.iterate(0, func(row []byte) error {
			key := row[:ix.Tree.KeyLen()]
			p := sort.Search(len(boundaries), func(i int) bool {
				return bytes.Compare(boundaries[i], key) > 0
			})
			e.disk().ChargeCompares(4)
			return partFiles[p].append(row)
		})
		if err != nil {
			return 0, parts, err
		}
	}
	for _, pf := range partFiles {
		if err := pf.seal(); err != nil {
			return 0, parts, err
		}
	}

	for p, pf := range partFiles {
		set := make(map[string]struct{})
		err := pf.iterate(0, func(row []byte) error {
			set[string(row)] = struct{}{}
			return nil
		})
		if err != nil {
			return deleted, parts, err
		}
		if len(set) == 0 {
			continue
		}
		var from, upTo []byte
		if p > 0 {
			from = boundaries[p-1]
		}
		if p < len(boundaries) {
			upTo = boundaries[p]
		}
		n, err := walkLeaves(e, ix, from, upTo, &probeMatcher{e: e, ix: ix, rows: set}, true, nil)
		deleted += n
		if err != nil {
			return deleted, parts, err
		}
	}
	return deleted, parts, nil
}

// probeKeys is the read-only ⋈̸ by key: the victim values, sorted, merged
// with ix's leaf chain, every matching entry's RID handed to emit. The walk
// waits for the index to come back online and holds its latch shared — it
// may run while the index's table is at most share-locked, and the latch
// keeps concurrent row inserts from splitting leaves under the cursor (the
// FK-probe race audit test).
func probeKeys(e *execCtx, ix *IndexRef, values []int64, emit func(record.RID) error) error {
	waitOnline(ix)
	it, err := sortedVictims(e, values)
	if err != nil {
		return err
	}
	defer it.Close()
	ix.RLock()
	defer ix.RUnlock()
	if probeCheaper(e.tgt, ix, values, false, e.opts.Memory) {
		e.probe = map[*IndexRef]bool{ix: true}
	}
	_, err = e.indexJoin(ix, it.Next, nil, true, false, emit)
	return err
}
