package core

import (
	"bytes"
	"sort"

	"bulkdel/internal/keyenc"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
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

// A seeker is a matcher with keys to seek by — a merge. target is the victim
// the entries are held against, as the smallest full key it matches, and the
// leaf that key routes to; runEnd is the cursor's run rule.
type seeker interface {
	matcher
	target() (fk []byte, leaf sim.PageNo)
	runEnd(p sim.PageNo) (sim.PageNo, error)
}

// walkLeaves is the index ⋈̸: the one loop over a tree's leaf chain. A seeker
// enters at the first victim's leaf, skips within a leaf to the entry its
// victim would be, and once its victim lies past the leaf just read, goes
// on at that victim's leaf; a missed leaf is read in one chained run with
// the pages after it that the next victims need (mergeMatcher.runEnd). So a
// merge reads the leaves that hold a victim and the pages such a run passes
// over, and nothing else. Any other matcher enters at the leaf covering from
// (nil = the leftmost leaf; a range partition's lower boundary) and reads on
// to the end of its range. The walk asks m about the entries, and for a hit
// hands the RID to emit and, if del is set, deletes the entry; a leaf it
// empties is freed as it moves on (btree.LeafCursor). It returns the number
// of hits. The walk ends with the chain, when m runs out of victims, or —
// upTo non-nil — at the first non-empty leaf whose first key is ≥ upTo,
// which is still read and counted.
//
// The charge model, which TestLeafKernels pins:
//
//	matcher  predicate  victims        per entry               checkpoint (noteApplied)     stops
//	merge    key        sorted 8-byte  1 compare per victim    per victim advanced past     list exhausted: at once
//	                    keys           it is held against †
//	merge    key‖RID    sorted rows    same †                  same, and per hit            same
//	probe    RID        in-memory set  1 record                per hit                      end of chain
//	probe    key‖RID    set of one     1 record                per hit                      upTo, end of chain
//	                    range partition
//
// † a merge tests only the entries its victims land on: it gallops from the
// next entry to its victim's (LeafCursor.Find), one compare when that entry
// is the victim's, about 2·log₂ d when it is d entries on; advancing the
// list re-compares the same entry, and that comparison is charged too. Every
// leaf entered costs its page read and one Stmt.AddPages; every delete
// costs the record charge btree.LeafCursor.Delete makes. A merge also pays,
// per leaf it leaves with its victim past the last key, one compare to see
// that, and per victim one compare with the fence of the leaf the victim
// before it routes to, or, past that fence, a descent (Tree.Locate).
func walkLeaves(e *execCtx, ix *IndexRef, from, upTo []byte, m matcher, del bool,
	emit func(record.RID) error) (hits int64, err error) {

	if live, err := m.start(); err != nil || !live {
		return 0, err
	}
	keyLen := ix.Tree.KeyLen()
	if from != nil {
		from = lowerBound(from, keyLen)
	}
	s, seeks := m.(seeker)
	var runEnd func(sim.PageNo) (sim.PageNo, error)
	if seeks {
		from, _ = s.target()
		runEnd = s.runEnd
	}
	cur, err := ix.Tree.EditLeavesFrom(from, runEnd)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := cur.Close(); err == nil {
			err = cerr
		}
	}()

	var last []byte // the current leaf's last full key
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
		last = last[:0]
		if n > 0 {
			k0, err := cur.Key(0)
			if err != nil {
				return hits, err
			}
			if upTo != nil && bytes.Compare(k0, upTo) >= 0 {
				return hits, nil
			}
			lk, err := cur.FullKey(n - 1)
			if err != nil {
				return hits, err
			}
			last = append(last, lk...)
		}
		for i := 0; i < n; {
			if seeks {
				v, _ := s.target()
				if i = cur.Find(v, i); i == n {
					break
				}
			}
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
			if emit != nil {
				if err := emit(record.GetRID(fk[keyLen:])); err != nil {
					return hits, err
				}
			}
			if del {
				if err := cur.Delete(i); err != nil {
					return hits, err
				}
				n--
			} else {
				i++
			}
			hits++
			if live, err := m.took(); err != nil || !live {
				return hits, err
			}
		}
		if !seeks || len(last) == 0 || cur.Rightmost() {
			continue
		}
		// A victim at or below the leaf's last key (a key whose duplicates
		// run on) is in the right sibling, the leaf the cursor reads next
		// anyway; one past it is at its own leaf.
		v, leaf := s.target()
		e.disk().ChargeCompares(1)
		if bytes.Compare(v, last) > 0 {
			cur.Seek(leaf)
		}
	}
}

// indexJoin is ix's ⋈̸ with a sorted list — victim keys when byKey, key ‖ RID
// rows otherwise: the seeking leaf walk with a merge matcher.
func (e *execCtx) indexJoin(ix *IndexRef, rows rowIter, byKey, del bool,
	emit func(record.RID) error) (int64, error) {

	width := ix.Tree.KeyLen() + record.RIDSize
	if byKey {
		width = keyenc.Int64Width
	}
	m := &mergeMatcher{e: e, ix: ix, rows: rows, width: width, touched: map[sim.PageNo]int{}, fence: []byte{}}
	return walkLeaves(e, ix, nil, nil, m, del, emit)
}

// lowerBound widens a key — 8 canonical bytes, the index's key length, or a
// whole key ‖ RID row — to the smallest full key it names.
func lowerBound(k []byte, keyLen int) []byte {
	fk := make([]byte, keyLen+record.RIDSize)
	copy(fk, k)
	return fk
}

// mergeMatcher merges a sorted victim list with the (equally sorted) leaf
// chain. width is what a victim row is compared with: the leading 8 key
// bytes — the access index's ⋈̸ by key, where one victim matches every
// duplicate — or the whole key ‖ RID, the sort/merge plan's per-index ⋈̸
// (Figure 3), where a hit is the one entry the victim names.
//
// It reads the list ahead of the walk, up to what its share of the memory
// budget holds, and locates every victim's leaf as it reads it, so it knows
// which leaves the victims still to come need.
type mergeMatcher struct {
	e     *execCtx
	ix    *IndexRef
	rows  rowIter
	width int
	v     victim   // the victim the entries are held against
	ahead []victim // victims read past v
	// touched counts the victims in ahead per leaf they route to.
	touched map[sim.PageNo]int
	// tail is the leaf the last victim read routes to and fence the key its
	// range ends before (nil: the rightmost leaf; empty: none located yet).
	tail  sim.PageNo
	fence []byte
	done  bool // rows ran dry
}

// victim is one list row as the smallest full key it matches, and its leaf.
type victim struct {
	fk   []byte
	leaf sim.PageNo
}

// fill reads the list until n victims wait past v or it runs dry, locating
// each: one compare when it is below the fence of the leaf the victim before
// it routes to, one descent past it.
func (m *mergeMatcher) fill(n int) error {
	for len(m.ahead) < n && !m.done {
		row, ok, err := m.rows()
		if err != nil {
			return err
		}
		if m.done = !ok; m.done {
			break
		}
		fk := lowerBound(row, m.ix.Tree.KeyLen())
		m.e.disk().ChargeCompares(1)
		if m.fence != nil && bytes.Compare(fk, m.fence) >= 0 {
			if m.tail, m.fence, err = m.ix.Tree.Locate(fk); err != nil {
				return err
			}
		}
		m.ahead = append(m.ahead, victim{fk, m.tail})
		m.touched[m.tail]++
	}
	return nil
}

func (m *mergeMatcher) start() (bool, error) {
	if err := m.fill(1); err != nil || len(m.ahead) == 0 {
		return false, err
	}
	m.v, m.ahead = m.ahead[0], m.ahead[1:]
	m.touched[m.v.leaf]--
	return true, nil
}

func (m *mergeMatcher) target() ([]byte, sim.PageNo) { return m.v.fk, m.v.leaf }

// runEnd is the last page a read of leaf p chains through: the farthest page
// that hops of at most leafGap pages reach from p over leaves the victims
// still to come route to, no farther than the pool reads ahead — the heap
// ⋈̸'s rule (ridLookahead.runEnd), with those leaves for the victims' pages.
// The leaves are known as far as the list is read ahead: up to the memory
// budget's worth of victims.
func (m *mergeMatcher) runEnd(p sim.PageNo) (sim.PageNo, error) {
	if err := m.fill(m.e.opts.Memory / (len(m.v.fk) + hashOverheadPerEntry)); err != nil {
		return p, err
	}
	gap, window := leafGap(m.e.disk().CostModelInUse()), sim.PageNo(m.e.tgt.Pool.ReadAhead())
	upTo := p
	for q := p + 1; q-p < window && q-upTo-1 <= gap; q++ {
		if m.touched[q] > 0 {
			upTo = q
		}
	}
	return upTo, nil
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
		c := bytes.Compare(fk[:m.width], m.v.fk[:m.width])
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
// enters the tree through its gate, waiting for a bulk pass that still owns
// it: the probe may run while the index's table is at most share-locked, and
// the gate keeps concurrent row inserts from splitting leaves under the
// cursor (the FK-probe race audit test).
func probeKeys(e *execCtx, ix *IndexRef, values []int64, emit func(record.RID) error) error {
	it, err := sortedVictims(e, values)
	if err != nil {
		return err
	}
	defer it.Close()
	if ix.Gate != nil {
		ix.Gate.Read()
		defer ix.Gate.ExitRead()
	}
	_, err = e.indexJoin(ix, it.Next, true, false, emit)
	return err
}
