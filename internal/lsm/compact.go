package lsm

import (
	"fmt"
	"sort"
)

// Leveled compaction with delete-aware scheduling.
//
// Three triggers, checked in order:
//
//  1. L0 pile-up: L0Limit tables in L0 merge (with every overlapping L1
//     table) into L1 — the classic size trigger.
//  2. Level overflow: level i holding more than LevelBase·LevelRatio^(i-1)
//     tables pushes one victim (plus the overlapping slice of level i+1)
//     down. The victim is chosen by a score that weighs tombstone density
//     (Lethe's delete-awareness) alongside size and age, so a
//     delete-laden table goes first.
//  3. Tombstone TTL: any table carrying a point or range tombstone that
//     is TombstoneTTL flush ticks old is force-compacted even if no size
//     trigger fires. This bounds reclamation latency: the space a bulk
//     delete frees is physically recovered within a fixed number of
//     flushes, not "when the size triggers get around to it" (Lethe §4).
//
// Every compaction is atomic through the manifest: the merged output is
// written and flushed first, the manifest commit swaps the level sets,
// and only then are the input files dropped. A crash leaves either the
// old manifest (inputs intact, output an orphan) or the new one (inputs
// orphaned) — never a mix.

// maxTables returns level li's table allowance (li >= 1).
func (t *Tree) maxTables(li int) int {
	n := t.opts.LevelBase
	for i := 1; i < li; i++ {
		n *= t.opts.LevelRatio
	}
	return n
}

// hasTombs reports whether a table carries any tombstone.
func hasTombs(m Meta) bool { return m.Tombs > 0 || m.RangeTombs > 0 }

// score ranks compaction victims: tombstone-dense, old, large first.
func (t *Tree) score(m Meta) float64 {
	tomb := (float64(m.Tombs) + 8*float64(m.RangeTombs)) / (float64(m.Entries) + 1)
	age := float64(t.tick - m.Born)
	return t.opts.TombWeight*tomb + 0.05*age + float64(m.Entries)*1e-6
}

// CompactNow runs at most one triggered compaction; did reports whether
// anything ran. Exported for tests and the crash sweep.
func (t *Tree) CompactNow() (did bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.compactOnceLocked()
}

// CompactAll runs triggered compactions until none fires.
func (t *Tree) CompactAll() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.compactAllLocked()
}

// DrainTombstones compacts until no SSTable carries any tombstone — the
// benchmark's "space fully reclaimed" fixpoint. Each forced round pushes
// the offending table one level down (or rewrites it in place at the
// bottom, where tombstones drop), so the loop terminates.
func (t *Tree) DrainTombstones() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if err := t.compactAllLocked(); err != nil {
			return err
		}
		victim := -1
		for li := len(t.levels) - 1; li >= 0; li-- {
			for _, sst := range t.levels[li] {
				if hasTombs(sst.Meta) {
					victim = li
					break
				}
			}
			if victim >= 0 {
				break
			}
		}
		if victim < 0 {
			return nil
		}
		if victim == 0 {
			if err := t.compactL0Locked(); err != nil {
				return err
			}
			continue
		}
		best, bestScore := -1, 0.0
		for i, sst := range t.levels[victim] {
			if s := t.score(sst.Meta); hasTombs(sst.Meta) && (best == -1 || s > bestScore) {
				best, bestScore = i, s
			}
		}
		if err := t.compactTableLocked(victim, best); err != nil {
			return err
		}
	}
}

// compactAllLocked drains the trigger queue; mu held.
func (t *Tree) compactAllLocked() error {
	for {
		did, err := t.compactOnceLocked()
		if err != nil {
			return err
		}
		if !did {
			return nil
		}
	}
}

// compactOnceLocked fires the highest-priority trigger; mu held.
func (t *Tree) compactOnceLocked() (bool, error) {
	// 1. L0 pile-up.
	if len(t.levels) > 0 && len(t.levels[0]) >= t.opts.L0Limit {
		return true, t.compactL0Locked()
	}
	// 2. Level overflow.
	for li := 1; li < len(t.levels); li++ {
		if len(t.levels[li]) <= t.maxTables(li) {
			continue
		}
		best, bestScore := -1, 0.0
		for i, sst := range t.levels[li] {
			if s := t.score(sst.Meta); best == -1 || s > bestScore {
				best, bestScore = i, s
			}
		}
		return true, t.compactTableLocked(li, best)
	}
	// 3. Tombstone TTL (Lethe's delete-aware trigger).
	for li := range t.levels {
		for i, sst := range t.levels[li] {
			if !hasTombs(sst.Meta) || t.tick-sst.Born < t.opts.TombstoneTTL {
				continue
			}
			if li == 0 {
				return true, t.compactL0Locked()
			}
			return true, t.compactTableLocked(li, i)
		}
	}
	return false, nil
}

// overlaps reports whether a table's key range intersects [lo, hi].
func overlaps(m Meta, lo, hi int64) bool { return m.MinKey <= hi && m.MaxKey >= lo }

// compactL0Locked merges every L0 table and the overlapping slice of L1
// into L1; mu held.
func (t *Tree) compactL0Locked() error {
	if len(t.levels) == 0 || len(t.levels[0]) == 0 {
		return nil
	}
	prev := t.captureLocked()
	inputs := append([]*SSTable(nil), t.levels[0]...)
	lo, hi := inputs[0].MinKey, inputs[0].MaxKey
	for _, sst := range inputs[1:] {
		if sst.MinKey < lo {
			lo = sst.MinKey
		}
		if sst.MaxKey > hi {
			hi = sst.MaxKey
		}
	}
	var keep []*SSTable
	if len(t.levels) > 1 {
		for _, sst := range t.levels[1] {
			if overlaps(sst.Meta, lo, hi) {
				inputs = append(inputs, sst)
			} else {
				keep = append(keep, sst)
			}
		}
	}
	bottom := true
	for li := 2; li < len(t.levels); li++ {
		if len(t.levels[li]) > 0 {
			bottom = false
			break
		}
	}
	out, err := t.mergeLocked(inputs, bottom)
	if err != nil {
		return err
	}
	for len(t.levels) < 2 {
		t.levels = append(t.levels, nil)
	}
	t.levels[0] = nil
	t.levels[1] = insertSorted(keep, out)
	return t.swapCommitLocked(prev, out, inputs)
}

// compactTableLocked pushes levels[li][vi] (plus the overlapping slice of
// li+1) into li+1; at the deepest non-empty level the table is rewritten
// in place instead, with full tombstone drop; mu held.
func (t *Tree) compactTableLocked(li, vi int) error {
	if li <= 0 || li >= len(t.levels) || vi < 0 || vi >= len(t.levels[li]) {
		return fmt.Errorf("lsm: bad compaction victim level=%d index=%d", li, vi)
	}
	victim := t.levels[li][vi]
	prev := t.captureLocked()
	deepest := true
	for lj := li + 1; lj < len(t.levels); lj++ {
		if len(t.levels[lj]) > 0 {
			deepest = false
			break
		}
	}
	if deepest && hasTombs(victim.Meta) {
		// In-place rewrite: no deeper data exists, so every tombstone has
		// done its work and drops here. Only tombstone-bearing victims take
		// this path — it leaves the level's table count unchanged, so a
		// size-triggered compaction must push down instead (or the trigger
		// would re-fire forever).
		out, err := t.mergeLocked([]*SSTable{victim}, true)
		if err != nil {
			return err
		}
		rest := append([]*SSTable(nil), t.levels[li][:vi]...)
		rest = append(rest, t.levels[li][vi+1:]...)
		t.levels[li] = insertSorted(rest, out)
		return t.swapCommitLocked(prev, out, []*SSTable{victim})
	}
	for len(t.levels) <= li+1 {
		t.levels = append(t.levels, nil)
	}
	inputs := []*SSTable{victim}
	var keep []*SSTable
	for _, sst := range t.levels[li+1] {
		if overlaps(sst.Meta, victim.MinKey, victim.MaxKey) {
			inputs = append(inputs, sst)
		} else {
			keep = append(keep, sst)
		}
	}
	bottom := true
	for lj := li + 2; lj < len(t.levels); lj++ {
		if len(t.levels[lj]) > 0 {
			bottom = false
			break
		}
	}
	out, err := t.mergeLocked(inputs, bottom)
	if err != nil {
		return err
	}
	rest := append([]*SSTable(nil), t.levels[li][:vi]...)
	rest = append(rest, t.levels[li][vi+1:]...)
	t.levels[li] = rest
	t.levels[li+1] = insertSorted(keep, out)
	return t.swapCommitLocked(prev, out, inputs)
}

// insertSorted returns keep + out sorted by min key (out may be nil when
// the merge annihilated everything).
func insertSorted(keep []*SSTable, out *SSTable) []*SSTable {
	if out != nil {
		keep = append(keep, out)
	}
	sort.Slice(keep, func(i, j int) bool { return keep[i].MinKey < keep[j].MinKey })
	return keep
}

// swapCommitLocked trims empty trailing levels, rebuilds the range-tombstone
// union (a bottom merge drops its inputs' tombstones), commits the manifest,
// and drops the input files (parked while a snapshot is open); a failed
// commit rolls the swap back to prev so the in-memory tree keeps matching
// the durable manifest. mu held.
func (t *Tree) swapCommitLocked(prev treeState, out *SSTable, inputs []*SSTable) error {
	for len(t.levels) > 0 && len(t.levels[len(t.levels)-1]) == 0 {
		t.levels = t.levels[:len(t.levels)-1]
	}
	t.rtombs = rtombUnion(t.mem.rtombs, t.levels)
	if err := t.commitLocked(); err != nil {
		// Inputs stay live under the old manifest; the merged output is an
		// orphan (same as a crash between build and commit) — drop it
		// best-effort.
		t.restoreLocked(prev)
		if out != nil {
			_ = t.dropFileLocked(out)
		}
		return err
	}
	for _, sst := range inputs {
		if err := t.dropFileLocked(sst); err != nil {
			return err
		}
	}
	return nil
}

// mergeLocked k-way-merges the inputs into one new SSTable: per key the
// highest-seq entry survives; entries shadowed by an input range tombstone
// drop; at the bottom, tombstones themselves drop. Returns nil when the
// merge annihilates everything; mu held.
func (t *Tree) mergeLocked(inputs []*SSTable, bottom bool) (*SSTable, error) {
	var rtombs []RangeTomb
	for _, sst := range inputs {
		rtombs = append(rtombs, sst.rtombs...)
	}
	srcs := make([]*mergeSrc, 0, len(inputs))
	for _, sst := range inputs {
		if sst.Blocks == 0 {
			continue
		}
		it := sst.iter()
		s := &mergeSrc{next: it.next}
		if err := s.advance(); err != nil {
			return nil, err
		}
		srcs = append(srcs, s)
	}
	disk := t.pool.Disk()
	var entries []entry
	for {
		best := -1
		live := 0
		for i, s := range srcs {
			if !s.ok {
				continue
			}
			live++
			if best == -1 || s.cur.key < srcs[best].cur.key ||
				(s.cur.key == srcs[best].cur.key && s.cur.seq > srcs[best].cur.seq) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		disk.ChargeCompares(live)
		win := srcs[best].cur
		for _, s := range srcs {
			for s.ok && s.cur.key == win.key {
				if err := s.advance(); err != nil {
					return nil, err
				}
			}
		}
		if coveredBy(rtombs, win.key, win.seq) {
			continue // shadowed by a range delete in this same merge
		}
		if bottom && win.kind == kindDel {
			continue // nothing deeper left to hide
		}
		entries = append(entries, win)
	}
	outTombs := rtombs
	if bottom {
		outTombs = nil
	}
	if len(entries) == 0 && len(outTombs) == 0 {
		return nil, nil
	}
	return buildSSTable(t.pool, t.pickDeviceLocked(), t.recSize, entries, outTombs, t.tick)
}
