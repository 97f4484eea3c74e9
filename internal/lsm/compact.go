package lsm

import (
	"fmt"
	"math"
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
// A merge streams its surviving entries into tables of at most
// tableEntries entries each, cut at key boundaries, so every level >= 1 is
// a run of key-disjoint tables sorted by key, and the count budgets above
// move one bounded table at a time into only the slice of the next level
// it overlaps. A range tombstone that spans a cut is clipped to each
// output's share of the key space.
//
// Every compaction is atomic through the manifest: the merged outputs are
// written and flushed first, the manifest commit swaps the level sets,
// and only then are the input files dropped. A crash leaves either the
// old manifest (inputs intact, outputs orphans) or the new one (inputs
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

// pickLocked returns the highest-scoring table of level li that eligible
// admits (the first on a tie), or -1 when it admits none; mu held.
func (t *Tree) pickLocked(li int, eligible func(Meta) bool) int {
	best, bestScore := -1, 0.0
	for i, sst := range t.levels[li] {
		if s := t.score(sst.Meta); eligible(sst.Meta) && (best == -1 || s > bestScore) {
			best, bestScore = i, s
		}
	}
	return best
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
// the offending table one level down (or rewrites it in place once
// nothing below overlaps it, and its tombstones drop), so the loop
// terminates.
func (t *Tree) DrainTombstones() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if err := t.compactAllLocked(); err != nil {
			return err
		}
		victim := -1 // the deepest level holding a tombstone
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
		if err := t.compactTableLocked(victim, t.pickLocked(victim, hasTombs)); err != nil {
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
		return true, t.compactTableLocked(li, t.pickLocked(li, func(Meta) bool { return true }))
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

// tableEntries bounds the entries one compaction output holds. A level-1
// table takes LevelRatio L0 compactions' worth of memtables
// (MemLimit·L0Limit·LevelRatio, 4,096 entries at the defaults), so level i
// holds at most LevelBase·LevelRatio^(i-1) tables of at most this size.
func (t *Tree) tableEntries() int { return t.opts.MemLimit * t.opts.L0Limit * t.opts.LevelRatio }

// overlaps reports whether a table's key range intersects [lo, hi].
func overlaps(m Meta, lo, hi int64) bool { return m.MinKey <= hi && m.MaxKey >= lo }

// overlapsAny reports whether any table of runs overlaps [lo, hi]. Each run
// is sorted by min key and key-disjoint, as every level >= 1 is, so one
// binary search per run finds its only candidate.
func overlapsAny(runs [][]*SSTable, lo, hi int64) bool {
	for _, run := range runs {
		i := sort.Search(len(run), func(i int) bool { return run[i].MaxKey >= lo })
		if i < len(run) && run[i].MinKey <= hi {
			return true
		}
	}
	return false
}

// split divides a level into the tables overlapping [lo, hi] — a contiguous
// run, the level being sorted and key-disjoint — and the rest.
func split(lvl []*SSTable, lo, hi int64) (in, keep []*SSTable) {
	for _, sst := range lvl {
		if overlaps(sst.Meta, lo, hi) {
			in = append(in, sst)
		} else {
			keep = append(keep, sst)
		}
	}
	return in, keep
}

// compactL0Locked merges every L0 table and the overlapping slice of L1
// into L1; mu held.
func (t *Tree) compactL0Locked() error {
	if len(t.levels) == 0 || len(t.levels[0]) == 0 {
		return nil
	}
	prev := t.captureLocked()
	l0 := t.levels[0]
	lo, hi := l0[0].MinKey, l0[0].MaxKey
	runs := make([][]*SSTable, 0, len(l0)+1)
	for _, sst := range l0 {
		lo, hi = min(lo, sst.MinKey), max(hi, sst.MaxKey)
		runs = append(runs, []*SSTable{sst}) // L0 tables overlap: one run each
	}
	for len(t.levels) < 2 {
		t.levels = append(t.levels, nil)
	}
	in, keep := split(t.levels[1], lo, hi)
	t.levels[0] = nil
	return t.compactLocked(prev, append(runs, in), append([][]*SSTable{keep}, t.levels[2:]...), 1, keep)
}

// compactTableLocked pushes levels[li][vi] (plus the overlapping slice of
// li+1) into li+1. A tombstone-bearing victim that no deeper table overlaps
// is rewritten in place instead: every tombstone it carries has done its
// work and drops. Only such victims take that path — it leaves the level's
// table count unchanged, so a size-triggered compaction must push down
// instead (or the trigger would re-fire forever); mu held.
func (t *Tree) compactTableLocked(li, vi int) error {
	if li <= 0 || li >= len(t.levels) || vi < 0 || vi >= len(t.levels[li]) {
		return fmt.Errorf("lsm: bad compaction victim level=%d index=%d", li, vi)
	}
	victim := t.levels[li][vi]
	prev := t.captureLocked()
	rest := append([]*SSTable(nil), t.levels[li][:vi]...)
	rest = append(rest, t.levels[li][vi+1:]...)
	if hasTombs(victim.Meta) && !overlapsAny(t.levels[li+1:], victim.MinKey, victim.MaxKey) {
		return t.compactLocked(prev, [][]*SSTable{{victim}}, append([][]*SSTable{rest}, t.levels[li+1:]...), li, rest)
	}
	for len(t.levels) <= li+1 {
		t.levels = append(t.levels, nil)
	}
	in, keep := split(t.levels[li+1], victim.MinKey, victim.MaxKey)
	t.levels[li] = rest
	return t.compactLocked(prev, [][]*SSTable{{victim}, in}, append([][]*SSTable{keep}, t.levels[li+2:]...), li+1, keep)
}

// compactLocked merges runs into level out, which becomes keep plus the
// outputs, and commits the swap; others are the tables outside the inputs
// at level out and below (see mergeLocked). A failed merge rolls the tree
// back to prev; mu held.
func (t *Tree) compactLocked(prev treeState, runs, others [][]*SSTable, out int, keep []*SSTable) error {
	outs, err := t.mergeLocked(runs, others)
	if err != nil {
		t.restoreLocked(prev)
		return err
	}
	t.levels[out] = insertSorted(keep, outs)
	var inputs []*SSTable
	for _, run := range runs {
		inputs = append(inputs, run...)
	}
	return t.swapCommitLocked(prev, outs, inputs)
}

// insertSorted returns keep + outs sorted by min key.
func insertSorted(keep, outs []*SSTable) []*SSTable {
	lvl := append(append([]*SSTable(nil), keep...), outs...)
	sort.Slice(lvl, func(i, j int) bool { return lvl[i].MinKey < lvl[j].MinKey })
	return lvl
}

// swapCommitLocked trims empty trailing levels, rebuilds the range-tombstone
// union (a merge drops the tombstones nothing below needs), commits the
// manifest, and drops the input files (parked while a snapshot is open); a
// failed commit rolls the swap back to prev so the in-memory tree keeps
// matching the durable manifest. mu held.
func (t *Tree) swapCommitLocked(prev treeState, outs, inputs []*SSTable) error {
	for len(t.levels) > 0 && len(t.levels[len(t.levels)-1]) == 0 {
		t.levels = t.levels[:len(t.levels)-1]
	}
	t.rtombs = rtombUnion(t.mem.rtombs, t.levels)
	if err := t.commitLocked(); err != nil {
		// Inputs stay live under the old manifest; the merged outputs are
		// orphans (same as a crash between build and commit) — drop them
		// best-effort.
		t.restoreLocked(prev)
		t.dropAllLocked(outs)
		return err
	}
	for _, sst := range inputs {
		if err := t.dropFileLocked(sst); err != nil {
			return err
		}
	}
	return nil
}

// dropAllLocked drops files no manifest references, best-effort; mu held.
func (t *Tree) dropAllLocked(ssts []*SSTable) {
	for _, sst := range ssts {
		_ = t.dropFileLocked(sst)
	}
}

// hiddenBy reports whether a range tombstone of rts hides every entry of a
// table: newer than all of it, and spanning its whole key range.
func hiddenBy(rts []RangeTomb, m Meta) bool {
	for _, rt := range rts {
		if rt.Seq > m.MaxSeq && rt.Lo <= m.MinKey && m.MaxKey <= rt.Hi {
			return true
		}
	}
	return false
}

// clip returns the parts of rts inside [lo, hi].
func clip(rts []RangeTomb, lo, hi int64) []RangeTomb {
	var out []RangeTomb
	for _, rt := range rts {
		if rt.Hi >= lo && rt.Lo <= hi {
			out = append(out, RangeTomb{Lo: max(rt.Lo, lo), Hi: min(rt.Hi, hi), Seq: rt.Seq})
		}
	}
	return out
}

// mergeLocked k-way-merges runs — each one L0 table or a level's
// key-disjoint slice — and streams the survivors into new tables of at most
// tableEntries entries, cut between keys: per key the highest-seq entry
// survives, and entries an input range tombstone hides drop. A tombstone
// drops too once no table of others (the tables outside the inputs at the
// output level and below) overlaps it, for then nothing it could hide is
// left. A range tombstone kept across a cut is clipped to each output's
// share of the key space, so the outputs stay key-disjoint. An input whose
// every entry a newer input range tombstone hides is dropped without
// reading a block; its own tombstones are older and narrower, so they go
// too. Returns the outputs in key order (none when the merge annihilates
// everything); on error the outputs already built are dropped. mu held.
func (t *Tree) mergeLocked(runs, others [][]*SSTable) ([]*SSTable, error) {
	var all []RangeTomb
	for _, run := range runs {
		for _, sst := range run {
			all = append(all, sst.rtombs...)
		}
	}
	var rtombs []RangeTomb // the surviving inputs' tombstones
	srcs := make([]func() (entry, bool, error), 0, len(runs))
	for _, run := range runs {
		var live []*SSTable
		for _, sst := range run {
			if !hiddenBy(all, sst.Meta) {
				live = append(live, sst)
				rtombs = append(rtombs, sst.rtombs...)
			}
		}
		if len(live) > 0 {
			srcs = append(srcs, chain(live, math.MinInt64))
		}
	}
	m, err := newMerge(t.pool.Disk(), srcs)
	if err != nil {
		return nil, err
	}
	var kept []RangeTomb
	for _, rt := range rtombs {
		if overlapsAny(others, rt.Lo, rt.Hi) {
			kept = append(kept, rt)
		}
	}
	bound := t.tableEntries()
	var outs []*SSTable
	var buf []entry
	lo := int64(math.MinInt64)
	// emit builds the output covering [lo, hi] from buf and the kept
	// tombstones' share of that span.
	emit := func(hi int64) error {
		pieces := clip(kept, lo, hi)
		if len(buf) == 0 && len(pieces) == 0 {
			return nil
		}
		sst, err := buildSSTable(t.pool, t.pickDeviceLocked(), t.recSize, buf, pieces, t.tick)
		if err != nil {
			return err
		}
		outs = append(outs, sst)
		buf, lo = buf[:0], hi+1
		return nil
	}
	fail := func(err error) ([]*SSTable, error) {
		t.dropAllLocked(outs)
		return nil, err
	}
	for {
		win, ok := m.peek()
		if !ok {
			break
		}
		if err := m.skip(win.key); err != nil {
			return fail(err)
		}
		if coveredBy(rtombs, win.key, win.seq) {
			continue // shadowed by a range delete in this same merge
		}
		if win.kind == kindDel && !overlapsAny(others, win.key, win.key) {
			continue // nothing left below for it to hide
		}
		if len(buf) == bound {
			if err := emit(win.key - 1); err != nil {
				return fail(err)
			}
		}
		buf = append(buf, win)
	}
	if err := emit(math.MaxInt64); err != nil {
		return fail(err)
	}
	return outs, nil
}
