package lsm

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Leveled compaction with delete-aware scheduling.
//
// Level targets are entry counts set from the bottom up (dynamic level
// sizing): the deepest level holds what it holds, and each level above it
// targets 1/LevelRatio of the level below, floored at one L0 batch
// (MemLimit·L0Limit entries). Once level 1's target reaches LevelRatio
// batches an empty level enters at the top, so no data moves to make room.
// The targets are a pure function of the level set, so a reopened tree
// computes the ones its manifest was committed under.
//
// Three triggers, checked in order:
//
//  1. L0 pile-up: L0Limit tables in L0 merge (with every overlapping L1
//     table) into L1 — the classic size trigger.
//  2. Level overflow: a level holding more entries than its target pushes
//     one victim (plus the overlapping slice of the level below) down. The
//     victim is the table whose push rewrites the fewest entries per entry
//     it moves, with tombstone density (Lethe's delete-awareness) as a
//     discount, so a delete-laden table goes first among equals.
//  3. Tombstone TTL: any table carrying a point or range tombstone that
//     is TombstoneTTL flush ticks old is reclaimed even if no size trigger
//     fires (reclaimLocked, which DrainTombstones shares). This bounds
//     reclamation latency: the space a bulk delete frees is physically
//     recovered within a fixed number of flushes, not "when the size
//     triggers get around to it" (Lethe §4). A table below L0 whose only
//     tombstones are range tombstones has them applied in place: only the
//     deeper tables their spans overlap are rewritten, so a range delete
//     costs the data it covers, not the levels it sits above.
//
// A merge streams its surviving entries into tables of at most
// tableEntries entries each, cut at key boundaries, so every level >= 1 is
// a run of key-disjoint tables sorted by key, and an overflow moves one
// bounded table into only the slice of the next level it overlaps. A range
// tombstone that spans a cut is clipped to each output's share of the key
// space.
//
// Every compaction is atomic through the manifest: the merged outputs are
// written and flushed first, the manifest commit swaps the level sets,
// and only then are the input files dropped. A crash leaves either the
// old manifest (inputs intact, outputs orphans) or the new one (inputs
// orphaned) — never a mix.

// batch is one L0 compaction's worth of entries, the floor of every
// level's target.
func (t *Tree) batch() int64 { return int64(t.opts.MemLimit * t.opts.L0Limit) }

// levelEntries sums a level's entries.
func levelEntries(lvl []*SSTable) int64 {
	var n int64
	for _, sst := range lvl {
		n += sst.Entries
	}
	return n
}

// targets returns each level's entry target (index 0, L0, unused): the
// deepest level's own entries, and for each level above it 1/LevelRatio of
// the target below, floored at one batch.
func (t *Tree) targets(levels [][]*SSTable) []int64 {
	tg := make([]int64, len(levels))
	for li := len(levels) - 1; li >= 1; li-- {
		if li == len(levels)-1 {
			tg[li] = levelEntries(levels[li])
		} else {
			tg[li] = max(tg[li+1]/int64(t.opts.LevelRatio), t.batch())
		}
	}
	return tg
}

// hasTombs reports whether a table carries any tombstone.
func hasTombs(m Meta) bool { return m.Tombs > 0 || m.RangeTombs > 0 }

// cost ranks the tables of level li as push-down victims: the entries a
// push rewrites per entry it moves down — the table plus the slice of level
// li+1 it overlaps — discounted by tombstone density (Lethe's
// delete-awareness: a delete-laden table's push also reclaims what its
// tombstones hide), tombWeight scaling the discount. Lowest first.
func (t *Tree) cost(li int, m Meta) float64 {
	var over int64
	if li+1 < len(t.levels) {
		in, _ := split(t.levels[li+1], m.MinKey, m.MaxKey)
		over = levelEntries(in)
	}
	tomb := (float64(m.Tombs) + 8*float64(m.RangeTombs)) / (float64(m.Entries) + 1)
	return float64(m.Entries+over) / float64(m.Entries+1) / (1 + tombWeight*tomb)
}

const tombWeight = 4

// pickLocked returns the cheapest table of level li that eligible admits
// (the first on a tie), or -1 when it admits none; mu held.
func (t *Tree) pickLocked(li int, eligible func(Meta) bool) int {
	best, bestCost := -1, 0.0
	for i, sst := range t.levels[li] {
		if c := t.cost(li, sst.Meta); eligible(sst.Meta) && (best == -1 || c < bestCost) {
			best, bestCost = i, c
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

// DrainTombstones compacts until no SSTable carries any tombstone and no
// trigger fires — the benchmark's "space fully reclaimed" fixpoint. Each
// round runs the triggered compactions, then reclaims a table of the
// deepest level holding a tombstone (reclaimLocked): its range tombstones
// are applied in place and drop, or a table with point tombstones is
// pushed one level down (rewritten in place, its tombstones dropped, once
// nothing below overlaps it), so the loop terminates. The next round's
// triggers push what a reclamation left over target by shrinking the
// deepest level, and with it every target above.
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
		if err := t.reclaimLocked(victim, t.pickLocked(victim, hasTombs)); err != nil {
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
	// 2. Level overflow (never the deepest level: its target is its size).
	tg := t.targets(t.levels)
	for li := 1; li < len(t.levels); li++ {
		if levelEntries(t.levels[li]) <= tg[li] {
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
			return true, t.reclaimLocked(li, i)
		}
	}
	return false, nil
}

// tableEntries bounds the entries one compaction output holds: LevelRatio
// L0 batches (MemLimit·L0Limit·LevelRatio, 4,096 entries at the defaults),
// the most level 1 holds before a level enters above it.
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
// work and drops. Only such victims take that path — it shrinks the level
// by no more than its tombstones, so an overflow fires again and pushes
// the next victim, now without tombstones, down; mu held.
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

// reclaimLocked reclaims the tombstones of levels[li][vi], li >= 1 — the
// TTL trigger's and DrainTombstones' one path. A table carrying point
// tombstones is pushed down (compactTableLocked); one carrying only range
// tombstones has them applied in place (applyRangeLocked). mu held.
func (t *Tree) reclaimLocked(li, vi int) error {
	if li > 0 && li < len(t.levels) && vi >= 0 && vi < len(t.levels[li]) && t.levels[li][vi].Tombs == 0 {
		return t.applyRangeLocked(li, vi)
	}
	return t.compactTableLocked(li, vi) // which rejects a bad victim
}

// applyRangeLocked applies the range tombstones of levels[li][vi] where
// they can still hide anything and drops them, in one commit: every deeper
// table their spans overlap is rewritten without the entries they hide (or
// dropped unread when they hide all of it), and the victim is rewritten
// without them. Nothing above needs them, by the invariant Check verifies:
// no entry lies above a range tombstone that hides it, so every entry
// above level li inside a victim tombstone's span is newer than the
// tombstone; and level li being key-disjoint, the victim holds the level's
// only entries in those spans, none of them hidden. mu held.
func (t *Tree) applyRangeLocked(li, vi int) error {
	victim := t.levels[li][vi]
	rts := victim.rtombs
	prev := t.captureLocked()
	var outs, inputs []*SSTable
	for lj := li; lj < len(t.levels); lj++ {
		var lvl []*SSTable
		for _, sst := range t.levels[lj] {
			if sst != victim && (lj == li || len(clip(rts, sst.MinKey, sst.MaxKey)) == 0) {
				lvl = append(lvl, sst)
				continue
			}
			if sst == victim || !hiddenBy(rts, sst.Meta) {
				out, err := t.rewriteLocked(sst, rts, sst == victim)
				if err != nil {
					t.dropAllLocked(outs)
					t.restoreLocked(prev)
					return err
				}
				if out == sst {
					lvl = append(lvl, sst)
					continue
				}
				if out != nil {
					outs = append(outs, out)
					lvl = append(lvl, out)
				}
			}
			inputs = append(inputs, sst)
		}
		t.levels[lj] = lvl
	}
	return t.swapCommitLocked(prev, outs, inputs)
}

// rewriteLocked rebuilds sst without the entries rts hide, on a fresh file
// with sst's birth tick. The victim of applyRangeLocked (victim set) loses
// its own range tombstones and is always rebuilt; a deeper table keeps its
// own and comes back unchanged when rts hide none of its entries. Returns
// nil when nothing would be left. mu held.
func (t *Tree) rewriteLocked(sst *SSTable, rts []RangeTomb, victim bool) (*SSTable, error) {
	var live []entry
	it, n := sst.iter(sst.Blocks), 0
	for ; ; n++ {
		e, ok, err := it.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if !coveredBy(rts, e.key, e.seq) {
			live = append(live, e)
		}
	}
	t.pool.Disk().ChargeCompares(n)
	own := sst.rtombs
	switch {
	case victim:
		own = nil
	case len(live) == n:
		return sst, nil
	}
	if len(live) == 0 && len(own) == 0 {
		return nil, nil
	}
	return buildSSTable(t.pool, t.pickDeviceLocked(), t.recSize, live, own, sst.Born)
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

// swapCommitLocked trims empty trailing levels, lets an empty level enter
// at the top while level 1's target reaches LevelRatio L0 batches, rebuilds
// the range-tombstone union (a merge drops the tombstones nothing below
// needs), commits the manifest, and drops the input files (parked while a
// snapshot is open); a failed commit rolls the swap back to prev so the
// in-memory tree keeps matching the durable manifest. mu held.
func (t *Tree) swapCommitLocked(prev treeState, outs, inputs []*SSTable) error {
	for len(t.levels) > 0 && len(t.levels[len(t.levels)-1]) == 0 {
		t.levels = t.levels[:len(t.levels)-1]
	}
	for len(t.levels) > 1 && t.targets(t.levels)[1] >= int64(t.opts.LevelRatio)*t.batch() {
		t.levels = slices.Insert(t.levels, 1, nil)
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
	var lives [][]*SSTable
	for _, run := range runs {
		var live []*SSTable
		for _, sst := range run {
			if !hiddenBy(all, sst.Meta) {
				live = append(live, sst)
				rtombs = append(rtombs, sst.rtombs...)
			}
		}
		if len(live) > 0 {
			lives = append(lives, live)
		}
	}
	// Every input is read to its end, in chained runs; together the runs
	// take at most half the pool, so one input's read-ahead does not evict
	// another's before the merge reaches it.
	ahead := max(1, t.pool.Capacity()/(2*max(1, len(lives))))
	srcs := make([]func() (entry, bool, error), 0, len(lives))
	for _, live := range lives {
		srcs = append(srcs, chain(live, math.MinInt64, ahead))
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
