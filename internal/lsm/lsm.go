// Package lsm implements the engine's second storage backend: a
// log-structured merge tree keyed on a table's leading attribute.
//
// Where the B-tree backend makes a bulk delete cheap by restructuring the
// ⋈̸ passes (the paper's contribution), the LSM backend takes the opposite
// bet: a bulk delete is O(1) to *issue* — one range tombstone dropped into
// the memtable — and the real work moves into compaction. Following Lethe
// (Sarkar et al., SIGMOD 2020) the compaction scheduler is delete-aware:
// tombstone-bearing SSTables age on a flush-tick clock and are force-
// compacted within a bounded number of flushes, so the space a bulk delete
// logically frees is physically reclaimed on a schedule instead of
// "eventually".
//
// Durability is split between two mechanisms owned by the caller:
//
//   - every mutation is WAL-logged before it reaches the memtable, and
//     recovery replays the log suffix (seq > FlushedSeq) back into a fresh
//     memtable;
//   - flushes and compactions become durable through a manifest callback
//     (the engine's catalog save): the new SSTable's pages are flushed
//     first, then the manifest commits the level change atomically. A crash
//     between the two leaves an orphan file the catalog never references —
//     the WAL suffix still covers its contents.
//
// All methods are safe for concurrent use; one mutex serializes the
// tree's structure. Tree.Get holds it for one lookup. Every other read goes
// through a Snapshot, which captures the memtable, the level slices and the
// range-tombstone union under it once and then reads lock-free — Get,
// ScanRange, and the user callback, which may re-enter the same tree
// (SSTables are immutable; files superseded while a snapshot is open are
// parked until the last one closes). See DESIGN §4.9.
package lsm

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"bulkdel/internal/buffer"
	"bulkdel/internal/sim"
)

// Options tunes a tree. Zero values take the defaults.
type Options struct {
	// MemLimit is the number of memtable entries (puts + point tombstones;
	// range tombstones count too) that triggers a flush (default 256).
	MemLimit int
	// L0Limit is the number of L0 SSTables that triggers an L0→L1
	// compaction (default 4). MemLimit·L0Limit entries are one L0 batch,
	// the floor of every level's entry target.
	L0Limit int
	// LevelRatio is the fan-out between levels (default 4): each level
	// above the deepest targets 1/LevelRatio of the entries of the level
	// below it, an empty level enters at the top once level 1's target
	// reaches LevelRatio L0 batches, and a compaction cuts its outputs at
	// that size.
	LevelRatio int
	// TombstoneTTL bounds reclamation latency: an SSTable carrying any
	// tombstone is force-compacted once it is this many flush ticks old
	// (default 4). This is the Lethe-style delete-aware trigger.
	TombstoneTTL uint64
	// Devices lists the spindles SSTable files are placed on, round-robin
	// (default: device 0 only).
	Devices []int
}

func (o Options) withDefaults() Options {
	if o.MemLimit <= 0 {
		o.MemLimit = 256
	}
	if o.L0Limit <= 0 {
		o.L0Limit = 4
	}
	if o.LevelRatio <= 0 {
		o.LevelRatio = 4
	}
	if o.TombstoneTTL == 0 {
		o.TombstoneTTL = 4
	}
	if len(o.Devices) == 0 {
		o.Devices = []int{0}
	}
	return o
}

// RangeTomb is a range-delete tombstone: it hides every entry with
// Lo <= key <= Hi and seq < Seq.
type RangeTomb struct {
	Lo, Hi int64
	Seq    uint64
}

// covers reports whether the tombstone hides an entry.
func (rt RangeTomb) covers(key int64, seq uint64) bool {
	return key >= rt.Lo && key <= rt.Hi && seq < rt.Seq
}

// memtable is the mutable in-memory run: a sorted slab (binary-search
// insertion into a sorted slice) holding at most one entry per key — the
// highest-seq write wins in place — plus the run's range tombstones.
type memtable struct {
	entries []entry // sorted by key
	rtombs  []RangeTomb
}

func (m *memtable) len() int { return len(m.entries) + len(m.rtombs) }

// put installs a point entry, replacing any older one for the same key.
func (m *memtable) put(e entry) {
	i := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].key >= e.key })
	if i < len(m.entries) && m.entries[i].key == e.key {
		if m.entries[i].seq < e.seq {
			m.entries[i] = e
		}
		return
	}
	m.entries = append(m.entries, entry{})
	copy(m.entries[i+1:], m.entries[i:])
	m.entries[i] = e
}

// Manifest is a tree's durable state, persisted inside the engine catalog.
// Committing a new manifest (one catalog save) is the atomic step of every
// flush and compaction.
type Manifest struct {
	// Seq is the highest sequence number handed out at the last save; the
	// recovered clock never rewinds below it.
	Seq uint64 `json:"seq"`
	// FlushedSeq is the highest sequence number whose effects live in
	// SSTables; WAL replay skips records at or below it.
	FlushedSeq uint64 `json:"flushedSeq"`
	// Tick is the flush-tick clock behind the delete-aware trigger.
	Tick uint64 `json:"tick"`
	// Created counts SSTable files ever created (device round-robin state).
	Created uint64 `json:"created"`
	// Levels holds the per-level SSTable metadata, L0 first (L0 ordered
	// oldest→newest, deeper levels by min key).
	Levels [][]Meta `json:"levels"`
}

// Tree is one table's LSM structure.
type Tree struct {
	pool    *buffer.Pool
	recSize int
	opts    Options

	mu         sync.Mutex
	seq        uint64 // last sequence number handed out
	flushedSeq uint64 // highest seq durable in SSTables
	tick       uint64 // flush ticks (delete-aware ageing clock)
	created    uint64 // SSTable files ever created (placement round-robin)
	mem        *memtable
	levels     [][]*SSTable
	// rtombs is the union of every live range tombstone (the memtable's and
	// every SSTable's), kept so a read never collects it. Open snapshots
	// share it, so it is replaced, never appended to in place: DeleteRange
	// appends to a copy, a flush leaves it alone (it moves the memtable's
	// tombstones into the new file), and a compaction rebuilds it.
	rtombs []RangeTomb

	// pending holds seqs handed out by NextSeq whose mutation has not yet
	// been applied to the memtable (ascending — NextSeq is monotone). A
	// flush may not advance flushedSeq past a pending seq: its WAL record
	// would be skipped on replay while its effect is in no SSTable, losing
	// the write. The engine serializes LSM mutations, so this is normally
	// empty at flush time; it is the backstop that makes flushedSeq safe
	// by construction.
	pending []uint64

	// scans counts open Snapshots; obsolete parks files superseded while
	// one was open (its reads may still touch their pages). The last
	// snapshot to close drops them.
	scans    int
	obsolete []*SSTable

	// persist commits the current manifest durably (the engine wires it to
	// its catalog save). Called with mu held; it must read the manifest via
	// the copy below, never through tree methods.
	persist func() error
	// manifest is the latest durable-state copy, refreshed under mu after every
	// structural change and readable without the tree mutex (so the catalog
	// writer never deadlocks against a flush that triggered it).
	manifest atomic.Value // Manifest
}

// New creates an empty tree.
func New(pool *buffer.Pool, recSize int, opts Options) *Tree {
	t := &Tree{pool: pool, recSize: recSize, opts: opts.withDefaults(), mem: &memtable{}}
	t.publishLocked()
	return t
}

// Open rebuilds a tree from its manifest after a crash or restart: every
// referenced SSTable is reopened from its File, Device and Pages (the
// trailer, CRC-verified, supplies the rest of its Meta and the sparse
// index). The memtable starts empty; the caller replays the WAL suffix
// into it.
func Open(pool *buffer.Pool, recSize int, opts Options, m Manifest) (*Tree, error) {
	t := &Tree{pool: pool, recSize: recSize, opts: opts.withDefaults(), mem: &memtable{}}
	t.seq = m.Seq
	t.flushedSeq = m.FlushedSeq
	t.tick = m.Tick
	t.created = m.Created
	for li, metas := range m.Levels {
		var lvl []*SSTable
		for _, meta := range metas {
			sst, err := openSSTable(pool, recSize, meta)
			if err != nil {
				return nil, fmt.Errorf("lsm: reopening level %d sstable (file %d): %w", li, meta.File, err)
			}
			lvl = append(lvl, sst)
		}
		t.levels = append(t.levels, lvl)
	}
	t.rtombs = rtombUnion(nil, t.levels)
	t.publishLocked()
	return t, nil
}

// SetPersist installs the manifest-commit hook. Must be set before the
// first mutation (the engine wires it to its catalog save at create/open).
func (t *Tree) SetPersist(fn func() error) { t.persist = fn }

// Manifest returns the latest durable state. Safe to call from inside the
// persist hook (it does not take the tree mutex).
func (t *Tree) Manifest() Manifest { return t.manifest.Load().(Manifest) }

// manifestLocked builds the manifest for the current state; mu held.
func (t *Tree) manifestLocked() Manifest {
	m := Manifest{Seq: t.seq, FlushedSeq: t.flushedSeq, Tick: t.tick, Created: t.created}
	for _, lvl := range t.levels {
		metas := make([]Meta, len(lvl))
		for i, sst := range lvl {
			metas[i] = sst.Meta
		}
		m.Levels = append(m.Levels, metas)
	}
	return m
}

// publishLocked refreshes the lock-free manifest copy; mu held.
func (t *Tree) publishLocked() { t.manifest.Store(t.manifestLocked()) }

// NextSeq allocates the next sequence number. The caller logs the mutation
// under it before applying it to the tree; until the apply (or AbandonSeq
// on a log failure) the seq is pending and pins the flush horizon.
//
// Precondition, not checked: a seq is applied before any later seq's
// mutation is flushed. Compaction drops a tombstone once nothing below it
// is left for it to hide — a due range tombstone is applied in place and
// gone within TombstoneTTL flushes — so an older seq applied after that
// would escape the newer tombstone and its row would come back. The
// engine meets this by holding the table lock Exclusive from NextSeq to
// the apply.
func (t *Tree) NextSeq() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	t.pending = append(t.pending, t.seq)
	return t.seq
}

// settleSeqLocked retires a pending seq once its mutation has been applied
// (or abandoned); a seq not handed out by NextSeq — WAL replay applies
// records under their original seqs — is a no-op. mu held.
func (t *Tree) settleSeqLocked(seq uint64) {
	for i, s := range t.pending {
		if s == seq {
			t.pending = append(t.pending[:i], t.pending[i+1:]...)
			return
		}
	}
}

// AbandonSeq retires a seq whose mutation will never be applied (the WAL
// append under it failed), so it stops pinning the flush horizon.
func (t *Tree) AbandonSeq(seq uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.settleSeqLocked(seq)
}

// NoteReplayedSeq fast-forwards the sequence clock during WAL replay; it
// never rewinds.
func (t *Tree) NoteReplayedSeq(seq uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if seq > t.seq {
		t.seq = seq
	}
}

// Put installs (or overwrites) the record for key under seq, which must
// meet NextSeq's precondition.
func (t *Tree) Put(key int64, rec []byte, seq uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.settleSeqLocked(seq)
	t.mem.put(entry{key: key, seq: seq, kind: kindPut, val: append([]byte(nil), rec...)})
}

// DeletePoint drops a point tombstone for key under seq.
func (t *Tree) DeletePoint(key int64, seq uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.settleSeqLocked(seq)
	t.mem.put(entry{key: key, seq: seq, kind: kindDel})
}

// DeleteRange drops one range tombstone hiding every key in [lo, hi] with
// a smaller seq. This is the O(1)-foreground bulk delete: no data page is
// touched until compaction.
func (t *Tree) DeleteRange(lo, hi int64, seq uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.settleSeqLocked(seq)
	rt := RangeTomb{Lo: lo, Hi: hi, Seq: seq}
	t.mem.rtombs = append(t.mem.rtombs, rt)
	t.rtombs = append(t.rtombs[:len(t.rtombs):len(t.rtombs)], rt) // a copy: snapshots share the old one
}

// MemLen returns the memtable's entry count (range tombstones included).
func (t *Tree) MemLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.mem.len()
}

// Drained reports whether nothing of the tree lives only in the log: the
// memtable is empty, no seq is pending, and the manifest's flushed horizon
// covers every seq handed out.
func (t *Tree) Drained() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.mem.len() == 0 && len(t.pending) == 0 && t.flushedSeq == t.seq
}

// FlushedSeq returns the highest sequence number durable in SSTables.
func (t *Tree) FlushedSeq() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flushedSeq
}

// Levels returns the per-level SSTable counts (L0 first) — a debugging and
// test aid.
func (t *Tree) Levels() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, len(t.levels))
	for i, lvl := range t.levels {
		out[i] = len(lvl)
	}
	return out
}

// MaybeFlush flushes the memtable if it crossed Options.MemLimit and then
// runs every triggered compaction. The engine calls it after each mutating
// statement.
func (t *Tree) MaybeFlush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mem.len() < t.opts.MemLimit {
		return nil
	}
	if err := t.flushLocked(); err != nil {
		return err
	}
	return t.compactAllLocked()
}

// FlushMem unconditionally flushes a non-empty memtable into an L0 SSTable
// and commits the manifest. It does not compact.
func (t *Tree) FlushMem() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flushLocked()
}

// treeState is a restorable copy of the fields a flush or compaction
// mutates ahead of its manifest commit. When the commit (persist hook)
// fails, restoring it keeps the in-memory tree consistent with the
// durable manifest instead of leaving a level set and flush horizon the
// catalog never saw.
type treeState struct {
	flushedSeq uint64
	tick       uint64
	created    uint64
	levels     [][]*SSTable
	rtombs     []RangeTomb
}

// captureLocked copies the commit-mutable state; mu held. Compactions
// replace inner level slices rather than mutating them, so copying the
// outer slice is enough.
func (t *Tree) captureLocked() treeState {
	return treeState{
		flushedSeq: t.flushedSeq,
		tick:       t.tick,
		created:    t.created,
		levels:     append([][]*SSTable(nil), t.levels...),
		rtombs:     t.rtombs,
	}
}

// restoreLocked rolls the commit-mutable state back and republishes the
// matching manifest snapshot; mu held.
func (t *Tree) restoreLocked(s treeState) {
	t.flushedSeq, t.tick, t.created = s.flushedSeq, s.tick, s.created
	t.levels, t.rtombs = s.levels, s.rtombs
	t.publishLocked()
}

// flushLocked writes the memtable out as one L0 SSTable: pages first, then
// the manifest commit, then the memtable is cleared. Crash-ordering: until
// the manifest commits the catalog references neither the new file nor the
// new FlushedSeq, so recovery replays the same WAL suffix into a fresh
// memtable and the half-written file is a dead orphan. A failed commit
// rolls the in-memory state back to match.
func (t *Tree) flushLocked() error {
	if t.mem.len() == 0 {
		return nil
	}
	// Entries already shadowed by one of this same run's range tombstones
	// never need to reach disk.
	live := make([]entry, 0, len(t.mem.entries))
	for _, e := range t.mem.entries {
		if !coveredBy(t.mem.rtombs, e.key, e.seq) {
			live = append(live, e)
		}
	}
	prev := t.captureLocked()
	sst, err := buildSSTable(t.pool, t.pickDeviceLocked(), t.recSize, live, t.mem.rtombs, t.tick, false)
	if err != nil {
		t.restoreLocked(prev)
		return err
	}
	t.tick++
	if len(t.levels) == 0 {
		t.levels = append(t.levels, nil)
	}
	t.levels[0] = append(t.levels[0], sst) // L0 ordered oldest→newest
	// The horizon may only cover seqs whose mutations have reached the
	// memtable: a pending seq (allocated, WAL-logged or about to be, not
	// yet applied) is neither in this SSTable nor replayable if skipped.
	horizon := t.seq
	if len(t.pending) > 0 && t.pending[0]-1 < horizon {
		horizon = t.pending[0] - 1
	}
	if horizon > t.flushedSeq {
		t.flushedSeq = horizon
	}
	if err := t.commitLocked(); err != nil {
		// The manifest did not commit: put the tree back in sync with the
		// durable state. The built file becomes an orphan — the same thing
		// a crash between build and commit leaves — so dropping it is
		// best-effort.
		t.restoreLocked(prev)
		_ = t.dropFileLocked(sst)
		return err
	}
	t.mem = &memtable{}
	return nil
}

// dropFileLocked removes an SSTable's file, or parks it while any Snapshot
// is open (its reads may still touch the file's pages); the last snapshot
// to close drops parked files. mu held.
func (t *Tree) dropFileLocked(sst *SSTable) error {
	if t.scans > 0 {
		t.obsolete = append(t.obsolete, sst)
		return nil
	}
	return t.pool.DropFile(sim.FileID(sst.File))
}

// pickDeviceLocked round-robins SSTable placement over the configured
// spindles and advances the counter; it persists in the manifest so
// placement stays deterministic across recovery.
func (t *Tree) pickDeviceLocked() int {
	devs := t.opts.Devices
	dev := devs[int(t.created)%len(devs)]
	t.created++
	return dev
}

// commitLocked publishes the manifest snapshot and runs the persist hook.
func (t *Tree) commitLocked() error {
	t.publishLocked()
	if t.persist == nil {
		return nil
	}
	return t.persist()
}

// rtombUnion collects the memtable's range tombstones and every SSTable's
// into a fresh slice: the tree's union, rebuilt when Open or a compaction
// changes which tombstones exist.
func rtombUnion(mem []RangeTomb, levels [][]*SSTable) []RangeTomb {
	out := append([]RangeTomb(nil), mem...)
	for _, lvl := range levels {
		for _, sst := range lvl {
			out = append(out, sst.rtombs...)
		}
	}
	return out
}

// coveredBy reports whether any tombstone in rts hides (key, seq).
func coveredBy(rts []RangeTomb, key int64, seq uint64) bool {
	for _, rt := range rts {
		if rt.covers(key, seq) {
			return true
		}
	}
	return false
}

// Check verifies the tree's structural invariants: levels ≥1 sorted by min
// key and non-overlapping, every SSTable's block CRCs valid and entries
// sorted, metadata consistent with block contents — and the invariant
// in-place range reclamation rests on: no entry lies above a range
// tombstone that hides it. A merge drops every entry its own tombstones
// hide, and a compaction takes a tombstone down only together with every
// table below it that its span overlaps (L0 merges all its tables, a
// push-down the whole overlapping slice), so an older entry inside a
// tombstone's span can sit below it but never beside it at a level >= 1
// (one key-disjoint run) or above it.
func (t *Tree) Check() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	// hide[li]: the range tombstones of level max(li, 1) and below. The
	// tables are still read top-down, the order the sim clock has seen.
	hide := make([][]RangeTomb, len(t.levels)+1)
	for li := len(t.levels) - 1; li >= 0; li-- {
		hide[li] = hide[li+1]
		if li > 0 {
			for _, sst := range t.levels[li] {
				hide[li] = append(hide[li][:len(hide[li]):len(hide[li])], sst.rtombs...)
			}
		}
	}
	for li, lvl := range t.levels {
		for i, sst := range lvl {
			if err := sst.check(hide[li]); err != nil {
				return fmt.Errorf("lsm: level %d sstable %d (file %d): %w", li, i, sst.File, err)
			}
			if li == 0 {
				continue
			}
			if i > 0 {
				prev := lvl[i-1]
				if prev.MaxKey >= sst.MinKey {
					return fmt.Errorf("lsm: level %d overlap: [%d,%d] then [%d,%d]",
						li, prev.MinKey, prev.MaxKey, sst.MinKey, sst.MaxKey)
				}
			}
		}
	}
	memHide := hide[0]
	if len(t.levels) > 0 {
		for _, sst := range t.levels[0] {
			memHide = append(memHide[:len(memHide):len(memHide)], sst.rtombs...)
		}
	}
	for _, e := range t.mem.entries {
		if coveredBy(memHide, e.key, e.seq) {
			return fmt.Errorf("lsm: memtable key %d (seq %d) lies above a range tombstone that hides it", e.key, e.seq)
		}
	}
	return nil
}
