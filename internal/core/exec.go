package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"bulkdel/internal/heap"
	"bulkdel/internal/keyenc"
	"bulkdel/internal/obs"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
	"bulkdel/internal/wal"
	"bulkdel/internal/xsort"
)

// rowIter is a pull iterator over fixed-width rows (xsort iterators and row
// files both provide one).
type rowIter func() ([]byte, bool, error)

// execCtx carries the per-run state shared by the pass functions.
type execCtx struct {
	tgt   *Target
	opts  Options
	stats *Stats
	// trace is the statement's span tree (nil when untraced); cur is the
	// currently open phase span, so pass internals can nest sub-spans.
	trace *obs.Trace
	cur   *obs.Span
	// checkpoint state
	sinceCkpt int
	applied   int64 // rows applied to the current structure
	crash     crashCounters
	// merged counts the leaves this context's walks merged (Reorganize).
	merged int64
	// parWorkers is the degree of parallelism chosen for phase 3 (1 =
	// serial); scratchDev is the device scratch row files of this context
	// must be created on, so a parallel index pass never touches another
	// pass's arm (0 = the system device, the default placement).
	parWorkers int
	scratchDev int
	// lists are the row files a logged statement materialized for recovery;
	// finish drops them once the commit record is durable.
	lists []*xsort.RowFile
	// cbMu serializes the engine callbacks (OnStructureDone, OnCriticalDone)
	// and guards criticalLeft, the §3.1 count of what must still finish
	// before the table lock may go: one token run holds until phase 3
	// starts, plus one per remaining unique index.
	cbMu         sync.Mutex
	criticalLeft int
}

func (e *execCtx) disk() *sim.Disk { return e.tgt.Pool.Disk() }

// span opens a phase span under the trace root (nil when untraced; every
// obs.Span method is nil-safe, so call sites need no guards).
func (e *execCtx) span(name, detail string) *obs.Span {
	// A phase span is also the statement's live-progress phase (nil-safe
	// when the statement runs outside the DB's event log).
	e.opts.Stmt.SetPhase(name)
	if e.trace == nil {
		return nil
	}
	return e.trace.Root().Child(name, detail)
}

// phase runs body under a root phase span; an error leaves the span open
// and comes back naming the phase and the structure.
func (e *execCtx) phase(name, detail, structure string, body func() error) error {
	sp := e.span(name, detail)
	e.cur = sp
	if err := body(); err != nil {
		return phaseErr(name, structure, err)
	}
	sp.Finish()
	e.cur = nil
	return nil
}

// child opens a sub-span of the currently open phase (or a root phase span
// when no phase is open).
func (e *execCtx) child(name, detail string) *obs.Span {
	if e.cur != nil {
		return e.cur.Child(name, detail)
	}
	return e.span(name, detail)
}

// traceSource builds the snapshot source for a statement against tgt.
func traceSource(tgt *Target, log *wal.Log) obs.Source {
	src := obs.Source{Disk: tgt.Pool.Disk(), Pool: tgt.Pool}
	if log != nil {
		src.WALBytes = func() uint64 { return log.QueueStats().FlushBytes }
	}
	return src
}

// errInjectedCrash is returned by the crash-injection hooks so recovery
// tests can interrupt a run at a precise point.
var errInjectedCrash = fmt.Errorf("core: injected crash")

// ErrCancelled reports that the run observed its context's cancellation at
// a recoverable boundary and stopped. The WAL holds every record needed to
// roll the statement forward with Resume; the structures are in exactly the
// state a crash at the same point would leave durable, plus
// idempotent-to-reapply in-memory progress past the last checkpoint.
var ErrCancelled = errors.New("core: statement cancelled")

// checkCancel is the executor's cancel checkpoint. It is called at
// admission, every noteApplied (page-I/O granularity), structure boundary,
// and phase transition. Only a logged run has a context (withDefaults drops
// one given without a Log), so every stop is recoverable by Resume.
func (e *execCtx) checkCancel() error {
	ctx := e.opts.Ctx
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return fmt.Errorf("%w: %v", ErrCancelled, ctx.Err())
	default:
		return nil
	}
}

// phaseErr attaches the executing phase and the structure being worked on
// to an error crossing a phase boundary, so BulkDelete's caller learns
// where an I/O fault landed. The cause stays reachable via errors.Is /
// errors.As (e.g. sim.IsCrash, *sim.FaultError).
func phaseErr(phase, structure string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("core: phase %s on %s: %w", phase, structure, err)
}

// totalApplied / structsCompleted drive the test-only crash injection.
type crashCounters struct {
	applied int
	structs int
}

func (e *execCtx) maybeCrashApplied() error {
	if e.opts.failAfterApplied > 0 {
		e.crash.applied++
		if e.crash.applied >= e.opts.failAfterApplied {
			return errInjectedCrash
		}
	}
	return nil
}

func (e *execCtx) maybeCrashStruct() error {
	if e.opts.failAfterStructs > 0 {
		e.crash.structs++
		if e.crash.structs >= e.opts.failAfterStructs {
			return errInjectedCrash
		}
	}
	return nil
}

// structStart logs the beginning of a structure pass.
func (e *execCtx) structStart(file sim.FileID, kind uint64) error {
	e.sinceCkpt = 0
	e.applied = 0
	if e.opts.Log == nil {
		return nil
	}
	if err := e.checkCancel(); err != nil {
		return err
	}
	if _, err := e.opts.Log.Append(wal.TStructStart, e.opts.TxID, uint64(file), kind, nil); err != nil {
		return err
	}
	e.opts.Stmt.Event(obs.EvWAL, fmt.Sprintf("struct-start file=%d", file))
	return e.opts.Log.Flush()
}

// noteApplied counts one input row applied to the structure and writes a
// checkpoint when due. flush persists the structure's dirty pages; the
// paper requires flushing pages before the checkpoint record so recovery
// can trust the logged progress.
func (e *execCtx) noteApplied(file sim.FileID, flush func() error) error {
	e.applied++
	if err := e.maybeCrashApplied(); err != nil {
		return err
	}
	if err := e.checkCancel(); err != nil {
		return err
	}
	if e.opts.Log == nil {
		return nil
	}
	e.sinceCkpt++
	if e.sinceCkpt < e.opts.CheckpointRows {
		return nil
	}
	e.sinceCkpt = 0
	if err := flush(); err != nil {
		return err
	}
	if _, err := e.opts.Log.Append(wal.TCheckpoint, e.opts.TxID, uint64(file), uint64(e.applied), nil); err != nil {
		return err
	}
	e.opts.Stmt.Event(obs.EvWAL, fmt.Sprintf("checkpoint file=%d applied=%d", file, e.applied))
	return e.opts.Log.Flush()
}

// structDone flushes the structure and logs its completion, then notifies
// the engine so it can apply side-files and reopen gates.
func (e *execCtx) structDone(file sim.FileID, flush func() error) error {
	if e.opts.Log != nil {
		if err := flush(); err != nil {
			return err
		}
		if _, err := e.opts.Log.Append(wal.TStructDone, e.opts.TxID, uint64(file), 0, nil); err != nil {
			return err
		}
		e.opts.Stmt.Event(obs.EvWAL, fmt.Sprintf("struct-done file=%d", file))
		if err := e.opts.Log.Flush(); err != nil {
			return err
		}
	}
	if e.opts.OnStructureDone != nil {
		e.opts.OnStructureDone(file)
	}
	if hook := e.tgt.Hooks.StructDone; hook != nil {
		hook(file)
	}
	if err := e.maybeCrashStruct(); err != nil {
		return err
	}
	return e.checkCancel()
}

// skip reports whether recovery already finished this structure.
func (e *execCtx) skip(file sim.FileID) bool {
	return e.opts.SkipStructures != nil && e.opts.SkipStructures[file]
}

// sortedVictims sorts the victim values and returns an iterator over them
// as canonical 8-byte order-preserving keys.
func sortedVictims(e *execCtx, values []int64) (*xsort.Iterator, error) {
	srt, err := xsort.New(e.disk(), keyenc.Int64Width, e.opts.Memory, nil)
	if err != nil {
		return nil, err
	}
	var row [keyenc.Int64Width]byte
	for _, v := range values {
		keyenc.PutInt64(row[:], v)
		if err := srt.Add(row[:]); err != nil {
			return nil, err
		}
	}
	return srt.Finish()
}

// ridList collects RIDs in any order and hands them back sorted by physical
// position — the input of every skip-sequential heap pass.
type ridList struct {
	srt *xsort.Sorter
	row [record.RIDSize]byte
}

func newRIDList(e *execCtx) (*ridList, error) {
	srt, err := xsort.New(e.disk(), record.RIDSize, e.opts.Memory, nil)
	if err != nil {
		return nil, err
	}
	return &ridList{srt: srt}, nil
}

func (l *ridList) add(rid record.RID) error {
	record.PutRID(l.row[:], rid)
	return l.srt.Add(l.row[:])
}

func (l *ridList) sorted() (*xsort.Iterator, error) { return l.srt.Finish() }

// visitFn sees a victim's record where it lies on the pinned page, before any
// delete, and reports whether it changed the record's bytes.
type visitFn func(rid record.RID, rec []byte) (dirtied bool, err error)

// heapPassSortedRIDs walks the heap in the physical order of the sorted RID
// rows (skip-sequential merge, the ⋈̸ with R of Figure 3). When visit is
// non-nil each victim record is handed to it in place — the delete's π of
// the remaining indexes' keys; when del is false the pass deletes nothing (a
// read-only projection, a bulk update). It reads only victim pages, and the
// pages a chained read passes through on its way from one to the next
// (ridLookahead.runEnd).
func heapPassSortedRIDs(e *execCtx, rids rowIter, del bool, visit visitFn) (int64, error) {
	ed := e.tgt.Heap.Edit()
	defer ed.Close()
	var deleted int64
	flush := func() error { return e.tgt.Heap.Flush() }
	list := &ridLookahead{next: rids, gap: chainGap(e.disk().CostModelInUse()), window: e.tgt.Pool.ReadAhead()}
	curPage := sim.InvalidPage
	var sp pageView
	for {
		rid, ok, err := list.pop()
		if err != nil {
			return deleted, err
		}
		if !ok {
			break
		}
		if rid.Page != curPage {
			upTo, err := list.runEnd(rid.Page)
			if err != nil {
				return deleted, err
			}
			s, err := ed.Seek(rid.Page, upTo)
			if err != nil {
				if e.opts.IgnoreMissing && errors.Is(err, heap.ErrPageRange) {
					// The page was released (a resumed run re-walking a
					// truncated partition): the victim is already gone.
					if err := e.noteApplied(e.tgt.Heap.ID(), flush); err != nil {
						return deleted, err
					}
					continue
				}
				return deleted, err
			}
			curPage = rid.Page
			sp = pageView{s: s}
			e.opts.Stmt.AddPages(1)
		}
		if !sp.s.InUse(int(rid.Slot)) {
			if e.opts.IgnoreMissing {
				if err := e.noteApplied(e.tgt.Heap.ID(), flush); err != nil {
					return deleted, err
				}
				continue
			}
			return deleted, fmt.Errorf("core: victim %s is not a live record", rid)
		}
		// The hooks see the record where it lies on the pinned page, and the
		// table-level RID a partition job's raw one stands for.
		tagged := record.RID{Page: heap.TagPage(e.tgt.part, rid.Page), Slot: rid.Slot}
		rec, err := sp.s.Get(int(rid.Slot))
		if err != nil {
			return deleted, err
		}
		if visit != nil {
			dirtied, err := visit(tagged, rec)
			if err != nil {
				return deleted, err
			}
			if dirtied {
				ed.MarkDirty()
			}
		}
		if del {
			// Retain the victim's image before tombstoning so concurrent
			// snapshot readers keep seeing the row. Unconditional when the
			// hook is set: consulting "any snapshot open?" per row would
			// race a reader registering between the check and the delete.
			if e.tgt.Retain != nil {
				e.tgt.Retain(tagged, rec)
			}
			if err := ed.DeleteSlot(int(rid.Slot)); err != nil {
				return deleted, err
			}
			deleted++
			e.opts.Stmt.AddRows(1)
			if hook := e.tgt.Hooks.MidHeapPass; hook != nil {
				hook()
			}
		}
		if err := e.noteApplied(e.tgt.Heap.ID(), flush); err != nil {
			return deleted, err
		}
	}
	return deleted, nil
}

// chainGap is how many pages the heap ⋈̸'s chained read may pass over to
// reach the next victim page: reading them costs no more than the seek and
// rotation a fresh read of that page would pay.
func chainGap(cm sim.CostModel) sim.PageNo {
	if cm.TransferPage <= 0 {
		return math.MaxUint32
	}
	return sim.PageNo((cm.Seek + cm.Rotation) / cm.TransferPage)
}

// leafGap is how many pages the index walk's chained read may pass over to
// reach the next leaf it needs: no more than a jump over them would cost
// (CostModel.Skip). On a disk with a near tier that is none: a short jump
// pays half a rotation, less than one page's transfer. (chainGap would let
// the walk read past leaves a near jump skips for less, and lose to the
// root-to-leaf probes it replaced on small deletes.)
func leafGap(cm sim.CostModel) sim.PageNo {
	if cm.TransferPage <= 0 {
		return math.MaxUint32
	}
	g := sim.PageNo(0)
	for time.Duration(g+1)*cm.TransferPage <= cm.Skip(g+2) {
		g++
	}
	return g
}

// ridLookahead reads a sorted RID list ahead of the heap pass, so that a page
// missing from the pool can be read together with the victim pages just past
// it. The peeked RIDs are decoded copies (a row aliases its iterator's
// buffer), and they count as applied only when pop hands them out.
type ridLookahead struct {
	next   rowIter
	gap    sim.PageNo
	window int          // the longest chained read, in pages
	ahead  []record.RID // peeked, not yet popped
}

// peek returns the i-th RID not yet popped; ok is false past the list's end.
func (l *ridLookahead) peek(i int) (record.RID, bool, error) {
	for len(l.ahead) <= i {
		row, ok, err := l.next()
		if err != nil || !ok {
			return record.NilRID, false, err
		}
		l.ahead = append(l.ahead, record.GetRID(row))
	}
	return l.ahead[i], true, nil
}

// pop returns the next RID of the list.
func (l *ridLookahead) pop() (record.RID, bool, error) {
	rid, ok, err := l.peek(0)
	if ok {
		l.ahead = l.ahead[1:]
	}
	return rid, ok, err
}

// runEnd returns the last page a read of page p should chain through: the
// farthest victim page after p that hops of at most gap skipped pages reach,
// with the run no longer than the window.
func (l *ridLookahead) runEnd(p sim.PageNo) (sim.PageNo, error) {
	upTo := p
	for i := 0; ; i++ {
		rid, ok, err := l.peek(i)
		if err != nil || !ok {
			return upTo, err
		}
		if rid.Page <= upTo {
			continue
		}
		if rid.Page-upTo-1 > l.gap || int(rid.Page-p) >= l.window {
			return upTo, nil
		}
		upTo = rid.Page
	}
}

// pageView wraps the seeked slotted page (kept tiny to avoid importing page
// into signatures). Get aliases the pinned page, so bulk updates mutate
// records through it in place.
type pageView struct {
	s interface {
		InUse(int) bool
		Get(int) ([]byte, error)
	}
}

// heapDeleteByRIDProbe scans every heap page once, probing each live record
// against the in-memory RID set — the hash plan's ⋈̸ with R (Figure 4). The
// scan is partition-major, probing the tagged form of each position since
// that is what the indexes — and therefore the RID set — carry.
func heapDeleteByRIDProbe(e *execCtx, ridSet map[record.RID]struct{}) (int64, error) {
	var deleted int64
	flush := func() error { return e.tgt.Heap.Flush() }
	for pi, part := range e.tgt.Heap.Parts() {
		err := func() error {
			ed, err := part.EditPages()
			if err != nil {
				return err
			}
			defer ed.Close()
			numPages := sim.PageNo(ed.NumDataPages())
			for pg := sim.PageNo(1); pg <= numPages; pg++ {
				sp, err := ed.Seek(pg, numPages)
				if err != nil {
					return err
				}
				e.opts.Stmt.AddPages(1)
				for slot := 0; slot < sp.NumSlots(); slot++ {
					if !sp.InUse(slot) {
						continue
					}
					e.disk().ChargeRecords(1) // hash probe
					tagged := record.RID{Page: heap.TagPage(pi, pg), Slot: uint16(slot)}
					if _, hit := ridSet[tagged]; !hit {
						continue
					}
					if e.tgt.Retain != nil {
						rec, err := sp.Get(slot)
						if err != nil {
							return err
						}
						e.tgt.Retain(tagged, rec)
					}
					if err := ed.DeleteSlot(slot); err != nil {
						return err
					}
					deleted++
					e.opts.Stmt.AddRows(1)
					if err := e.noteApplied(e.tgt.Heap.ID(), flush); err != nil {
						return err
					}
				}
			}
			return nil
		}()
		if err != nil {
			return deleted, err
		}
	}
	return deleted, nil
}

// errFoundMatch stops a read-only probe as soon as one match appears.
var errFoundMatch = fmt.Errorf("core: match found")

// AnyKeyMatch reports whether the index holds an entry for any of the
// victim values — a read-only vertical probe (sorted victims merged with
// the leaf chain, stopping at the first hit). It is the paper's "check
// integrity constraints in such a vertical way as early as possible":
// a RESTRICT foreign key runs this against the child's index before any
// structure is modified.
func AnyKeyMatch(tgt *Target, ix *IndexRef, values []int64, memory int) (bool, error) {
	o := Options{Memory: memory}
	e := &execCtx{tgt: tgt, opts: o.withDefaults()}
	err := probeKeys(e, ix, values, func(record.RID) error { return errFoundMatch })
	if errors.Is(err, errFoundMatch) {
		return true, nil
	}
	return false, err
}

// CollectVictimFieldValues performs the read-only half of a bulk delete to
// learn which values of other attributes the victims carry: sorted victims
// are merged against the access index (or found by a scan), the resulting
// RID list is sorted, and one skip-sequential heap pass projects the wanted
// fields. Foreign keys declared on attributes other than the delete
// attribute are enforced with these projections — vertically, before any
// structure is modified.
func CollectVictimFieldValues(tgt *Target, field int, values []int64, wantFields []int, memory int) (map[int][]int64, error) {
	o := Options{Memory: memory}
	e := &execCtx{tgt: tgt, opts: o.withDefaults()}
	out := make(map[int][]int64, len(wantFields))
	for _, f := range wantFields {
		if f < 0 || f >= tgt.Schema.NumFields {
			return nil, fmt.Errorf("core: projected field %d out of range", f)
		}
		out[f] = nil
	}
	// RIDs, sorted by physical position.
	rids, err := newRIDList(e)
	if err != nil {
		return nil, err
	}
	defer rids.srt.Close()
	if err := collectVictimRIDs(e, field, values, rids.add); err != nil {
		return nil, err
	}
	it, err := rids.sorted()
	if err != nil {
		return nil, err
	}
	_, err = heapPassSortedRIDs(e, it.Next, false, func(_ record.RID, rec []byte) (bool, error) {
		for _, f := range wantFields {
			out[f] = append(out[f], tgt.Schema.Field(rec, f))
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// collectVictimRIDs hands emit the RID of every record whose field carries
// one of values: through the access index when there is one, by a table scan
// otherwise.
func collectVictimRIDs(e *execCtx, field int, values []int64, emit func(record.RID) error) error {
	if access := accessIndex(e.tgt, field); access != nil {
		return probeKeys(e, access, values, emit)
	}
	return collectVictimRIDsByScan(e, field, values, emit)
}

// collectVictimRIDsByScan finds the victims with a full table scan when no
// index exists on the delete attribute. The emitted RIDs are already in
// physical order.
func collectVictimRIDsByScan(e *execCtx, field int, values []int64, emit func(record.RID) error) error {
	set := make(map[int64]struct{}, len(values))
	for _, v := range values {
		set[v] = struct{}{}
	}
	return e.tgt.Heap.Scan(func(rid record.RID, rec []byte) error {
		e.disk().ChargeRecords(1)
		if _, hit := set[e.tgt.Schema.Field(rec, field)]; hit {
			return emit(rid)
		}
		return nil
	})
}
