package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"bulkdel/internal/keyenc"
	"bulkdel/internal/obs"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
	"bulkdel/internal/wal"
	"bulkdel/internal/xsort"
)

// Execute runs DELETE FROM tgt WHERE field IN (values) with the vertical
// bulk-delete operator. It is the paper's §2 end to end: victim-list
// sorting, the ⋈̸ against the access index, the ⋈̸ against the base table,
// and one ⋈̸ per remaining index — with the physical strategy chosen by
// Options.Method (or the planner, for Auto), reorganization per §2.3, and
// the §3.2 logging protocol when a WAL is supplied.
func Execute(tgt *Target, field int, values []int64, opts Options) (*Stats, error) {
	o := opts.withDefaults()
	if field < 0 || field >= tgt.Schema.NumFields {
		return nil, fmt.Errorf("core: field %d out of range", field)
	}
	ests, method := planStatement(tgt, field, values, o)
	e := &execCtx{tgt: tgt, opts: o}
	stats := &Stats{Method: method, Victims: len(values), Estimates: ests}
	e.stats = stats

	// Cancel checkpoint before any work: stopping here is free (nothing
	// was touched).
	if err := e.checkCancel(); err != nil {
		return nil, phaseErr("admit", tgt.Name, err)
	}

	// Tracing: every execution carries a span tree; an externally supplied
	// trace is appended to (and finished by) its owner.
	tr := o.Trace
	ownTrace := tr == nil
	if ownTrace {
		tr = obs.NewTrace("bulk-delete",
			fmt.Sprintf("table=%s field=%d victims=%d", tgt.Name, field, len(values)),
			traceSource(tgt, o.Log))
	}
	e.trace = tr
	stats.Trace = tr
	root := tr.Root()
	root.Set("method", method.String())
	for _, est := range ests {
		root.Set("estimate["+est.Method.String()+"]", est.Time.String())
	}
	start := e.disk().Clock()

	access := accessIndex(tgt, field)
	rest := remainingIndexes(tgt, access)
	parts := estimatePartitions(tgt, rest, len(values), o.Memory)
	stats.Plan = BuildPlan(tgt, field, method, o.Memory, parts)
	stats.PlanText = stats.Plan.String()

	logged := o.Log != nil
	var victimFile *xsort.RowFile
	if logged {
		err := e.phase("materialize-victims", fmt.Sprintf("%d values → stable storage", len(values)), tgt.Name, func() error {
			if _, err := o.Log.Append(wal.TBegin, o.TxID, 0, 0, nil); err != nil {
				return err
			}
			// Materialize the sorted victim list to stable storage before
			// touching anything (paper §3.2).
			it, err := sortedVictims(e, values)
			if err != nil {
				return err
			}
			defer it.Close()
			if victimFile, err = materializeOn(e, it.Next, keyenc.Int64Width, -1); err != nil {
				return err
			}
			// Payload: victim row count + delete attribute, so recovery can
			// reconstruct the statement without the catalog's help.
			payload := binary.LittleEndian.AppendUint64(nil, uint64(victimFile.Rows()))
			payload = binary.LittleEndian.AppendUint64(payload, uint64(field))
			if _, err := o.Log.Append(wal.TBulkStart, o.TxID,
				uint64(tgt.Heap.ID()), uint64(victimFile.File()), payload); err != nil {
				return err
			}
			o.Stmt.Event(obs.EvWAL, fmt.Sprintf("bulk-start rows=%d field=%d", victimFile.Rows(), field))
			return o.Log.Flush()
		})
		if err != nil {
			return nil, err
		}
	}

	if err := e.run(field, values, method, access, rest, victimFile, nil); err != nil {
		return stats, err
	}
	return stats, e.finish(start, ownTrace)
}

// finish is the epilogue Execute and Resume share. A logged statement makes
// bulk-end + commit durable and only then drops the lists it materialized for
// recovery; then come the timing, the plan annotation and the trace.
func (e *execCtx) finish(start time.Duration, ownTrace bool) error {
	if log := e.opts.Log; log != nil {
		err := e.phase("wal-commit", "bulk-end + commit records", e.tgt.Name, func() error {
			if _, err := log.Append(wal.TBulkEnd, e.opts.TxID, 0, 0, nil); err != nil {
				return err
			}
			if _, err := log.Append(wal.TCommit, e.opts.TxID, 0, 0, nil); err != nil {
				return err
			}
			if err := log.Flush(); err != nil {
				return err
			}
			e.opts.Stmt.Event(obs.EvCommit, "bulk-end + commit durable")
			return nil
		})
		if err == nil {
			dropLists(&err, e.lists...)
		}
		if err != nil {
			return err
		}
	}
	e.stats.Elapsed = e.disk().Clock() - start
	finishTiming(e.stats, e.disk())
	e.trace.Root().Set("deleted", fmt.Sprintf("%d", e.stats.Deleted))
	annotatePlan(e.stats)
	if ownTrace {
		e.trace.Finish()
	}
	return nil
}

// finishTiming derives the wall-clock view of a finished statement. The
// global clock accumulates every charge, so Elapsed is the elapsed time of
// a serial execution; when phase 3 ran in parallel, the makespan replaces
// the parallel section's summed device time with its scheduled length (CPU
// charges of the section stay serial — a conservative accounting, since the
// simulator cannot attribute them to a worker).
func finishTiming(stats *Stats, disk *sim.Disk) {
	stats.Devices = disk.NumDevices()
	if stats.Workers == 0 {
		stats.Workers = 1
	}
	stats.Makespan = stats.Elapsed
	for _, sc := range []*Schedule{stats.HeapSchedule, stats.Schedule} {
		if sc == nil {
			continue
		}
		var sum time.Duration
		for _, it := range sc.Items {
			sum += it.Duration
		}
		stats.Makespan = stats.Makespan - sum + sc.Makespan
	}
}

// resumeState carries recovery positions into run.
type resumeState struct {
	st       wal.BulkState
	ridFile  *xsort.RowFile
	keyFiles map[sim.FileID][]*xsort.RowFile
}

// run executes the phases: it builds each phase's jobs and hands them to
// runPasses. victimFile is non-nil in logged mode; rs is non-nil when
// resuming after a crash.
func (e *execCtx) run(field int, values []int64, method Method,
	access *IndexRef, rest []*IndexRef, victimFile *xsort.RowFile, rs *resumeState) (err error) {

	o := e.opts
	logged := o.Log != nil
	disk := e.disk()

	// Degree of parallelism. Recovery replays serially: the roll-forward
	// has per-structure progress to respect and nothing to gain from
	// overlap it could not also get on the original run.
	e.stats.ParallelRequested = o.Parallel
	maxWorkers := 1
	if o.Parallel > 1 && rs == nil {
		maxWorkers = o.Parallel
	}
	workers := clampWorkers(disk, indexFiles(rest), maxWorkers)
	e.parWorkers = workers
	e.criticalLeft = 1
	for _, ix := range rest {
		if ix.Unique {
			e.criticalLeft++
		}
	}

	// sorts are the sorts of this run that nothing else closes: closing one
	// is what drops its spill file, whether its iterator ran dry, stopped
	// short or — a cancel while it was filling — never came to be.
	var sorts []io.Closer
	defer func() {
		for _, s := range sorts {
			if cerr := s.Close(); cerr != nil && err == nil {
				err = phaseErr("cleanup", "sort spill files", cerr)
			}
		}
	}()

	// victimIter returns a fresh iterator over the sorted victim keys.
	victimIter := func(ce *execCtx) (rowIter, error) {
		if victimFile != nil {
			return victimFile.Iterator(0)
		}
		sp := ce.child("sort-victims", fmt.Sprintf("%d values by key", len(values)))
		it, err := sortedVictims(ce, values)
		sp.Finish()
		if err != nil {
			return nil, err
		}
		sorts = append(sorts, it)
		return it.Next, nil
	}

	// ---- Phase 1: find (and in sort/merge order, delete) the victims in
	// the access index, producing the RID list.
	var ridFile *xsort.RowFile         // materialized sorted RID list (logged)
	var ridIter rowIter                // sorted RID rows (unlogged)
	var ridSet map[record.RID]struct{} // hash method
	addToSet := func(rid record.RID) error {
		ridSet[rid] = struct{}{}
		return nil
	}
	collectRIDs := func(emit func(record.RID) error) error {
		// Sorted first even when the scan below will not read them: the
		// sort's charges are part of every recorded number.
		vi, err := victimIter(e)
		if err != nil {
			return err
		}
		if access == nil {
			vals := values
			if len(vals) == 0 && victimFile != nil {
				// Recovery: decode the materialized victim keys.
				err := victimFile.Iterate(0, func(row []byte) error {
					vals = append(vals, keyenc.Int64(row))
					return nil
				})
				if err != nil {
					return err
				}
			}
			return collectVictimRIDsByScan(e, field, vals, emit)
		}
		_, err = e.indexJoin(access, vi, true, false, emit)
		return err
	}
	// sortedRIDs runs collectRIDs into a RID list and returns it sorted.
	sortedRIDs := func() (*xsort.Iterator, error) {
		rids, err := newRIDList(e)
		if err != nil {
			return nil, err
		}
		sorts = append(sorts, rids.srt)
		if err := collectRIDs(rids.add); err != nil {
			return nil, err
		}
		return rids.sorted()
	}

	if rs != nil && rs.ridFile != nil {
		ridFile = rs.ridFile
	} else if logged {
		collectStruct := e.tgt.Name
		if access != nil {
			collectStruct = access.Name
		}
		err := e.phase("collect-rids", "read-only ⋈̸ → sorted RID list → stable storage", collectStruct, func() error {
			it, err := sortedRIDs()
			if err != nil {
				return err
			}
			if ridFile, err = materializeOn(e, it.Next, record.RIDSize, -1); err != nil {
				return err
			}
			if err := e.logMaterialized(0, ridFile); err != nil {
				return err
			}
			return o.Log.Flush()
		})
		if err != nil {
			return err
		}
	}

	// Destructive pass on the access index. On resume it may already be
	// done; the RID list then comes from disk.
	if access != nil {
		var rids *ridList // unlogged sort/merge: sorted once the pass completes
		job := e.indexJob(access, "merge", func(ce *execCtx) (int64, int, error) {
			vi, err := victimIter(ce)
			if err != nil {
				return 0, 0, err
			}
			// A resumed pass skips its checkpointed prefix; the walk then
			// seeks the first victim left.
			from := resumeFrom(rs, access.Tree.ID())
			for ce.applied = 0; ce.applied < from; ce.applied++ { // keep checkpoint progress absolute
				if _, ok, err := vi(); err != nil || !ok {
					return 0, 0, err
				}
			}
			var emit func(record.RID) error
			if !logged {
				if method == Hash {
					ridSet = make(map[record.RID]struct{}, len(values))
					emit = addToSet
				} else {
					if rids, err = newRIDList(ce); err != nil {
						return 0, 0, err
					}
					sorts = append(sorts, rids.srt)
					emit = rids.add
				}
			}
			deleted, err := ce.indexJoin(access, vi, true, true, emit)
			return deleted, 0, err
		})
		if err := e.runPasses("access-pass", []passJob{job}, 1); err != nil {
			return err
		}
		if rids != nil {
			it, err := rids.sorted()
			if err != nil {
				return phaseErr("access-pass", access.Name, err)
			}
			ridIter = it.Next
		}
	}

	if access == nil && !logged {
		// Victims located by table scan: RIDs arrive already sorted.
		err := e.phase("collect-rids", "table scan → RID list", e.tgt.Name, func() error {
			if method == Hash {
				ridSet = make(map[record.RID]struct{}, len(values))
				return collectRIDs(addToSet)
			}
			it, err := sortedRIDs()
			if err != nil {
				return err
			}
			ridIter = it.Next
			return nil
		})
		if err != nil {
			return err
		}
	}
	if logged && method == Hash {
		// Build the RID hash from the materialized list.
		ridSet = make(map[record.RID]struct{})
		err := ridFile.Iterate(0, func(row []byte) error { return addToSet(record.GetRID(row)) })
		if err != nil {
			return phaseErr("collect-rids", e.tgt.Name, err)
		}
	}

	// ---- Phase 2: the ⋈̸ with the heap. Each heap job deletes its victims
	// and, in the same visit, projects their ⟨key,RID⟩ rows onto every
	// remaining index (the π of Figure 3) into sinks of its own: a sorter
	// per index, or — unlogged hash+partition, whose routing needs no order
	// — a row file. A partitioned heap runs one job per victim partition;
	// the hash method keeps its one-scan-probes-all shape; a resumed run
	// whose key lists are durable projects nothing.
	keyLists := make(map[sim.FileID][]*xsort.RowFile) // per index: one sorted file, or a bucket per heap job
	if rs != nil && len(rs.keyFiles) == len(rest) {
		keyLists = rs.keyFiles
	}
	unsorted := method == HashPartition && !logged
	projecting := method != Hash && len(rest) > 0 && len(keyLists) == 0
	sorters := make(map[sim.FileID][]*xsort.Sorter) // per index, one per heap job
	project := func() (visitFn, error) {
		if !projecting {
			return nil, nil
		}
		add := make(map[sim.FileID]func([]byte) error, len(rest))
		for _, ix := range rest {
			id, size := ix.Tree.ID(), ix.Tree.KeyLen()+record.RIDSize
			if unsorted {
				rf, err := xsort.NewRowFile(disk, size, e.stageDev(ix))
				if err != nil {
					return nil, err
				}
				keyLists[id], add[id] = append(keyLists[id], rf), rf.Append
				continue
			}
			srt, err := xsort.New(disk, size, o.Memory, nil)
			if err != nil {
				return nil, err
			}
			sorts, sorters[id], add[id] = append(sorts, srt), append(sorters[id], srt), srt.Add
		}
		return e.keyRows(rest, add), nil
	}
	// sortedKeys opens an index's projection as one sorted stream.
	sortedKeys := func(id sim.FileID) (rowIter, error) {
		it, err := xsort.Merge(sorters[id])
		if err != nil {
			return nil, err
		}
		return it.Next, nil
	}

	var heapJobs []passJob
	var partFiles []*xsort.RowFile
	defer func() { dropLists(&err, partFiles...) }()
	heapWorkers := 1
	if len(e.tgt.Heap.Parts()) > 1 && method != Hash {
		src := ridIter
		if logged {
			it, err := ridFile.Iterator(0)
			if err != nil {
				return phaseErr("heap-pass", e.tgt.Name, err)
			}
			src = it
		}
		var err error
		if heapJobs, partFiles, err = e.partitionJobs(src, method, rs, maxWorkers > 1, project); err != nil {
			return err
		}
		files := make([]sim.FileID, len(heapJobs))
		for i := range heapJobs {
			files[i] = heapJobs[i].file
		}
		heapWorkers = clampWorkers(disk, files, maxWorkers)
	} else {
		visit, err := project()
		if err != nil {
			return phaseErr("heap-pass", e.tgt.Name, err)
		}
		heapJobs = []passJob{e.heapJob(e.tgt, e.tgt.Name, method, func(ce *execCtx) (int64, int, error) {
			if method == Hash {
				deleted, err := heapDeleteByRIDProbe(ce, ridSet)
				return deleted, 0, err
			}
			it := ridIter
			if logged {
				from := resumeFrom(rs, e.tgt.Heap.ID())
				var err error
				if it, err = ridFile.Iterator(from); err != nil {
					return 0, 0, err
				}
				ce.applied = from // keep checkpoint progress absolute
			}
			deleted, err := heapPassSortedRIDs(ce, it, true, visit)
			return deleted, 0, err
		})}
	}
	if err := e.runPasses("heap-pass", heapJobs, heapWorkers); err != nil {
		return err
	}

	// ---- stage-keys: the projections become the key lists phase 3 reads.
	// A logged run materializes each sorted list — the paper's "results of
	// the join variants should be materialized to stable storage" — and
	// makes them durable together before any index pass starts. A parallel
	// run stages each list on its index's device, so its pass touches only
	// its own arm (sorter state lives on the system device). An unlogged
	// serial sort/merge reads straight out of the sorters in phase 3.
	if projecting && (logged || unsorted || workers > 1) {
		err := e.phase("stage-keys", fmt.Sprintf("%d projected key lists → row files", len(rest)), e.tgt.Name, func() error {
			for _, ix := range rest {
				id := ix.Tree.ID()
				if unsorted {
					for _, rf := range keyLists[id] {
						if err := rf.Seal(); err != nil {
							return err
						}
					}
					continue
				}
				rows, err := sortedKeys(id)
				if err != nil {
					return err
				}
				kf, err := materializeOn(e, rows, ix.Tree.KeyLen()+record.RIDSize, e.stageDev(ix))
				if err != nil {
					return err
				}
				keyLists[id] = []*xsort.RowFile{kf}
				if logged {
					if err := e.logMaterialized(id, kf); err != nil {
						return err
					}
				}
			}
			if logged {
				return o.Log.Flush()
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	// The table and every structure processed so far are durable; the
	// remaining unique indexes go first below.
	e.criticalDone(true)

	// ---- Phase 3: one ⋈̸ per remaining index, unique-first.
	jobs := make([]passJob, len(rest))
	for i, ix := range rest {
		id := ix.Tree.ID()
		jobs[i] = e.indexJob(ix, method.String(), func(ce *execCtx) (int64, int, error) {
			switch {
			case method == Hash:
				deleted, err := walkLeaves(ce, ix, nil, nil, &probeMatcher{e: ce, ix: ix, rids: ridSet}, true, nil)
				return deleted, 0, err
			case method == HashPartition:
				return indexDeletePartitioned(ce, ix, keyLists[id])
			}
			// Sort/merge reads the key list from its row file — logged, or
			// staged for the fan-out — or straight out of the sorters.
			var rows rowIter
			var err error
			if kf := keyLists[id]; kf != nil {
				from := resumeFrom(rs, id)
				if rows, err = kf[0].Iterator(from); err != nil {
					return 0, 0, err
				}
				ce.applied = from // keep checkpoint progress absolute
			} else if rows, err = sortedKeys(id); err != nil {
				return 0, 0, err
			}
			deleted, err := ce.indexJoin(ix, rows, false, true, nil)
			return deleted, 0, err
		})
		jobs[i].unique = ix.Unique
	}
	if err := e.runPasses("index-pass", jobs, workers); err != nil {
		return err
	}

	// The lists are the statement's to drop: an unlogged run is through with
	// them here; a logged one keeps every list recovery would read — victims,
	// RIDs, keys — until finish has made its commit durable.
	lists := []*xsort.RowFile{victimFile, ridFile}
	for _, kl := range keyLists {
		lists = append(lists, kl...)
	}
	if logged {
		e.lists = append(e.lists, lists...)
	} else {
		dropLists(&err, lists...)
	}
	return err
}

// dropLists releases scratch row files (nil entries are lists that never came
// to be). A failed drop is reported through err unless an earlier error
// already is, so it can sit in a defer.
func dropLists(err *error, files ...*xsort.RowFile) {
	for _, rf := range files {
		if rf == nil {
			continue
		}
		if derr := rf.Drop(); derr != nil && *err == nil {
			*err = phaseErr("cleanup", "scratch lists", derr)
		}
	}
}

// keyRows returns a heap job's visit that hands each remaining index's sink,
// keyed by the index's file, the record's ⟨key,RID⟩ row (the π of Figure 3).
// It fills one row per index over and over: every sink copies what it gets.
func (e *execCtx) keyRows(rest []*IndexRef, sinks map[sim.FileID]func([]byte) error) visitFn {
	rows := make([][]byte, len(rest))
	for i, ix := range rest {
		rows[i] = make([]byte, ix.Tree.KeyLen()+record.RIDSize)
	}
	return func(rid record.RID, rec []byte) (bool, error) {
		for i, ix := range rest {
			keyenc.PutInt64(rows[i], e.tgt.Schema.Field(rec, ix.Field))
			record.PutRID(rows[i][ix.Tree.KeyLen():], rid)
			if err := sinks[ix.Tree.ID()](rows[i]); err != nil {
				return false, err
			}
		}
		return false, nil
	}
}

// logMaterialized records that structure's victim list (0 = the RID list)
// now sits in rf, with the row count recovery reopens it by.
func (e *execCtx) logMaterialized(structure sim.FileID, rf *xsort.RowFile) error {
	var rows [8]byte
	binary.LittleEndian.PutUint64(rows[:], uint64(rf.Rows()))
	_, err := e.opts.Log.Append(wal.TMaterialized, e.opts.TxID, uint64(structure), uint64(rf.File()), rows[:])
	return err
}

// materializeOn drains a sorted stream into a sealed row file on device dev
// (dev < 0 = default placement).
func materializeOn(e *execCtx, next rowIter, rowSize int, dev int) (*xsort.RowFile, error) {
	rf, err := xsort.NewRowFile(e.disk(), rowSize, dev)
	if err != nil {
		return nil, err
	}
	for {
		row, ok, err := next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := rf.Append(row); err != nil {
			return nil, err
		}
	}
	if err := rf.Seal(); err != nil {
		return nil, err
	}
	return rf, nil
}

// resumeFrom returns the checkpointed progress for a structure (0 outside
// recovery). It consults the full active-structure map, so progress survives
// even when several structures were in flight at the crash (parallel mode).
func resumeFrom(rs *resumeState, file sim.FileID) int64 {
	if rs == nil {
		return 0
	}
	p, ok := rs.st.ProgressOf(uint64(file))
	if !ok {
		return 0
	}
	return int64(p)
}
