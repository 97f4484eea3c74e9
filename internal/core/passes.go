package core

import (
	"fmt"

	"bulkdel/internal/btree"
	"bulkdel/internal/heap"
	"bulkdel/internal/obs"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
	"bulkdel/internal/xsort"
)

// passJob is one structure's ⋈̸ pass: the access index, the heap (or one of
// its partitions), or a remaining index. run builds the jobs; runPasses
// executes them. A job touches one structure file plus lists staged for it,
// so the jobs of a phase are mutually independent.
type passJob struct {
	label  string     // structure name: stats row, schedule node, error text
	detail string     // span detail, the plan node's operator text
	file   sim.FileID // what TStructStart / TCheckpoint / TStructDone name
	dev    int        // the device file lives on
	// unique marks a remaining unique index, one of the structures the
	// §3.1 critical point waits for; run sets it on phase 3's jobs.
	unique bool
	// tree is the index an index job walks and flushes; nil makes it a heap
	// job, which flushes tgt.Heap and counts into Stats.Deleted.
	tree *btree.Tree
	// tgt is the target the body runs against: the statement's, or for a
	// partition job a copy whose Heap is a one-partition view of the
	// partition file, so checkpoints and page edits address it directly.
	tgt *Target
	// body is the join kernel between the WAL's struct-start and
	// struct-done records. It stays a closure so that what it opens — a
	// sorter's Finish, a row file's iterator — opens when the pass starts.
	body func(ce *execCtx) (deleted int64, parts int, err error)
}

// indexJob is ix's pass; join names its ⋈̸ method.
func (e *execCtx) indexJob(ix *IndexRef, join string,
	body func(*execCtx) (int64, int, error)) passJob {

	return passJob{label: ix.Name, detail: fmt.Sprintf("⋈̸[%s] %s (by key)", join, ix.Name),
		file: ix.Tree.ID(), dev: e.disk().DeviceOf(ix.Tree.ID()),
		tree: ix.Tree, tgt: e.tgt, body: body}
}

func (e *execCtx) heapJob(tgt *Target, label string, method Method,
	body func(*execCtx) (int64, int, error)) passJob {

	return passJob{label: label, detail: fmt.Sprintf("⋈̸[%s] %s (by RID)", method, label),
		file: tgt.Heap.ID(), dev: e.disk().DeviceOf(tgt.Heap.ID()), tgt: tgt, body: body}
}

// run brackets the body with the §3.2 structure records on the job's own
// context: checkpoint progress is per structure, and the WAL's BulkState
// tracks every structure in flight, not just the last one started.
func (j *passJob) run(ce *execCtx) (deleted int64, parts int, err error) {
	kind, flush := uint64(0), ce.tgt.Heap.Flush
	if j.tree != nil {
		kind, flush = 1, j.tree.Flush
	}
	if err := ce.structStart(j.file, kind); err != nil {
		return 0, 0, err
	}
	if deleted, parts, err = j.body(ce); err != nil {
		return deleted, parts, err
	}
	// The walk freed every leaf it emptied or merged, so the inner levels
	// are exact as they stand.
	return deleted, parts, ce.structDone(j.file, flush)
}

// runPasses executes the jobs of one phase ("access-pass", "heap-pass" or
// "index-pass") and is the only place a pass gets its context, its
// structure records, its stats row and its span. Jobs recovery already
// finished are skipped; the rest run inline, in plan order, each under its
// own phase span, and a job boundary is a cancel checkpoint (structStart).
//
// With workers == 1 a job's I/O is its span's diff. With workers > 1 the
// phase is a parallel section of the plan DAG: each job stages its scratch
// files on its own device (execCtx.scratchDev), its I/O is the delta of its
// device's and its pool shard's counters — what it would cost on an arm of
// its own, leaving out the WAL bytes and CPU charges the jobs share — and
// those deltas are list-scheduled onto `workers` virtual workers
// (planSchedule). The schedule, not the serial run, gives the section's
// share of Stats.Makespan, and each span carries its job's place in it.
func (e *execCtx) runPasses(phase string, jobs []passJob, workers int) error {
	if cb := e.opts.OnPassesStart; cb != nil {
		e.opts.OnPassesStart = nil
		cb()
	}
	disk, pool, stats := e.disk(), e.tgt.Pool, e.stats
	par := workers > 1
	// device reads the counters of one arm and its pool shard.
	device := func(dev int) obs.Snapshot {
		return obs.Snapshot{Clock: disk.DeviceBusy(dev), Disk: disk.DeviceStats(dev), Pool: pool.ShardStats(dev)}
	}
	var items []Item
	var spans []*obs.Span
	for i := range jobs {
		j := &jobs[i]
		if e.skip(j.file) {
			e.criticalDone(j.unique)
			continue
		}
		sp := e.span(phase, j.detail)
		// Nested spans and crash-injection counting stay statement-wide.
		ce := &execCtx{tgt: j.tgt, opts: e.opts, trace: e.trace, cur: sp, crash: e.crash, scratchDev: e.scratchDev}
		t0 := disk.Clock()
		var before obs.Snapshot
		if par {
			ce.scratchDev = j.dev
			e.opts.Stmt.EventDev(obs.EvNodeStart, j.label, j.dev)
			before = device(j.dev)
		}
		deleted, parts, err := j.run(ce)
		e.crash = ce.crash
		if err != nil {
			return phaseErr(phase, j.label, err)
		}
		var io obs.Delta
		if par {
			io = device(j.dev).Sub(before)
			sp.FinishWith(io)
			e.opts.Stmt.EventDev(obs.EvNodeFinish, j.label, j.dev)
			items = append(items, Item{Label: j.label, Device: j.dev, Duration: io.Elapsed})
			spans = append(spans, sp)
		} else {
			sp.Finish()
			io = sp.Delta()
			io.Elapsed = disk.Clock() - t0
		}
		var leaves int64
		if j.tree == nil {
			stats.Deleted += deleted
		} else {
			leaves = j.tree.Leaves()
		}
		stats.Partitions = max(stats.Partitions, parts)
		stats.PerStructure = append(stats.PerStructure, StructStats{
			Name: j.label, File: j.file, Deleted: deleted, Elapsed: io.Elapsed,
			Reads: io.Reads, Writes: io.Writes, Seeks: io.Seeks,
			Hits: io.Hits, Misses: io.Misses, WALBytes: io.WALBytes,
			LeavesMerged: ce.merged, Leaves: leaves,
		})
		e.criticalDone(j.unique)
	}
	if len(items) == 0 {
		return nil
	}
	sc := planSchedule(workers, items)
	if jobs[0].tree == nil {
		stats.HeapSchedule = sc
	} else {
		stats.Schedule = sc
	}
	stats.Workers = workers
	for i, it := range sc.Items {
		spans[i].Set("worker", fmt.Sprintf("%d", it.Worker))
		spans[i].Set("device", fmt.Sprintf("%d", it.Device))
		spans[i].Set("start", it.Start.String())
		spans[i].Set("finish", it.Finish.String())
	}
	return nil
}

// criticalDone takes one token off the §3.1 critical count when counted is
// set and fires OnCriticalDone once the count reaches zero: the heap and
// every unique index are processed, the point where the paper releases the
// table lock.
func (e *execCtx) criticalDone(counted bool) {
	if !counted {
		return
	}
	e.criticalLeft--
	if e.criticalLeft == 0 && e.opts.OnCriticalDone != nil {
		e.opts.OnCriticalDone()
		e.opts.OnCriticalDone = nil
	}
}

func indexFiles(rest []*IndexRef) []sim.FileID {
	files := make([]sim.FileID, len(rest))
	for i, ix := range rest {
		files[i] = ix.Tree.ID()
	}
	return files
}

// clampWorkers bounds a worker cap by the passes there are to run and by
// the distinct devices their files live on: two passes sharing one arm
// cannot overlap, so extra workers would idle.
func clampWorkers(disk *sim.Disk, files []sim.FileID, limit int) int {
	devs := make(map[int]bool, len(files))
	for _, f := range files {
		devs[disk.DeviceOf(f)] = true
	}
	return max(1, min(limit, len(files), len(devs)))
}

// stageDev returns the device an index's intermediate key list should be
// staged on: the index's own device when phase 3 will run in parallel (the
// pass must only touch its own arm), or -1 (default placement) serially.
func (e *execCtx) stageDev(ix *IndexRef) int {
	if e.parWorkers <= 1 {
		return -1
	}
	return e.disk().DeviceOf(ix.Tree.ID())
}

// partitionJobs builds the heap phase over a partitioned heap: one job per
// partition that has victims. The sorted RID list is partition-tagged (the
// partition ordinal lives in the high page bits, so RID order is
// partition-major), which makes the split one sequential pass into a row
// file of raw RIDs — the page numbers a partition's own editor understands
// — per partition, staged on the partition's device when the jobs may run
// in parallel. WAL progress is per partition file, so a crash resumes
// exactly the partitions still open when nothing is projected (Resume
// finishes a projecting heap phase on the RID list instead); partition 0
// shares the table's heap ID, keeping recovery's "which statement owns this
// heap" match unchanged. Each job gets its own projection from project (a
// nil visit: none), so no sink is shared between workers. The returned
// files are the caller's to drop (dropLists), also on error.
func (e *execCtx) partitionJobs(src rowIter, method Method, rs *resumeState, par bool,
	project func() (visitFn, error)) ([]passJob, []*xsort.RowFile, error) {
	disk := e.disk()
	parts := e.tgt.Heap.Parts()
	files := make([]*xsort.RowFile, len(parts))
	err := e.phase("heap-split", fmt.Sprintf("route sorted RID list into %d partition lists", len(parts)), e.tgt.Name, func() error {
		var raw [record.RIDSize]byte
		for {
			row, ok, err := src()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			rid := record.GetRID(row)
			pi, page := heap.SplitPage(rid.Page)
			if pi >= len(parts) {
				return fmt.Errorf("core: RID %s names partition %d of %d", rid, pi, len(parts))
			}
			if files[pi] == nil {
				dev := -1
				if par {
					dev = disk.DeviceOf(parts[pi].ID())
				}
				if files[pi], err = xsort.NewRowFile(disk, record.RIDSize, dev); err != nil {
					return err
				}
			}
			record.PutRID(raw[:], record.RID{Page: page, Slot: rid.Slot})
			if err := files[pi].Append(raw[:]); err != nil {
				return err
			}
		}
		for _, rf := range files {
			if rf != nil {
				if err := rf.Seal(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, files, err
	}

	var jobs []passJob
	for pi, part := range parts {
		rids := files[pi]
		if rids == nil || e.skip(part.ID()) {
			continue
		}
		count := rids.Rows()
		// The child target's heap is a one-partition view of the partition
		// file, addressed with raw page numbers, so checkpoints flush that
		// file alone; its part makes the pass hand Retain and the projection
		// table-level (partition-tagged) RIDs.
		tgt := *e.tgt
		tgt.Heap, tgt.part = e.tgt.Heap.Part(pi), pi
		visit, err := project()
		if err != nil {
			return nil, files, err
		}
		jobs = append(jobs, e.heapJob(&tgt, PartName(e.tgt.Name, pi), method, func(ce *execCtx) (int64, int, error) {
			// A first attempt whose victim list covers the whole partition
			// drops the data pages by truncation instead of merging record
			// by record — the metadata-only fast path a whole-partition
			// drop deserves. A resumed one always merges: the partition's
			// live count no longer says what the victim list covered.
			if rs == nil && count == part.Count() {
				// TruncateWith keeps the metadata-only drop when snapshot
				// reads are off and nothing is projected; otherwise its
				// per-record hook retains and projects every record before
				// the pages go — retention unconditionally, because a
				// reader may register a snapshot at any point before the
				// statement's commit epoch is stamped and is then entitled
				// to these rows.
				var hook func(record.RID, []byte)
				var verr error
				if ce.tgt.Retain != nil || visit != nil {
					hook = func(rid record.RID, rec []byte) {
						rid.Page = heap.TagPage(pi, rid.Page)
						if ce.tgt.Retain != nil {
							ce.tgt.Retain(rid, rec)
						}
						if visit != nil && verr == nil {
							_, verr = visit(rid, rec)
						}
					}
				}
				if err := part.TruncateWith(hook); err != nil {
					return 0, 0, err
				}
				if verr != nil {
					return 0, 0, verr
				}
				if hook := ce.tgt.Hooks.PostTruncate; hook != nil {
					hook()
				}
				return count, 0, nil
			}
			from := resumeFrom(rs, part.ID())
			it, err := rids.Iterator(from)
			if err != nil {
				return 0, 0, err
			}
			ce.applied = from // keep checkpoint progress absolute
			deleted, err := heapPassSortedRIDs(ce, it, true, visit)
			return deleted, 0, err
		}))
	}
	return jobs, files, nil
}
