package core

import (
	"encoding/binary"
	"fmt"

	"bulkdel/internal/btree"
	"bulkdel/internal/keyenc"
	"bulkdel/internal/obs"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
	"bulkdel/internal/wal"
	"bulkdel/internal/xsort"
)

// Resume rolls an interrupted bulk delete forward — the paper's §3.2: "to
// save the work done even after a system failure we propose to finish the
// bulk deletion instead of rolling it back as done during traditional
// recovery."
//
// The caller recovers the WAL with wal.Open, distills the interrupted
// bulk delete with wal.AnalyzeBulk, reopens the damaged structures (heap
// and trees) into a fresh Target, and hands everything here. Resume
//
//   - skips structures whose TStructDone made it to the log,
//   - replays the in-progress structure from its last checkpoint (the
//     victim-list prefix before the checkpoint is durable; the suffix is
//     re-applied idempotently thanks to IgnoreMissing),
//   - re-derives nothing from modified structures. The victim and RID
//     lists are durable before the first destructive pass; the key lists
//     the heap pass projects exist only once the whole heap phase is over.
//     So a statement interrupted with a heap pass started and a key list
//     missing finishes the remaining indexes by probing the durable RID
//     list (the hash method), and a heap pass that projects always starts
//     from its first row.
//
// field must identify the delete attribute: it names the access index, and
// the column a re-run of the collect step reads when the RID list was not
// yet durable.
func Resume(tgt *Target, st wal.BulkState, log *wal.Log, recs []wal.Record, field int, opts Options) (*Stats, error) {
	if st.Finished {
		return &Stats{}, nil
	}
	o := opts.withDefaults()
	o.Ctx = nil // the roll-forward itself must never take the cancel path
	o.Log = log
	o.TxID = st.TxID
	o.IgnoreMissing = true
	o.Method = SortMerge // the logged protocol materializes sort/merge lists
	if o.SkipStructures == nil {
		o.SkipStructures = make(map[sim.FileID]bool)
	}
	for f := range st.Done {
		o.SkipStructures[sim.FileID(f)] = true
	}
	e := &execCtx{tgt: tgt, opts: o}
	stats := &Stats{Method: SortMerge}
	e.stats = stats
	tr := o.Trace
	ownTrace := tr == nil
	if ownTrace {
		tr = obs.NewTrace("bulk-delete-resume",
			fmt.Sprintf("table=%s tx=%d field=%d", tgt.Name, st.TxID, field),
			traceSource(tgt, log))
	}
	e.trace = tr
	stats.Trace = tr
	disk := e.disk()
	start := disk.Clock()

	// Reattach the materialized victim list.
	victimRows, err := materializedRows(recs, st.TxID, wal.TBulkStart, st.VictimFile)
	if err != nil {
		return nil, err
	}
	victimFile, err := xsort.OpenRowFile(disk, sim.FileID(st.VictimFile), keyenc.Int64Width, victimRows)
	if err != nil {
		return nil, err
	}
	stats.Victims = int(victimRows)

	rs := &resumeState{st: st, keyFiles: make(map[sim.FileID][]*xsort.RowFile)}
	if rid, ok := st.Materialized[0]; ok {
		rows, err := materializedRows(recs, st.TxID, wal.TMaterialized, rid)
		if err != nil {
			return nil, err
		}
		rs.ridFile, err = xsort.OpenRowFile(disk, sim.FileID(rid), record.RIDSize, rows)
		if err != nil {
			return nil, err
		}
	}
	access := accessIndex(tgt, field)
	rest := remainingIndexes(tgt, access)

	// A crash inside an index's structural change — the walk freeing a leaf
	// it emptied, or merging one into its neighbour (§2.3) — can leave its
	// on-disk structure untraversable or torn (a leaf's entries both in it
	// and in the neighbour it merged into). Detect that per index and fall
	// back to rebuilding the index from the base table — possible exactly
	// because of the protocol's phase ordering: while the access index is
	// being processed the heap is still untouched (rebuilding restores
	// the pre-delete index, and the destructive pass then re-runs), and a
	// secondary index is only processed after the heap pass, so a rebuild
	// from the now-final heap directly produces the index's target state.
	checkOrRebuild := func(ix *IndexRef, final bool) error {
		if o.SkipStructures[ix.Tree.ID()] {
			// Declared done in the log; structDone flushed it before
			// logging, so it is sound by protocol.
			return nil
		}
		if _, err := ix.Tree.RecomputeCount(); err == nil {
			// Structurally sound; the walked entry count replaced the
			// cached header value, which can drift when evicted leaf
			// writes outran the last meta-page flush before the crash.
			return nil
		}
		err := ix.Tree.ResetEmpty()
		if err == nil {
			err = tgt.BuildIndex(ix.Tree, ix.Field, e.opts.Memory)
		}
		if err == nil {
			err = ix.Tree.Flush()
		}
		if err != nil {
			return fmt.Errorf("core: rebuilding damaged index %s: %w", ix.Name, err)
		}
		// Any checkpointed progress inside this structure refers to the
		// damaged incarnation; the rebuilt one starts over.
		rs.st.ClearActive(uint64(ix.Tree.ID()))
		if final {
			// The heap no longer holds the victims: the rebuilt index
			// is already in its target state.
			o.SkipStructures[ix.Tree.ID()] = true
			e.opts.SkipStructures = o.SkipStructures
		}
		return nil
	}
	// A partitioned sort/merge heap pass logs per-partition progress, so
	// "heap done" means every partition file is done and "heap started"
	// means any partition was logged at all. Partitions without victims
	// never log, so heapDone can read conservatively false after a late
	// crash — safe, since it only widens the idempotent re-passes below.
	heapDone, heapStarted := true, false
	for _, f := range tgt.HeapFiles() {
		if st.Done[uint64(f)] {
			heapStarted = true
		} else {
			heapDone = false
		}
		if _, ok := st.ProgressOf(uint64(f)); ok {
			heapStarted = true
		}
	}
	if access != nil {
		if err := checkOrRebuild(access, heapDone); err != nil {
			return nil, err
		}
	}
	for _, ix := range rest {
		if err := checkOrRebuild(ix, heapDone); err != nil {
			return nil, err
		}
	}

	for _, ix := range rest {
		f, ok := st.Materialized[uint64(ix.Tree.ID())]
		if !ok {
			continue
		}
		rows, err := materializedRows(recs, st.TxID, wal.TMaterialized, f)
		if err != nil {
			return nil, err
		}
		kf, err := xsort.OpenRowFile(disk, sim.FileID(f), ix.Tree.KeyLen()+record.RIDSize, rows)
		if err != nil {
			return nil, err
		}
		rs.keyFiles[ix.Tree.ID()] = []*xsort.RowFile{kf}
	}
	method := SortMerge
	if len(rs.keyFiles) != len(rest) {
		// An incomplete set is not used, but it is still this statement's.
		for _, kf := range rs.keyFiles {
			e.lists = append(e.lists, kf...)
		}
		rs.keyFiles = nil
		if heapStarted && rs.ridFile != nil {
			// The heap phase began but its key lists never all became
			// durable: the statement ran the hash method, or it was
			// interrupted before stage-keys logged the lists its heap
			// pass projected. Keys cannot be re-projected (the heap no
			// longer holds every victim), but the RID list is durable,
			// so finish the remaining structures the way the hash
			// method does — probe every entry's RID against the set.
			// The probes are idempotent, so a re-crash during this
			// resume is safe. The hash heap job scans every partition
			// under partition 0's file, so it must not inherit that
			// file's done mark while another partition is still open.
			method = Hash
			if !heapDone {
				for _, f := range tgt.HeapFiles() {
					delete(o.SkipStructures, f)
				}
			}
		}
		// Otherwise the heap is untouched; run() re-runs its pass as
		// sort/merge, projecting the key lists from the start.
	}
	stats.Method = method
	o.Method = method
	e.opts = o

	stats.Plan = BuildPlan(tgt, field, method, o.Memory,
		estimatePartitions(tgt, rest, stats.Victims, o.Memory))
	stats.PlanText = stats.Plan.String()

	if err := e.run(field, nil, method, access, rest, victimFile, rs); err != nil {
		return stats, err
	}
	return stats, e.finish(start, ownTrace)
}

// BuildIndex fills tree, an empty index on field, from the heap: one scan
// feeding an external sort of the ⟨key,RID⟩ pairs under budget bytes,
// feeding a bottom-up bulk load. Index creation and recovery's rebuild of a
// damaged index are this one recipe.
func (tgt *Target) BuildIndex(tree *btree.Tree, field, budget int) error {
	kl := tree.KeyLen()
	srt, err := xsort.New(tgt.Pool.Disk(), kl+record.RIDSize, budget, nil)
	if err != nil {
		return err
	}
	row := make([]byte, kl+record.RIDSize)
	err = tgt.Heap.Scan(func(rid record.RID, rec []byte) error {
		clear(row)
		keyenc.PutInt64(row, tgt.Schema.Field(rec, field))
		record.PutRID(row[kl:], rid)
		return srt.Add(row)
	})
	if err != nil {
		return err
	}
	it, err := srt.Finish()
	if err != nil {
		return err
	}
	defer it.Close()
	key := make([]byte, kl)
	return tree.BulkLoad(func() (btree.Entry, bool, error) {
		r, ok, err := it.Next()
		if err != nil || !ok {
			return btree.Entry{}, false, err
		}
		copy(key, r[:kl])
		return btree.Entry{Key: key, RID: record.GetRID(r[kl:])}, true, nil
	}, 1.0)
}

// BulkStartField extracts the delete attribute recorded in the TBulkStart
// payload (victim row count, delete attribute), so an engine can resume
// without consulting its catalog.
func BulkStartField(recs []wal.Record, txID uint64) (int, bool) {
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		if r.Type == wal.TBulkStart && r.TxID == txID && len(r.Payload) >= 16 {
			return int(binary.LittleEndian.Uint64(r.Payload[8:])), true
		}
	}
	return 0, false
}

// materializedRows finds the row count recorded in the payload of the log
// record that registered a materialized file.
func materializedRows(recs []wal.Record, txID uint64, typ wal.Type, file uint64) (int64, error) {
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		if r.Type != typ || r.TxID != txID {
			continue
		}
		if (typ == wal.TBulkStart && r.B == file) || (typ == wal.TMaterialized && r.B == file) {
			if len(r.Payload) < 8 {
				return 0, fmt.Errorf("core: log record for file %d lacks a row count", file)
			}
			return int64(binary.LittleEndian.Uint64(r.Payload)), nil
		}
	}
	return 0, fmt.Errorf("core: no log record found for materialized file %d", file)
}
