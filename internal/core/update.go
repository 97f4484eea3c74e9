package core

import (
	"fmt"
	"time"

	"bulkdel/internal/btree"
	"bulkdel/internal/keyenc"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
	"bulkdel/internal/xsort"
)

// UpdateStats reports one bulk update execution.
type UpdateStats struct {
	Updated      int64
	Victims      int
	EntriesMoved int64 // index entries deleted + reinserted
	Elapsed      time.Duration
}

// ExecuteUpdate runs
//
//	UPDATE tgt SET setField = transform(setField) WHERE predField IN (values)
//
// vertically, the way the paper's introduction sketches for "increasing the
// salary of above-average Employees": the statement "involves carrying out
// a bulk delete (and bulk insert) on the Emp.salary index". Phases:
//
//  1. the victims are located through the access index on predField (or a
//     table scan), yielding a RID list sorted by physical position;
//  2. one pass over the table updates the records in place (records are
//     fixed-width, so they never move) and projects the ⟨old key, RID⟩ and
//     ⟨new key, RID⟩ lists for every index over setField;
//  3. each such index gets a sort/merge bulk delete of the old entries
//     followed by a bulk insert of the new ones (sorted, so the inserts
//     walk the tree in key order). Indexes over other attributes are
//     untouched — the vertical decomposition makes that free.
//
// Updates are not WAL-protected; the paper's recovery protocol covers bulk
// deletes only, and extending it to updates is listed as future work in
// DESIGN.md.
func ExecuteUpdate(tgt *Target, predField int, values []int64, setField int,
	transform func(int64) int64, opts Options) (*UpdateStats, error) {

	o := opts.withDefaults()
	if predField < 0 || predField >= tgt.Schema.NumFields {
		return nil, fmt.Errorf("core: predicate field %d out of range", predField)
	}
	if setField < 0 || setField >= tgt.Schema.NumFields {
		return nil, fmt.Errorf("core: set field %d out of range", setField)
	}
	if transform == nil {
		return nil, fmt.Errorf("core: nil transform")
	}
	if o.Log != nil {
		return nil, fmt.Errorf("core: bulk updates do not support WAL logging yet")
	}
	e := &execCtx{tgt: tgt, opts: o}
	stats := &UpdateStats{Victims: len(values)}
	disk := e.disk()
	start := disk.Clock()

	// Indexes over setField need delete+insert; if predField == setField
	// the access index is among them.
	var touched []*IndexRef
	for i := range tgt.Indexes {
		if tgt.Indexes[i].Field == setField {
			touched = append(touched, &tgt.Indexes[i])
		}
	}

	// ---- Phase 1: victim RIDs, sorted by physical position.
	rids, err := newRIDList(e)
	if err != nil {
		return nil, err
	}
	defer rids.srt.Close()
	if err := collectVictimRIDs(e, predField, values, rids.add); err != nil {
		return nil, err
	}
	ridIt, err := rids.sorted()
	if err != nil {
		return nil, err
	}

	// ---- Phase 2: update records in place, projecting old/new entries.
	oldSorters := make(map[sim.FileID]*xsort.Sorter, len(touched))
	newSorters := make(map[sim.FileID]*xsort.Sorter, len(touched))
	for _, ix := range touched {
		rowSize := ix.Tree.KeyLen() + record.RIDSize
		os, err := xsort.New(disk, rowSize, o.Memory, nil)
		if err != nil {
			return nil, err
		}
		ns, err := xsort.New(disk, rowSize, o.Memory, nil)
		if err != nil {
			return nil, err
		}
		oldSorters[ix.Tree.ID()] = os
		newSorters[ix.Tree.ID()] = ns
		defer os.Close()
		defer ns.Close()
	}

	// One row buffer per index, filled for every record: the sorters copy.
	bufs := make([][]byte, len(touched))
	for i, ix := range touched {
		bufs[i] = make([]byte, ix.Tree.KeyLen()+record.RIDSize)
	}
	_, err = heapPassSortedRIDs(e, ridIt.Next, false, func(rid record.RID, rec []byte) (bool, error) {
		oldVal := tgt.Schema.Field(rec, setField)
		newVal := transform(oldVal)
		if newVal == oldVal {
			return false, nil // no index churn, no write
		}
		for i, ix := range touched {
			buf := bufs[i]
			keyenc.PutInt64(buf, oldVal)
			record.PutRID(buf[ix.Tree.KeyLen():], rid)
			if err := oldSorters[ix.Tree.ID()].Add(buf); err != nil {
				return false, err
			}
			keyenc.PutInt64(buf, newVal)
			if err := newSorters[ix.Tree.ID()].Add(buf); err != nil {
				return false, err
			}
		}
		// In-place mutation: the record is aliased into the pinned page.
		tgt.Schema.SetField(rec, setField, newVal)
		disk.ChargeRecords(1)
		stats.Updated++
		return true, nil
	})
	if err != nil {
		return nil, err
	}

	// ---- Phase 3: per index over setField, bulk delete the old entries
	// and bulk insert the new ones.
	for _, ix := range touched {
		oit, err := oldSorters[ix.Tree.ID()].Finish()
		if err != nil {
			return nil, err
		}
		del, err := e.indexJoin(ix, oit.Next, false, true, nil)
		if err != nil {
			return nil, err
		}
		stats.EntriesMoved += del
		nit, err := newSorters[ix.Tree.ID()].Finish()
		if err != nil {
			return nil, err
		}
		for {
			row, ok, err := nit.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			key := row[:ix.Tree.KeyLen()]
			rid := record.GetRID(row[ix.Tree.KeyLen():])
			if err := ix.Tree.Insert(key, rid); err != nil {
				if err == btree.ErrDuplicateKey {
					return nil, fmt.Errorf("core: bulk update violates unique index %s: %w", ix.Name, err)
				}
				return nil, err
			}
			stats.EntriesMoved++
		}
	}
	stats.Elapsed = disk.Clock() - start
	return stats, nil
}
