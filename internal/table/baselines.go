package table

import (
	"fmt"
	"sort"

	"bulkdel/internal/btree"
)

// TraditionalDelete executes DELETE FROM t WHERE t.field IN (values) the
// way the paper describes traditional systems doing it — horizontally:
// for each victim key, probe the access-path index, and for each matching
// record delete it from the heap and *immediately* from every index, each
// B-tree traversed root-to-leaf individually.
//
// sortValues selects the paper's "sorted/trad" variant: the victim list is
// sorted first, which makes the index probes and (on a clustered index)
// the heap accesses sequential-ish. Without it this is "not sorted/trad",
// the behaviour the paper measured on a commercial RDBMS in Figure 1.
//
// It returns the number of deleted records.
func (t *Table) TraditionalDelete(field int, values []int64, sortValues bool) (int64, error) {
	access := t.IndexOnField(field)
	if access == nil {
		return 0, fmt.Errorf("table %s: traditional delete needs an index on field %d", t.Name, field)
	}
	vals := values
	if sortValues {
		vals = append([]int64(nil), values...)
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		// Sorting the victim list is CPU work: n log n comparisons.
		n := len(vals)
		cmps := 0
		for m := n; m > 1; m >>= 1 {
			cmps += n
		}
		t.pool.Disk().ChargeCompares(cmps)
	}
	var deleted int64
	for _, v := range vals {
		rids, err := access.Tree.Search(access.EncodeKey(v))
		if err != nil {
			return deleted, err
		}
		for _, rid := range rids {
			// Read the record to learn the other indexes' keys.
			rec, err := t.Heap.Get(rid)
			if err != nil {
				return deleted, err
			}
			if err := t.Heap.Delete(rid); err != nil {
				return deleted, err
			}
			// Record-at-a-time: every index traversed root-to-leaf
			// for this single record.
			for _, ix := range t.Idx {
				key := ix.EncodeKey(t.Schema.Field(rec, ix.Def.Field))
				if err := ix.Tree.Delete(key, rid); err != nil {
					return deleted, fmt.Errorf("index %s: %w", ix.Def.Name, err)
				}
			}
			deleted++
		}
	}
	return deleted, nil
}

// DropCreateDelete executes the drop-&-create baseline from the paper's
// introduction: drop every index except the access path, run the
// traditional delete (now cheap — only one index to maintain), and rebuild
// the dropped indexes from scratch with scan + sort + bulk load.
func (t *Table) DropCreateDelete(field int, values []int64, sortValues bool) (int64, error) {
	access := t.IndexOnField(field)
	if access == nil {
		return 0, fmt.Errorf("table %s: drop&create delete needs an index on field %d", t.Name, field)
	}
	var dropped []IndexDef
	for _, ix := range append([]*Index(nil), t.Idx...) {
		if ix == access {
			continue
		}
		dropped = append(dropped, ix.Def)
		if err := t.DropIndex(ix.Def.Name); err != nil {
			return 0, err
		}
	}
	deleted, err := t.TraditionalDelete(field, values, sortValues)
	if err != nil {
		return deleted, err
	}
	for _, def := range dropped {
		if _, err := t.CreateIndex(def); err != nil {
			return deleted, fmt.Errorf("rebuilding index %s: %w", def.Name, err)
		}
	}
	return deleted, nil
}

// SetPolicyAll sets the traditional-delete page reclamation policy on every
// index (free-at-empty vs merge-at-half ablation).
func (t *Table) SetPolicyAll(p btree.Policy) {
	for _, ix := range t.Idx {
		ix.Tree.SetPolicy(p)
	}
}
