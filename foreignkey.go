package bulkdel

import (
	"fmt"
	"slices"

	"bulkdel/internal/cc"
	"bulkdel/internal/core"
	"bulkdel/internal/obs"
)

// The paper folds referential-integrity checking into the same vertical
// machinery as the index maintenance (§2.1): "integrity constraints can be
// processed more efficiently using a vertical approach. We propose to check
// integrity constraints in such a vertical way as early as possible and
// before deleting records from the table and the indices so that no work
// needs to be undone if an integrity constraint fails." This file
// implements that for single-attribute foreign keys:
//
//   - RESTRICT: before anything is modified, the sorted victim keys are
//     merged read-only against the child's index; one hit aborts the whole
//     statement with ErrRestricted — zero work to undo.
//   - CASCADE: the victim keys become the victim list of a recursive bulk
//     delete on the child table (which may cascade further).

// RefAction selects what a bulk delete does to referencing child rows.
type RefAction int

const (
	// Restrict aborts the delete when any child row references a victim.
	Restrict RefAction = iota
	// Cascade bulk-deletes the referencing child rows first.
	Cascade
)

func (a RefAction) String() string {
	if a == Cascade {
		return "cascade"
	}
	return "restrict"
}

// ForeignKey declares that child.childField references parent.parentField.
type ForeignKey struct {
	Child       *Table
	ChildField  int
	Parent      *Table
	ParentField int
	OnDelete    RefAction
}

// ErrRestricted is returned when a RESTRICT foreign key blocks a bulk
// delete; the database is untouched.
type ErrRestricted struct {
	Parent, Child string
	ChildField    int
}

func (e *ErrRestricted) Error() string {
	return fmt.Sprintf("bulkdel: delete from %s restricted: %s.field%d references victim keys",
		e.Parent, e.Child, e.ChildField)
}

// AddForeignKey registers a foreign key: child.childField references
// parent.parentField. The child must have an index on childField — the
// vertical constraint check and the cascade both run through it. Both
// tables must be heap-backed: an LSM delete writes tombstones without
// enumerating its victims, so the vertical phase would have nothing to
// probe (parent), and an LSM table has no index to probe through (child).
func (db *DB) AddForeignKey(child *Table, childField int, parent *Table, parentField int, onDelete RefAction) error {
	if db.crashed.Load() {
		return errCrashed
	}
	if child == nil || parent == nil {
		return fmt.Errorf("bulkdel: foreign key needs both tables")
	}
	if childField < 0 || childField >= child.NumFields() {
		return fmt.Errorf("bulkdel: child field %d out of range", childField)
	}
	if parentField < 0 || parentField >= parent.NumFields() {
		return fmt.Errorf("bulkdel: parent field %d out of range", parentField)
	}
	c, err := child.heap()
	if err == nil {
		_, err = parent.heap()
	}
	if err != nil {
		return fmt.Errorf("bulkdel: foreign key %s -> %s: %w", child.name, parent.name, err)
	}
	if c.t.IndexOnField(childField) == nil {
		return fmt.Errorf("bulkdel: foreign key requires an index on %s.field%d",
			child.Name(), childField)
	}
	db.mu.Lock()
	db.fks = append(db.fks, ForeignKey{
		Child: child, ChildField: childField,
		Parent: parent, ParentField: parentField,
		OnDelete: onDelete,
	})
	db.mu.Unlock()
	return db.saveCatalog()
}

// ForeignKeys returns the declared foreign keys.
func (db *DB) ForeignKeys() []ForeignKey {
	db.mu.Lock()
	defer db.mu.Unlock()
	return append([]ForeignKey(nil), db.fks...)
}

// enforceForeignKeys runs the vertical RI phase of a bulk delete on h:
// RESTRICT probes first (so nothing is undone on failure), then CASCADEs
// recursively. It returns the number of cascaded deletions. The locks for
// every table touched here — RESTRICT children shared, CASCADE children
// exclusive — are already in held (acquired at depth 0 in deterministic
// order by DB.deleteFootprint); nothing is acquired at this level. fks is
// the snapshot that footprint was computed from: enforcing the live list
// instead would let an AddForeignKey landing mid-statement cascade into a
// child whose lock was never acquired.
func (db *DB) enforceForeignKeys(h *heapBackend, field int, values []int64, opts BulkOptions, depth int, stmt *obs.Stmt, held *cc.Held, fks []ForeignKey) (int64, error) {
	if depth > 16 {
		return 0, fmt.Errorf("bulkdel: foreign-key cascade deeper than 16 levels (cycle?)")
	}
	// Split the table's foreign keys by whether their referenced parent
	// attribute is the delete attribute (victims are directly the
	// referenced keys) or another one (the doomed rows' values of that
	// attribute must be projected first, read-only).
	var direct, indirect []ForeignKey
	for _, fk := range fks {
		if fk.Parent != h.tbl {
			continue
		}
		if fk.ParentField == field {
			direct = append(direct, fk)
		} else {
			indirect = append(indirect, fk)
		}
	}
	if len(direct) == 0 && len(indirect) == 0 {
		return 0, nil
	}

	// Project the doomed rows' values for indirectly referenced fields —
	// one read-only vertical pass shared by all of them.
	keysFor := func(fk ForeignKey) []int64 { return values }
	if len(indirect) > 0 {
		want := make([]int, 0, len(indirect))
		seenF := map[int]bool{}
		for _, fk := range indirect {
			if !seenF[fk.ParentField] {
				seenF[fk.ParentField] = true
				want = append(want, fk.ParentField)
			}
		}
		projected, err := core.CollectVictimFieldValues(h.target(), field, values, want, opts.Memory)
		if err != nil {
			return 0, err
		}
		for f, vals := range projected {
			projected[f] = dedupInt64(vals)
		}
		keysFor = func(fk ForeignKey) []int64 {
			if fk.ParentField == field {
				return values
			}
			return projected[fk.ParentField]
		}
	}

	// tfks is this table's slice of the statement snapshot, probe-ordered.
	tfks := append(append([]ForeignKey(nil), direct...), indirect...)
	// Phase 1: all RESTRICT probes, before any modification anywhere.
	for _, fk := range tfks {
		if fk.OnDelete != Restrict {
			continue
		}
		child, err := fk.Child.heap()
		if err != nil {
			return 0, err
		}
		// The probe walks the child's leaf chain while the child is at most
		// share-locked; the ref's latch closes the torn-leaf window against
		// the child's own online updaters (see the FK probe race audit test).
		tgt := child.target()
		i := slices.IndexFunc(tgt.Indexes, func(ix core.IndexRef) bool { return ix.Field == fk.ChildField })
		if i < 0 {
			return 0, fmt.Errorf("bulkdel: table %s lost its index on field %d", fk.Child.Name(), fk.ChildField)
		}
		hit, err := core.AnyKeyMatch(tgt, &tgt.Indexes[i], keysFor(fk), opts.Memory)
		if err != nil {
			return 0, err
		}
		if hit {
			return 0, &ErrRestricted{
				Parent: h.t.Name, Child: fk.Child.Name(), ChildField: fk.ChildField,
			}
		}
	}
	// Phase 2: cascades (each child delete enforces its own FKs first).
	var cascaded int64
	for _, fk := range tfks {
		if fk.OnDelete != Cascade {
			continue
		}
		keys := keysFor(fk)
		if len(keys) == 0 {
			continue
		}
		// Invariant check: the footprint was computed from the same FK
		// snapshot, so the child's exclusive lock must still be in held
		// (cascade children are never released before ReleaseAll).
		if mode, ok := held.Holds(fk.Child.Name()); !ok || mode != cc.Exclusive {
			return cascaded, fmt.Errorf("bulkdel: internal: cascade into %s without its exclusive lock", fk.Child.Name())
		}
		child, err := fk.Child.heap()
		if err != nil {
			return cascaded, err
		}
		res, err := child.bulkDeleteWithDepth(fk.ChildField, keys, opts, depth+1, stmt, held, fks)
		if err != nil {
			return cascaded, fmt.Errorf("bulkdel: cascading into %s: %w", fk.Child.Name(), err)
		}
		cascaded += res.Deleted + res.Cascaded
	}
	return cascaded, nil
}

// dedupInt64 drops repeated values in place, keeping first-seen order.
func dedupInt64(vals []int64) []int64 {
	if len(vals) < 2 {
		return vals
	}
	m := make(map[int64]struct{}, len(vals))
	out := vals[:0]
	for _, v := range vals {
		if _, dup := m[v]; !dup {
			m[v] = struct{}{}
			out = append(out, v)
		}
	}
	return out
}

// fkByNames resolves a catalog foreign key after recovery.
func (db *DB) fkByNames(child string, childField int, parent string, parentField int, action RefAction) error {
	c, p := db.tables[child], db.tables[parent]
	if c == nil || p == nil {
		return fmt.Errorf("bulkdel: foreign key references unknown table %s or %s", child, parent)
	}
	db.fks = append(db.fks, ForeignKey{
		Child: c, ChildField: childField,
		Parent: p, ParentField: parentField,
		OnDelete: action,
	})
	return nil
}
