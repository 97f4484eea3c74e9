package session

import (
	"fmt"
	"time"

	"bulkdel"
	"bulkdel/internal/core"
	"bulkdel/internal/sql"
)

// explainSelect renders a SELECT's access plan through the same annotated
// plan tree (core.PlanNode) the bulk-delete EXPLAIN uses, so SQL EXPLAIN
// output composes with the paper-style ⋈̸ plans instead of a separate
// CLI-only renderer. ANALYZE executes the statement and annotates nodes
// with the measured actuals.
func (s *Session) explainSelect(st *sql.Select, analyze bool) (*Result, error) {
	end := s.begin("explain", st.Table)
	defer end()
	tbl, err := s.table(st.Table)
	if err != nil {
		return nil, err
	}
	p, err := s.bind(st.Table, tbl, st.Where)
	if err != nil {
		return nil, err
	}
	cols := s.f.columns(st.Table, tbl)

	// Access-path node. The access path on an LSM table is its key.
	kind := tbl.Backend()
	lookupOp, rangeOp := "index lookup", "index range scan"
	snapshot := "MVCC read at commit epoch %d (does not block behind bulk deletes)"
	if kind == bulkdel.BackendLSM {
		lookupOp, rangeOp = "key lookup", "key range scan"
		snapshot = "one LSM source snapshot pinned at commit epoch %d (memtable, levels, range tombstones)"
	}
	var access *core.PlanNode
	switch {
	case p == nil:
		access = &core.PlanNode{Op: "scan", Detail: fmt.Sprintf("%s %s (full)", kind, st.Table)}
	case p.eqVals != nil && tbl.HasIndexOnField(p.field):
		access = &core.PlanNode{Op: lookupOp,
			Detail: fmt.Sprintf("%s.%s = {%d value(s)}", st.Table, cols[p.field], len(p.eqVals))}
	case p.eqVals != nil:
		access = &core.PlanNode{Op: "scan",
			Detail: fmt.Sprintf("%s %s, filter %s IN {%d value(s)}", kind, st.Table, cols[p.field], len(p.eqVals))}
	case tbl.HasIndexOnField(p.field):
		access = &core.PlanNode{Op: rangeOp,
			Detail: fmt.Sprintf("%s.%s ∈ [%s, %s]", st.Table, cols[p.field], boundStr(p.lo), boundStr(p.hi))}
	default:
		access = &core.PlanNode{Op: "scan",
			Detail: fmt.Sprintf("%s %s, filter %s ∈ [%s, %s]", kind, st.Table, cols[p.field], boundStr(p.lo), boundStr(p.hi))}
	}

	// Projection (or aggregation) root.
	root := access
	switch {
	case st.Count:
		root = &core.PlanNode{Op: "aggregate", Detail: "count(*)", Children: []*core.PlanNode{access}}
	case !st.Star:
		root = &core.PlanNode{Op: "project", Detail: fmt.Sprintf("%v", st.Cols), Children: []*core.PlanNode{access}}
	}
	if st.Limit >= 0 {
		root = &core.PlanNode{Op: "limit", Detail: fmt.Sprintf("%d", st.Limit), Children: []*core.PlanNode{root}}
	}

	if analyze {
		start := time.Now()
		res, err := s.selectStmt(st, true)
		if err != nil {
			return nil, err
		}
		access.Annot = fmt.Sprintf("actual: rows=%d", countRows(res))
		root.Annot = fmt.Sprintf("actual: returned=%d time=%v", len(res.Rows), time.Since(start).Round(time.Microsecond))
	}
	// The epoch shown is the snapshot the statement would capture if it
	// started now (SHOW epoch reports the same counter).
	return &Result{Text: root.String() + "snapshot: " + fmt.Sprintf(snapshot, s.f.db.Epoch()) + "\n"}, nil
}

func countRows(r *Result) int {
	if len(r.Columns) == 1 && r.Columns[0] == "count" && len(r.Rows) == 1 {
		return int(r.Rows[0][0])
	}
	return len(r.Rows)
}

func boundStr(v int64) string {
	switch v {
	case minInt64:
		return "-∞"
	case maxInt64:
		return "+∞"
	}
	return fmt.Sprintf("%d", v)
}
