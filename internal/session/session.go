// Package session is the layer between the SQL frontend and the engine:
// a Frontend wraps one DB with the schema names the catalog does not keep
// (column names are a frontend concept; the engine stores positional int64
// attributes), and each Session carries per-connection state — its context
// (cancelling it aborts the in-flight statement through the engine's
// abort-to-consistency path), its knob values (`SET timeout / lock_wait /
// parallel / …`), and a statement ID wired into the obs event log.
//
// Every statement a session executes follows the same lifecycle as native
// Go-API statements: it funnels into the cc.Manager lock footprints and
// the cancellation machinery, so thousands of sessions contend exactly
// like RunConcurrent batches do.
package session

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bulkdel"
	"bulkdel/internal/sql"
)

// Frontend wraps one DB for any number of sessions. It owns the column-
// name registry: tables created through SQL remember their declared column
// names; tables created through the Go API fall back to positional names
// c0..cN-1 (SQL and the Go API address the same engine objects).
type Frontend struct {
	db *bulkdel.DB
	// mu guards cols and serializes DDL statements against each other.
	// DDL vs concurrent DML keeps the engine's native semantics (DDL is
	// not statement-locked); front doors run schema setup before traffic.
	mu     sync.Mutex
	cols   map[string][]string
	nextID uint64
}

// NewFrontend wraps db. The DB stays usable through the Go API.
func NewFrontend(db *bulkdel.DB) *Frontend {
	return &Frontend{db: db, cols: make(map[string][]string)}
}

// DB returns the wrapped database.
func (f *Frontend) DB() *bulkdel.DB { return f.db }

// NewSession opens a session whose statements run under ctx: cancelling it
// makes the in-flight statement stop at its next recoverable boundary with
// ErrCancelled (abort-to-consistency) and fails all later statements.
func (f *Frontend) NewSession(ctx context.Context) *Session {
	if ctx == nil {
		ctx = context.Background()
	}
	cctx, cancel := context.WithCancel(ctx)
	f.mu.Lock()
	f.nextID++
	id := f.nextID
	f.mu.Unlock()
	return &Session{f: f, id: id, ctx: cctx, cancel: cancel, limitDefault: -1}
}

// columns returns the display names for a table, defaulting to c0..cN-1.
func (f *Frontend) columns(name string, tbl *bulkdel.Table) []string {
	f.mu.Lock()
	cols := f.cols[name]
	f.mu.Unlock()
	if cols != nil {
		return cols
	}
	out := make([]string, tbl.NumFields())
	for i := range out {
		out[i] = "c" + strconv.Itoa(i)
	}
	return out
}

// colIndex resolves a column name (declared or positional c<N>) to its
// field position.
func (f *Frontend) colIndex(name string, tbl *bulkdel.Table, col string) (int, error) {
	for i, c := range f.columns(name, tbl) {
		if strings.EqualFold(c, col) {
			return i, nil
		}
	}
	if strings.HasPrefix(col, "c") || strings.HasPrefix(col, "C") {
		if i, err := strconv.Atoi(col[1:]); err == nil && i >= 0 && i < tbl.NumFields() {
			return i, nil
		}
	}
	return 0, fmt.Errorf("session: table %s has no column %q", name, col)
}

// Session is one connection's statement context and knob state. Not safe
// for concurrent use by multiple goroutines (like a SQL connection).
type Session struct {
	f      *Frontend
	id     uint64
	ctx    context.Context
	cancel context.CancelFunc
	watch  func() (stop func()) // see SetWatch; nil in-process

	// Knobs (SET name = value).
	timeout        time.Duration
	lockWait       time.Duration
	parallel       int
	method         bulkdel.Method
	concurrent     bool
	checkpointRows int
	memory         int
	limitDefault   int64
}

// ID is the session's frontend-unique identifier.
func (s *Session) ID() uint64 { return s.id }

// Context returns the session context.
func (s *Session) Context() context.Context { return s.ctx }

// Close cancels the session context: the in-flight statement (if any)
// aborts at its next recoverable boundary and later Exec calls fail.
func (s *Session) Close() { s.cancel() }

// SetWatch installs a front door's watch for a reason to cancel the session
// (a client disconnect): it starts watching and returns how to stop. Only
// the statements that check the context mid-flight arm it: a DELETE (and
// EXPLAIN ANALYZE DELETE) and a multi-row INSERT.
func (s *Session) SetWatch(watch func() (stop func())) { s.watch = watch }

// Result is the outcome of one statement. Row-returning statements fill
// Columns/Rows; DML fills Affected; EXPLAIN/SHOW and messages fill Text.
type Result struct {
	Columns  []string
	Rows     [][]int64
	Affected int64
	Text     string
	Elapsed  time.Duration
}

// Format renders the result the way the REPL prints it: an aligned table
// with a row-count trailer, a bare affected-count line, or the text.
func (r *Result) Format() string {
	var b strings.Builder
	if r.Text != "" {
		b.WriteString(r.Text)
		if !strings.HasSuffix(r.Text, "\n") {
			b.WriteString("\n")
		}
	}
	if len(r.Columns) > 0 {
		widths := make([]int, len(r.Columns))
		cells := make([][]string, len(r.Rows))
		for i, c := range r.Columns {
			widths[i] = len([]rune(c))
		}
		for ri, row := range r.Rows {
			cells[ri] = make([]string, len(row))
			for ci, v := range row {
				cells[ri][ci] = strconv.FormatInt(v, 10)
				if ci < len(widths) && len(cells[ri][ci]) > widths[ci] {
					widths[ci] = len(cells[ri][ci])
				}
			}
		}
		line := func(parts []string, pad string) {
			for i, p := range parts {
				if i > 0 {
					b.WriteString("|")
				}
				b.WriteString(" " + p + strings.Repeat(pad, widths[i]-len([]rune(p))) + " ")
			}
			b.WriteString("\n")
		}
		line(r.Columns, " ")
		sep := make([]string, len(r.Columns))
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		b.WriteString(strings.Join(func() []string {
			out := make([]string, len(sep))
			for i, s := range sep {
				out[i] = "-" + s + "-"
			}
			return out
		}(), "+") + "\n")
		for _, row := range cells {
			line(row, " ")
		}
		fmt.Fprintf(&b, "(%d row%s)\n", len(r.Rows), plural(len(r.Rows)))
	} else if r.Text == "" {
		fmt.Fprintf(&b, "OK, %d row%s affected\n", r.Affected, plural(int(r.Affected)))
	}
	return b.String()
}

func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}

// Exec parses and executes one statement. Errors from the engine keep
// their sentinel identity (ErrCancelled, ErrLockTimeout, ErrRestricted)
// so callers can implement retry policies.
func (s *Session) Exec(src string) (*Result, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: session closed: %v", bulkdel.ErrCancelled, err)
	}
	stmt, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := s.exec(stmt, false)
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// exec dispatches one parsed statement. analyzing is true inside EXPLAIN
// ANALYZE (the child statement renders its executed plan).
func (s *Session) exec(stmt sql.Stmt, analyzing bool) (*Result, error) {
	switch st := stmt.(type) {
	case *sql.CreateTable:
		return s.createTable(st)
	case *sql.CreateIndex:
		return s.createIndex(st)
	case *sql.AddForeignKey:
		return s.addForeignKey(st)
	case *sql.Insert:
		return s.insert(st)
	case *sql.Select:
		return s.selectStmt(st, analyzing)
	case *sql.Delete:
		return s.delete(st, analyzing)
	case *sql.Explain:
		return s.explain(st)
	case *sql.Set:
		return s.set(st)
	case *sql.Show:
		return s.show(st)
	}
	return nil, fmt.Errorf("session: unsupported statement %T", stmt)
}

// begin opens an obs statement for a SQL verb so sessions appear in the
// event log and DB.Inspect like native statements. Verbs that lower onto
// engine statements (DELETE→BulkDelete) nest: the SQL statement frames the
// engine statement it spawned.
func (s *Session) begin(verb, table string) func() {
	st := s.f.db.Observer().Events().Begin("sql:"+verb, table)
	st.SetPhase(fmt.Sprintf("session %d", s.id))
	return st.End
}

func (s *Session) createTable(st *sql.CreateTable) (*Result, error) {
	end := s.begin("create-table", st.Name)
	defer end()
	recSize := int(st.RecordSize)
	if recSize == 0 {
		recSize = 8 * len(st.Cols)
	}
	colIdx := func(name string) (int, error) {
		for i, c := range st.Cols {
			if strings.EqualFold(c, name) {
				return i, nil
			}
		}
		return 0, fmt.Errorf("session: partition column %q is not declared", name)
	}
	s.f.mu.Lock()
	defer s.f.mu.Unlock()
	var err error
	switch st.Backend {
	case "", "HEAP":
	case "LSM":
		if st.Partition != nil {
			return nil, fmt.Errorf("session: BACKEND LSM cannot be combined with PARTITION BY")
		}
		if _, err = s.f.db.CreateTableLSM(st.Name, len(st.Cols), recSize); err != nil {
			return nil, err
		}
		s.f.cols[st.Name] = append([]string(nil), st.Cols...)
		return &Result{Text: fmt.Sprintf("Created LSM table %s (%d columns)", st.Name, len(st.Cols))}, nil
	default:
		return nil, fmt.Errorf("session: unknown backend %q (want HEAP or LSM)", st.Backend)
	}
	if p := st.Partition; p != nil {
		field, ferr := colIdx(p.Col)
		if ferr != nil {
			return nil, ferr
		}
		spec := bulkdel.PartitionSpec{Field: field}
		if p.Hash {
			spec.HashParts = int(p.Parts)
		} else {
			spec.RangeBounds = append([]int64(nil), p.Bounds...)
		}
		_, err = s.f.db.CreateTablePartitioned(st.Name, len(st.Cols), recSize, spec)
	} else {
		_, err = s.f.db.CreateTable(st.Name, len(st.Cols), recSize)
	}
	if err != nil {
		return nil, err
	}
	s.f.cols[st.Name] = append([]string(nil), st.Cols...)
	return &Result{Text: fmt.Sprintf("Created table %s (%d columns)", st.Name, len(st.Cols))}, nil
}

func (s *Session) table(name string) (*bulkdel.Table, error) {
	tbl := s.f.db.Table(name)
	if tbl == nil {
		return nil, fmt.Errorf("session: no table %q", name)
	}
	return tbl, nil
}

func (s *Session) createIndex(st *sql.CreateIndex) (*Result, error) {
	end := s.begin("create-index", st.Table)
	defer end()
	tbl, err := s.table(st.Table)
	if err != nil {
		return nil, err
	}
	field, err := s.f.colIndex(st.Table, tbl, st.Col)
	if err != nil {
		return nil, err
	}
	s.f.mu.Lock()
	defer s.f.mu.Unlock()
	if err := tbl.CreateIndex(bulkdel.IndexOptions{
		Name: st.Name, Field: field, KeyLen: int(st.KeyLen),
		Unique: st.Unique, Clustered: st.Clustered, Priority: int(st.Priority),
	}); err != nil {
		return nil, err
	}
	return &Result{Text: fmt.Sprintf("Created index %s on %s(%s)", st.Name, st.Table, st.Col)}, nil
}

func (s *Session) addForeignKey(st *sql.AddForeignKey) (*Result, error) {
	end := s.begin("alter-table", st.Child)
	defer end()
	child, err := s.table(st.Child)
	if err != nil {
		return nil, err
	}
	parent, err := s.table(st.Parent)
	if err != nil {
		return nil, err
	}
	childField, err := s.f.colIndex(st.Child, child, st.ChildCol)
	if err != nil {
		return nil, err
	}
	parentField, err := s.f.colIndex(st.Parent, parent, st.ParentCol)
	if err != nil {
		return nil, err
	}
	action := bulkdel.Restrict
	if st.Cascade {
		action = bulkdel.Cascade
	}
	s.f.mu.Lock()
	defer s.f.mu.Unlock()
	if err := s.f.db.AddForeignKey(child, childField, parent, parentField, action); err != nil {
		return nil, err
	}
	return &Result{Text: fmt.Sprintf("Added foreign key %s(%s) → %s(%s) ON DELETE %s",
		st.Child, st.ChildCol, st.Parent, st.ParentCol, strings.ToUpper(action.String()))}, nil
}

func (s *Session) insert(st *sql.Insert) (*Result, error) {
	end := s.begin("insert", st.Table)
	defer end()
	if len(st.Rows) > 1 && s.watch != nil {
		defer s.watch()()
	}
	tbl, err := s.table(st.Table)
	if err != nil {
		return nil, err
	}
	for _, row := range st.Rows {
		if len(row) > tbl.NumFields() {
			return nil, fmt.Errorf("session: %d values for %d columns of %s", len(row), tbl.NumFields(), st.Table)
		}
	}
	var n int64
	for _, row := range st.Rows {
		// Inserts are short row-at-a-time statements; the cancellation
		// boundary is between rows.
		if err := s.ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w after %d rows: %v", bulkdel.ErrCancelled, n, err)
		}
		if _, err := tbl.Insert(row...); err != nil {
			return nil, fmt.Errorf("session: insert into %s after %d rows: %w", st.Table, n, err)
		}
		n++
	}
	return &Result{Affected: n}, nil
}

// pred is the bound, normalized form of a WHERE clause: one column with
// either an equality set or a closed range.
type pred struct {
	col   string
	field int
	// eqVals is the IN/= value set (nil when the predicate is a range).
	eqVals []int64
	// lo/hi are the inclusive range bounds (valid when eqVals is nil).
	lo, hi int64
}

// bind normalizes a parsed WHERE clause. All conditions must target one
// column; comparisons fold into a single [lo, hi] range; = and IN cannot
// mix with range operators.
func (s *Session) bind(table string, tbl *bulkdel.Table, w *sql.Where) (*pred, error) {
	if w == nil || len(w.Conds) == 0 {
		return nil, nil
	}
	p := &pred{col: w.Conds[0].Col, lo: minInt64, hi: maxInt64}
	field, err := s.f.colIndex(table, tbl, p.col)
	if err != nil {
		return nil, err
	}
	p.field = field
	ranged := false
	for _, c := range w.Conds {
		if !strings.EqualFold(c.Col, p.col) {
			return nil, fmt.Errorf("session: multi-column predicates are not supported (%s and %s)", p.col, c.Col)
		}
		switch c.Op {
		case "=":
			p.eqVals = append(p.eqVals, c.Val)
		case "IN":
			p.eqVals = append(p.eqVals, c.Vals...)
		case ">=":
			ranged = true
			if c.Val > p.lo {
				p.lo = c.Val
			}
		case ">":
			ranged = true
			if c.Val == maxInt64 {
				p.lo = maxInt64
				p.hi = minInt64 // empty
			} else if c.Val+1 > p.lo {
				p.lo = c.Val + 1
			}
		case "<=":
			ranged = true
			if c.Val < p.hi {
				p.hi = c.Val
			}
		case "<":
			ranged = true
			if c.Val == minInt64 {
				p.hi = minInt64
				p.lo = maxInt64 // empty
			} else if c.Val-1 < p.hi {
				p.hi = c.Val - 1
			}
		default:
			return nil, fmt.Errorf("session: unsupported operator %q", c.Op)
		}
	}
	if p.eqVals != nil && ranged {
		return nil, fmt.Errorf("session: cannot mix =/IN with range operators on %s", p.col)
	}
	return p, nil
}

const (
	minInt64 = -1 << 63
	maxInt64 = 1<<63 - 1
)

// rowsMatching evaluates a bound predicate to full rows, all read at one
// snapshot: a range through LookupRange (the table picks index or scan), an
// IN list on an indexed field through one View that serves a lookup per
// value, anything else through one filtered scan.
func (s *Session) rowsMatching(tbl *bulkdel.Table, p *pred) ([][]int64, error) {
	if p != nil && p.eqVals == nil {
		return tbl.LookupRange(p.field, p.lo, p.hi)
	}
	var out [][]int64
	if p == nil || !tbl.HasIndexOnField(p.field) {
		var want map[int64]bool
		if p != nil {
			want = make(map[int64]bool, len(p.eqVals))
			for _, v := range p.eqVals {
				want[v] = true
			}
		}
		err := tbl.Scan(func(_ bulkdel.RID, fields []int64) error {
			if p == nil || want[fields[p.field]] {
				out = append(out, append([]int64(nil), fields...))
			}
			return nil
		})
		return out, err
	}
	view, err := tbl.View()
	if err != nil {
		return nil, err
	}
	defer view.Close()
	seen := make(map[int64]bool, len(p.eqVals))
	for _, v := range p.eqVals {
		if seen[v] {
			continue
		}
		seen[v] = true
		rows, err := view.Lookup(p.field, v)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

func (s *Session) selectStmt(st *sql.Select, analyzing bool) (*Result, error) {
	end := s.begin("select", st.Table)
	defer end()
	tbl, err := s.table(st.Table)
	if err != nil {
		return nil, err
	}
	p, err := s.bind(st.Table, tbl, st.Where)
	if err != nil {
		return nil, err
	}

	// COUNT(*) without a predicate is a catalog read.
	if st.Count && p == nil {
		return &Result{Columns: []string{"count"}, Rows: [][]int64{{tbl.Count()}}}, nil
	}
	rows, err := s.rowsMatching(tbl, p)
	if err != nil {
		return nil, err
	}
	if st.Count {
		return &Result{Columns: []string{"count"}, Rows: [][]int64{{int64(len(rows))}}}, nil
	}

	// Projection.
	cols := s.f.columns(st.Table, tbl)
	proj := make([]int, 0, len(cols))
	var outCols []string
	if st.Star {
		for i := range cols {
			proj = append(proj, i)
		}
		outCols = cols
	} else {
		for _, c := range st.Cols {
			i, err := s.f.colIndex(st.Table, tbl, c)
			if err != nil {
				return nil, err
			}
			proj = append(proj, i)
			outCols = append(outCols, cols[i])
		}
	}
	limit := st.Limit
	if limit < 0 {
		limit = s.limitDefault
	}
	out := make([][]int64, 0, len(rows))
	for _, row := range rows {
		if limit >= 0 && int64(len(out)) >= limit {
			break
		}
		pr := make([]int64, len(proj))
		for i, f := range proj {
			pr[i] = row[f]
		}
		out = append(out, pr)
	}
	return &Result{Columns: outCols, Rows: out}, nil
}

// bulkOptions builds the BulkOptions for this session's knob state.
func (s *Session) bulkOptions() bulkdel.BulkOptions {
	return bulkdel.BulkOptions{
		Method:         s.method,
		Memory:         s.memory,
		CheckpointRows: s.checkpointRows,
		Concurrent:     s.concurrent,
		Parallel:       s.parallel,
		Ctx:            s.ctx,
		Timeout:        s.timeout,
		LockWait:       s.lockWait,
	}
}

// delete binds the predicate and makes one engine call: = and IN hand their
// distinct values, in first-seen order, to BulkDelete; a range, or no WHERE
// (every value of field 0), is DeleteRange, whose backend resolves the
// victims under the statement's lock.
func (s *Session) delete(st *sql.Delete, analyzing bool) (*Result, error) {
	end := s.begin("delete", st.Table)
	defer end()
	if s.watch != nil {
		defer s.watch()()
	}
	tbl, err := s.table(st.Table)
	if err != nil {
		return nil, err
	}
	p, err := s.bind(st.Table, tbl, st.Where)
	if err != nil {
		return nil, err
	}
	if p == nil {
		p = &pred{lo: minInt64, hi: maxInt64}
	}
	var res *bulkdel.BulkResult
	if p.eqVals != nil {
		seen := make(map[int64]bool, len(p.eqVals))
		vals := make([]int64, 0, len(p.eqVals))
		for _, v := range p.eqVals {
			if !seen[v] {
				seen[v] = true
				vals = append(vals, v)
			}
		}
		res, err = tbl.BulkDelete(p.field, vals, s.bulkOptions())
	} else {
		res, err = tbl.DeleteRange(p.field, p.lo, p.hi, s.bulkOptions())
	}
	if err != nil {
		return nil, err
	}
	if res.Deleted < 0 {
		// A blind LSM range tombstone doesn't count victims.
		return &Result{Text: fmt.Sprintf("range tombstone [%d, %d] on field %d (victims uncounted)\n", p.lo, p.hi, p.field)}, nil
	}
	out := &Result{Affected: res.Deleted}
	if analyzing {
		out.Text = res.ExplainAnalyze()
	}
	if res.Cascaded > 0 {
		out.Text += fmt.Sprintf("cascaded: %d child rows\n", res.Cascaded)
	}
	return out, nil
}

func (s *Session) explain(st *sql.Explain) (*Result, error) {
	switch child := st.Stmt.(type) {
	case *sql.Delete:
		if st.Analyze {
			return s.delete(child, true)
		}
		end := s.begin("explain", child.Table)
		defer end()
		tbl, err := s.table(child.Table)
		if err != nil {
			return nil, err
		}
		p, err := s.bind(child.Table, tbl, child.Where)
		if err != nil {
			return nil, err
		}
		field := 0
		if p != nil {
			field = p.field
		}
		return &Result{Text: tbl.Explain(field, s.method, s.memory)}, nil
	case *sql.Select:
		return s.explainSelect(child, st.Analyze)
	}
	return nil, fmt.Errorf("session: EXPLAIN supports SELECT and DELETE, got %T", st.Stmt)
}

func (s *Session) set(st *sql.Set) (*Result, error) {
	name := strings.ToLower(st.Name)
	val := st.Value
	fail := func() (*Result, error) {
		return nil, fmt.Errorf("session: bad value %q for %s", val, name)
	}
	switch name {
	case "timeout", "lock_wait":
		var d time.Duration
		switch st.ValueKind {
		case sql.Duration:
			var err error
			if d, err = time.ParseDuration(val); err != nil {
				return fail()
			}
		case sql.Number:
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n != 0 {
				// Bare numbers are ambiguous (ns? ms?); only 0 = off.
				return fail()
			}
		default:
			return fail()
		}
		if d < 0 {
			return fail()
		}
		if name == "timeout" {
			s.timeout = d
		} else {
			s.lockWait = d
		}
	case "parallel", "checkpoint_rows", "memory":
		if st.ValueKind != sql.Number {
			return fail()
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return fail()
		}
		switch name {
		case "parallel":
			s.parallel = n
		case "checkpoint_rows":
			s.checkpointRows = n
		case "memory":
			s.memory = n
		}
	case "method":
		m, err := bulkdel.ParseMethod(val)
		if err != nil {
			return nil, fmt.Errorf("session: %w", err)
		}
		s.method = m
	case "concurrent":
		switch strings.ToLower(val) {
		case "on", "true", "1":
			s.concurrent = true
		case "off", "false", "0":
			s.concurrent = false
		default:
			return fail()
		}
	case "limit":
		if st.ValueKind != sql.Number {
			return fail()
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fail()
		}
		s.limitDefault = n
	default:
		return nil, fmt.Errorf("session: unknown setting %q", st.Name)
	}
	return &Result{Text: fmt.Sprintf("SET %s = %s", name, val)}, nil
}

func (s *Session) show(st *sql.Show) (*Result, error) {
	if st.What == "TABLES" {
		names := s.f.db.TableNames()
		sort.Strings(names)
		var b strings.Builder
		for _, n := range names {
			tbl := s.f.db.Table(n)
			fmt.Fprintf(&b, "%s (%s) — %d rows, indexes: %s\n",
				n, strings.Join(s.f.columns(n, tbl), ", "), tbl.Count(),
				strings.Join(tbl.IndexNames(), ", "))
		}
		if b.Len() == 0 {
			b.WriteString("(no tables)\n")
		}
		return &Result{Text: b.String()}, nil
	}
	switch strings.ToLower(st.What) {
	case "timeout":
		return &Result{Text: s.timeout.String()}, nil
	case "lock_wait":
		return &Result{Text: s.lockWait.String()}, nil
	case "parallel":
		return &Result{Text: strconv.Itoa(s.parallel)}, nil
	case "method":
		return &Result{Text: s.method.String()}, nil
	case "concurrent":
		return &Result{Text: strconv.FormatBool(s.concurrent)}, nil
	case "checkpoint_rows":
		return &Result{Text: strconv.Itoa(s.checkpointRows)}, nil
	case "memory":
		return &Result{Text: strconv.Itoa(s.memory)}, nil
	case "limit":
		return &Result{Text: strconv.FormatInt(s.limitDefault, 10)}, nil
	case "epoch":
		// The commit epoch a snapshot read starting now would capture.
		return &Result{Text: strconv.FormatUint(s.f.db.Epoch(), 10)}, nil
	}
	return nil, fmt.Errorf("session: unknown setting %q", st.What)
}

// IsRetryable reports whether err is a zero-effect engine failure that a
// client may simply retry (lock-wait expiry).
func IsRetryable(err error) bool {
	return errors.Is(err, bulkdel.ErrLockTimeout)
}
