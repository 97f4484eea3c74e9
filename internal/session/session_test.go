package session

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bulkdel"
	"bulkdel/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

func newFrontend(t *testing.T, opts bulkdel.Options) *Frontend {
	t.Helper()
	db, err := bulkdel.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return NewFrontend(db)
}

func mustExec(t *testing.T, s *Session, src string) *Result {
	t.Helper()
	res, err := s.Exec(src)
	if err != nil {
		t.Fatalf("Exec(%q): %v", src, err)
	}
	return res
}

func TestSQLEndToEnd(t *testing.T) {
	f := newFrontend(t, bulkdel.Options{})
	s := f.NewSession(context.Background())
	defer s.Close()

	mustExec(t, s, "CREATE TABLE users (id, balance, region) PARTITION BY RANGE (id) BOUNDS (1000, 2000)")
	mustExec(t, s, "CREATE UNIQUE INDEX users_pk ON users (id)")
	mustExec(t, s, "CREATE INDEX users_region ON users (region)")
	mustExec(t, s, "CREATE TABLE orders (oid, user_id)")
	mustExec(t, s, "CREATE UNIQUE INDEX orders_pk ON orders (oid)")
	mustExec(t, s, "CREATE INDEX orders_user ON orders (user_id)")
	mustExec(t, s, "ALTER TABLE orders ADD FOREIGN KEY (user_id) REFERENCES users (id) ON DELETE CASCADE")

	// 3 range partitions × 30 users; two orders per user in partition 1.
	for i := int64(0); i < 30; i++ {
		for _, base := range []int64{0, 1000, 2000} {
			id := base + i
			mustExec(t, s, sqlf("INSERT INTO users VALUES (%d, %d, %d)", id, 10*id, id%5))
		}
	}
	var n int64
	for i := int64(0); i < 30; i++ {
		id := 1000 + i
		mustExec(t, s, sqlf("INSERT INTO orders VALUES (%d, %d), (%d, %d)", n, id, n+1, id))
		n += 2
	}

	// Point lookup through the unique index.
	res := mustExec(t, s, "SELECT * FROM users WHERE id = 1005")
	if len(res.Rows) != 1 || res.Rows[0][1] != 10050 {
		t.Fatalf("point select: %+v", res.Rows)
	}
	// An IN list is read at one snapshot, not one per value: a delete
	// committing between two lookups must not show through.
	reads := f.db.Observer().Registry().Counter(obs.MetricSnapshotReads)
	before := reads.Value()
	res = mustExec(t, s, "SELECT * FROM users WHERE id IN (5, 1005, 2005)")
	if len(res.Rows) != 3 {
		t.Fatalf("IN select: %+v", res.Rows)
	}
	if n := reads.Value() - before; n != 1 {
		t.Fatalf("a 3-value IN opened %d snapshot reads, want 1", n)
	}
	// Projection + non-unique index + limit.
	res = mustExec(t, s, "SELECT id, balance FROM users WHERE region = 3 LIMIT 4")
	if len(res.Rows) != 4 || len(res.Columns) != 2 || res.Columns[0] != "id" {
		t.Fatalf("projected select: cols=%v rows=%d", res.Columns, len(res.Rows))
	}
	// Range predicate via the index.
	res = mustExec(t, s, "SELECT COUNT(*) FROM users WHERE id BETWEEN 1000 AND 1009")
	if res.Rows[0][0] != 10 {
		t.Fatalf("range count: %+v", res.Rows)
	}
	// Unindexed column falls back to a scan.
	res = mustExec(t, s, "SELECT COUNT(*) FROM users WHERE balance >= 20000")
	if res.Rows[0][0] != 30 {
		t.Fatalf("scan count: %+v", res.Rows)
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM users")
	if res.Rows[0][0] != 90 {
		t.Fatalf("full count: %+v", res.Rows)
	}

	// Equality DELETE lowers to the bulk planner and cascades.
	res = mustExec(t, s, "DELETE FROM users WHERE id IN (1000, 1001)")
	if res.Affected != 2 {
		t.Fatalf("eq delete affected=%d", res.Affected)
	}
	if got := mustExec(t, s, "SELECT COUNT(*) FROM orders"); got.Rows[0][0] != 56 {
		t.Fatalf("cascade left %d orders, want 56", got.Rows[0][0])
	}

	// Covering-range DELETE: the rest of partition 1 (ids 1002..1029 are
	// all that remain in [1000, 2000)) — the executor may take the
	// whole-partition truncate fast path; the observable contract is the
	// row counts.
	res = mustExec(t, s, "DELETE FROM users WHERE id >= 1000 AND id < 2000")
	if res.Affected != 28 {
		t.Fatalf("range delete affected=%d", res.Affected)
	}
	if got := mustExec(t, s, "SELECT COUNT(*) FROM users"); got.Rows[0][0] != 60 {
		t.Fatalf("post-delete users=%d", got.Rows[0][0])
	}
	if got := mustExec(t, s, "SELECT COUNT(*) FROM orders"); got.Rows[0][0] != 0 {
		t.Fatalf("post-delete orders=%d", got.Rows[0][0])
	}

	// EXPLAIN ANALYZE DELETE renders the executed ⋈̸ plan with actuals.
	res = mustExec(t, s, "DELETE FROM users WHERE region = 4") // no index victims? region indexed
	if res.Affected == 0 {
		t.Fatalf("region delete removed nothing")
	}
	res = mustExec(t, s, "EXPLAIN ANALYZE DELETE FROM users WHERE id IN (1, 2, 3)")
	if !strings.Contains(res.Text, "actual:") || !strings.Contains(res.Text, "⋈̸") {
		t.Fatalf("explain analyze text:\n%s", res.Text)
	}

	// Knobs round-trip.
	mustExec(t, s, "SET timeout = 2s")
	mustExec(t, s, "SET parallel = 2")
	mustExec(t, s, "SET method = hash")
	if got := mustExec(t, s, "SHOW timeout").Text; got != "2s" {
		t.Fatalf("SHOW timeout = %q", got)
	}
	if got := mustExec(t, s, "SHOW method").Text; got != "hash" {
		t.Fatalf("SHOW method = %q", got)
	}
	if !strings.Contains(mustExec(t, s, "SHOW TABLES").Text, "users (id, balance, region)") {
		t.Fatalf("SHOW TABLES: %q", mustExec(t, s, "SHOW TABLES").Text)
	}

	// DELETE without WHERE empties the table (through the planner).
	mustExec(t, s, "SET method = auto")
	res = mustExec(t, s, "DELETE FROM orders")
	if got := mustExec(t, s, "SELECT COUNT(*) FROM orders"); got.Rows[0][0] != 0 {
		t.Fatalf("delete-all left %d orders", got.Rows[0][0])
	}

	// Engine-level invariants and no leaked statements/locks.
	for _, name := range f.DB().TableNames() {
		if err := f.DB().Table(name).Check(); err != nil {
			t.Fatal(err)
		}
	}
	rep := f.DB().Inspect()
	if len(rep.Statements) != 0 {
		t.Fatalf("leaked in-flight statements: %+v", rep.Statements)
	}

	// Errors keep their shape.
	if _, err := s.Exec("SELECT * FROM nosuch"); err == nil {
		t.Fatal("select from missing table succeeded")
	}
	if _, err := s.Exec("SELECT * FROM users WHERE id = 1 AND region = 2"); err == nil {
		t.Fatal("multi-column predicate succeeded")
	}
	if _, err := s.Exec("INSERT INTO users VALUES (1, 2, 3, 4)"); err == nil {
		t.Fatal("over-wide insert succeeded")
	}
}

// TestSetMethodNamesTheFourMethods: the methods are auto and the paper's
// three; any other name, "probe" included, is refused with the list.
func TestSetMethodNamesTheFourMethods(t *testing.T) {
	s := newFrontend(t, bulkdel.Options{}).NewSession(context.Background())
	defer s.Close()
	mustExec(t, s, "SET method = partition")
	_, err := s.Exec("SET method = probe")
	if err == nil || !strings.Contains(err.Error(), `unknown method "probe" (auto, sort, hash, partition)`) {
		t.Fatalf("SET method = probe: %v, want the unknown-method error naming the four methods", err)
	}
	if got := mustExec(t, s, "SHOW method").Text; got != "hash+range-partition" {
		t.Fatalf("SHOW method = %q after the refused SET", got)
	}
}

func TestResultFormat(t *testing.T) {
	r := &Result{Columns: []string{"id", "balance"}, Rows: [][]int64{{1, 100}, {2, -20000}}}
	got := r.Format()
	want := " id | balance \n----+---------\n 1  | 100     \n 2  | -20000  \n(2 rows)\n"
	if got != want {
		t.Errorf("Format:\n%q\nwant:\n%q", got, want)
	}
	if got := (&Result{Affected: 1}).Format(); got != "OK, 1 row affected\n" {
		t.Errorf("affected format: %q", got)
	}
}

// TestExplainGolden pins the SQL EXPLAIN rendering — both the SELECT plans
// built here and the DELETE plans from the core planner — to a golden
// file, all through the same core.PlanNode renderer.
func TestExplainGolden(t *testing.T) {
	f := newFrontend(t, bulkdel.Options{})
	s := f.NewSession(context.Background())
	defer s.Close()
	mustExec(t, s, "CREATE TABLE R (a, b, c)")
	mustExec(t, s, "CREATE UNIQUE INDEX IA ON R (a)")
	mustExec(t, s, "CREATE INDEX IB ON R (b)")
	for i := int64(0); i < 50; i++ {
		mustExec(t, s, sqlf("INSERT INTO R VALUES (%d, %d, %d)", i, 3*i, i%7))
	}
	mustExec(t, s, "CREATE TABLE kv (k, v) BACKEND LSM")
	for i := int64(0); i < 50; i++ {
		mustExec(t, s, sqlf("INSERT INTO kv VALUES (%d, %d)", i, i%7))
	}

	stmts := []string{
		"EXPLAIN SELECT * FROM R WHERE a = 7",
		"EXPLAIN SELECT a, b FROM R WHERE b >= 10 AND b < 40",
		"EXPLAIN SELECT COUNT(*) FROM R WHERE c = 3",
		"EXPLAIN SELECT * FROM R LIMIT 5",
		"EXPLAIN SELECT * FROM R WHERE a IN (1, 2, 3) LIMIT 2",
		"EXPLAIN DELETE FROM R WHERE a IN (1, 2, 3)",
		"EXPLAIN DELETE FROM R WHERE b BETWEEN 0 AND 30",
		"EXPLAIN SELECT * FROM kv WHERE k IN (1, 2, 3)",
		"EXPLAIN SELECT COUNT(*) FROM kv WHERE k BETWEEN 10 AND 20",
		"EXPLAIN SELECT * FROM kv WHERE v = 3",
	}
	var b strings.Builder
	for _, src := range stmts {
		res := mustExec(t, s, src)
		b.WriteString("-- " + src + "\n" + res.Text)
		if !strings.HasSuffix(res.Text, "\n") {
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}
	got := b.String()

	golden := filepath.Join("testdata", "explain.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("explain output drifted from %s (run with -update to accept):\n%s", golden, got)
	}

	// EXPLAIN ANALYZE carries measured actuals (timing is nondeterministic,
	// so it stays out of the golden file).
	res := mustExec(t, s, "EXPLAIN ANALYZE SELECT * FROM R WHERE a = 7")
	if !strings.Contains(res.Text, "actual:") {
		t.Fatalf("explain analyze select:\n%s", res.Text)
	}
}

func TestSessionClosePreventsExec(t *testing.T) {
	f := newFrontend(t, bulkdel.Options{})
	s := f.NewSession(context.Background())
	mustExec(t, s, "CREATE TABLE R (a)")
	s.Close()
	_, err := s.Exec("INSERT INTO R VALUES (1)")
	if !errors.Is(err, bulkdel.ErrCancelled) {
		t.Fatalf("exec on closed session: %v", err)
	}
}

func sqlf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// TestSQLLSMBackend routes the LSM backend through the SQL front door:
// CREATE TABLE ... BACKEND LSM, inserts, reads, and the range DELETE that
// lowers to a single range tombstone (victims uncounted, Affected 0).
func TestSQLLSMBackend(t *testing.T) {
	f := newFrontend(t, bulkdel.Options{})
	s := f.NewSession(context.Background())
	defer s.Close()

	res := mustExec(t, s, "CREATE TABLE kv (k, v) BACKEND LSM")
	if !strings.Contains(res.Text, "LSM") {
		t.Fatalf("create result does not name the backend: %q", res.Text)
	}
	for i := int64(0); i < 200; i++ {
		mustExec(t, s, sqlf("INSERT INTO kv VALUES (%d, %d)", i, 10*i))
	}
	res = mustExec(t, s, "SELECT * FROM kv WHERE k = 42")
	if len(res.Rows) != 1 || res.Rows[0][1] != 420 {
		t.Fatalf("point select: %+v", res.Rows)
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM kv WHERE k BETWEEN 50 AND 59")
	if res.Rows[0][0] != 10 {
		t.Fatalf("range count: %+v", res.Rows)
	}

	// A contiguous key predicate lowers to one range tombstone: the
	// statement cannot know the victim count, so Affected stays 0 and the
	// text says so.
	res = mustExec(t, s, "DELETE FROM kv WHERE k BETWEEN 100 AND 149")
	if res.Affected != 0 || !strings.Contains(res.Text, "range tombstone") {
		t.Fatalf("range delete: affected=%d text=%q", res.Affected, res.Text)
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM kv")
	if res.Rows[0][0] != 150 {
		t.Fatalf("count after range delete: %+v", res.Rows)
	}

	// Equality DELETE still counts its victims.
	res = mustExec(t, s, "DELETE FROM kv WHERE k IN (1, 2, 999)")
	if res.Affected != 2 {
		t.Fatalf("eq delete affected = %d, want 2", res.Affected)
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM kv")
	if res.Rows[0][0] != 148 {
		t.Fatalf("final count: %+v", res.Rows)
	}

	// The backend rejects what it does not support, with a clear error.
	if _, err := s.Exec("CREATE INDEX kvi ON kv (v)"); err == nil {
		t.Fatal("CREATE INDEX on an LSM table did not fail")
	}
	if _, err := s.Exec("CREATE TABLE bad (a, b) BACKEND FOO"); err == nil {
		t.Fatal("unknown backend did not fail")
	}
	if _, err := s.Exec("CREATE TABLE bad (a, b) BACKEND LSM PARTITION BY HASH (a) PARTITIONS 2"); err == nil {
		t.Fatal("LSM + PARTITION BY did not fail")
	}
}

// TestSQLLSMPointSelectIsAGet: on an LSM table the key is an access path, so
// a key equality reads about one page per level through a Get, and an IN
// list one Get per distinct value — never a merged scan of every run.
func TestSQLLSMPointSelectIsAGet(t *testing.T) {
	f := newFrontend(t, bulkdel.Options{})
	s := f.NewSession(context.Background())
	defer s.Close()
	mustExec(t, s, "CREATE TABLE t (k, v) BACKEND LSM")
	for i := 0; i < 10000; i += 100 {
		var vals []string
		for k := i; k < i+100; k++ {
			vals = append(vals, sqlf("(%d, %d)", k, 10*k))
		}
		mustExec(t, s, "INSERT INTO t VALUES "+strings.Join(vals, ", "))
	}
	refs := func() uint64 {
		st := f.DB().PoolStats()
		return st.Hits + st.Misses
	}
	for _, c := range []struct {
		src  string
		keys []int64
	}{
		{"SELECT * FROM t WHERE k = 4321", []int64{4321}},
		{"SELECT * FROM t WHERE k IN (17, 4321, 9999)", []int64{17, 4321, 9999}},
	} {
		before := refs()
		res := mustExec(t, s, c.src)
		n := refs() - before
		t.Logf("%s: %d page references", c.src, n)
		if len(res.Rows) != len(c.keys) {
			t.Fatalf("%s: %v", c.src, res.Rows)
		}
		for i, k := range c.keys {
			if res.Rows[i][0] != k || res.Rows[i][1] != 10*k {
				t.Fatalf("%s: row %d = %v", c.src, i, res.Rows[i])
			}
		}
		if n > 8*uint64(len(c.keys)) {
			t.Errorf("%s: %d page references, want at most %d", c.src, n, 8*len(c.keys))
		}
	}
}

// TestSQLRejectedDuplicateInsert: a statement the unique index refuses
// leaves the table as it found it (it used to leave the heap record and the
// entries of the indexes created before the unique one).
func TestSQLRejectedDuplicateInsert(t *testing.T) {
	f := newFrontend(t, bulkdel.Options{})
	s := f.NewSession(context.Background())
	defer s.Close()
	mustExec(t, s, "CREATE TABLE t (a, b, c)")
	mustExec(t, s, "CREATE INDEX ib ON t (b)")
	mustExec(t, s, "CREATE UNIQUE INDEX ia ON t (a)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 10, 100)")
	if _, err := s.Exec("INSERT INTO t VALUES (1, 20, 200)"); err == nil {
		t.Fatal("duplicate key accepted")
	}
	if got := mustExec(t, s, "SELECT COUNT(*) FROM t"); got.Rows[0][0] != 1 {
		t.Errorf("COUNT(*) = %d after the rejected INSERT, want 1", got.Rows[0][0])
	}
	if got := mustExec(t, s, "SELECT * FROM t WHERE b = 20"); len(got.Rows) != 0 {
		t.Errorf("b = 20 finds %v", got.Rows)
	}
	if err := f.DB().Table("t").Check(); err != nil {
		t.Error(err)
	}
}

// TestHeapRangeDeleteOpensNoSnapshot: a heap range DELETE, and one with no
// WHERE, hand the predicate to Table.DeleteRange, whose backend resolves
// the victims under the statement's own lock: no snapshot read is taken
// first, and exactly the rows the range covers go, through the index or, on
// an unindexed column, a heap scan.
func TestHeapRangeDeleteOpensNoSnapshot(t *testing.T) {
	f := newFrontend(t, bulkdel.Options{})
	s := f.NewSession(context.Background())
	defer s.Close()
	mustExec(t, s, "CREATE TABLE r (k, v)")
	mustExec(t, s, "CREATE UNIQUE INDEX rk ON r (k)")
	for i := int64(0); i < 100; i++ {
		mustExec(t, s, sqlf("INSERT INTO r VALUES (%d, %d)", i, i%10))
	}
	tbl := f.DB().Table("r")
	reads := f.DB().Observer().Registry().Counter(obs.MetricSnapshotReads)
	for _, c := range []struct {
		src      string
		affected int64
		covers   func(k, v int64) bool
	}{
		{"DELETE FROM r WHERE k BETWEEN 10 AND 29", 20, func(k, _ int64) bool { return 10 <= k && k <= 29 }},
		{"DELETE FROM r WHERE k > 89", 10, func(k, _ int64) bool { return k > 89 }},
		{"DELETE FROM r WHERE v >= 7", 21, func(_, v int64) bool { return v >= 7 }},
		{"DELETE FROM r WHERE k BETWEEN 200 AND 300", 0, func(k, _ int64) bool { return false }},
		{"DELETE FROM r", 49, func(int64, int64) bool { return true }},
	} {
		before, count := reads.Value(), tbl.Count()
		if got := mustExec(t, s, c.src).Affected; got != c.affected {
			t.Errorf("%s: %d rows affected, want %d", c.src, got, c.affected)
		}
		if n := reads.Value() - before; n != 0 {
			t.Errorf("%s opened %d snapshot reads, want 0", c.src, n)
		}
		if got := tbl.Count(); got != count-c.affected {
			t.Errorf("%s left %d rows, want %d", c.src, got, count-c.affected)
		}
		err := tbl.Scan(func(_ bulkdel.RID, f []int64) error {
			if c.covers(f[0], f[1]) {
				return fmt.Errorf("row %v survives", f)
			}
			return nil
		})
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
		}
		if err := tbl.Check(); err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
	}
}
