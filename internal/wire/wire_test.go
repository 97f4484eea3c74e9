package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"bulkdel"
	"bulkdel/internal/session"
	"bulkdel/internal/sim"
)

// startServer opens a DB, wraps it in a frontend + server listening on a
// loopback port, and tears everything down when the test ends.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	return startServerWith(t, bulkdel.Options{})
}

func startServerWith(t *testing.T, opts bulkdel.Options) (*Server, string) {
	t.Helper()
	db, err := bulkdel.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(session.NewFrontend(db))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-serveErr; !ErrServerClosed(err) {
			t.Errorf("Serve returned %v, want listener-closed", err)
		}
	})
	return srv, ln.Addr().String()
}

func mustExecWire(t *testing.T, c *Client, sql string) *session.Result {
	t.Helper()
	res, err := c.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

// execRetry retries statements bounced by admission control or lock
// timeouts — the polite client behaviour the ErrClass field exists for.
func execRetry(c *Client, sql string) (*session.Result, error) {
	for attempt := 0; ; attempt++ {
		res, err := c.Exec(sql)
		if err == nil || !session.IsRetryable(err) || attempt >= 50 {
			return res, err
		}
		time.Sleep(time.Duration(attempt+1) * time.Millisecond)
	}
}

func TestWireSmoke(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mustExecWire(t, c, "CREATE TABLE kv (k, v)")
	mustExecWire(t, c, "CREATE UNIQUE INDEX kv_pk ON kv (k)")
	res := mustExecWire(t, c, "INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30)")
	if res.Affected != 3 {
		t.Fatalf("insert affected=%d", res.Affected)
	}
	res = mustExecWire(t, c, "SELECT v FROM kv WHERE k = 2")
	if len(res.Rows) != 1 || res.Rows[0][0] != 20 {
		t.Fatalf("select rows=%v", res.Rows)
	}
	if res.Columns[0] != "v" {
		t.Fatalf("select columns=%v", res.Columns)
	}
	res = mustExecWire(t, c, "EXPLAIN SELECT * FROM kv WHERE k = 1")
	if !strings.Contains(res.Text, "index lookup") {
		t.Fatalf("explain text:\n%s", res.Text)
	}

	// Plain errors arrive as errors, not as torn connections.
	if _, err := c.Exec("SELECT * FROM nosuch"); err == nil {
		t.Fatal("missing table did not error")
	}
	// The connection is still usable after a statement error.
	if res := mustExecWire(t, c, "SELECT COUNT(*) FROM kv"); res.Rows[0][0] != 3 {
		t.Fatalf("count after error: %v", res.Rows)
	}
}

// TestWireSentinelsRoundTrip pins that engine sentinel errors keep their
// identity across the wire: errors.Is / errors.As work on the client side.
func TestWireSentinelsRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mustExecWire(t, c, "CREATE TABLE p (id)")
	mustExecWire(t, c, "CREATE UNIQUE INDEX p_pk ON p (id)")
	mustExecWire(t, c, "CREATE TABLE ch (id, pid)")
	mustExecWire(t, c, "CREATE UNIQUE INDEX ch_pk ON ch (id)")
	mustExecWire(t, c, "CREATE INDEX ch_pid ON ch (pid)")
	mustExecWire(t, c, "ALTER TABLE ch ADD FOREIGN KEY (pid) REFERENCES p (id) ON DELETE RESTRICT")
	mustExecWire(t, c, "INSERT INTO p VALUES (1)")
	mustExecWire(t, c, "INSERT INTO ch VALUES (100, 1)")

	_, err = c.Exec("DELETE FROM p WHERE id = 1")
	var restricted *bulkdel.ErrRestricted
	if !errors.As(err, &restricted) {
		t.Fatalf("restricted delete returned %v, want ErrRestricted", err)
	}

	mustExecWire(t, c, "SET timeout = 1ns")
	_, err = c.Exec("DELETE FROM ch WHERE id = 100")
	if !errors.Is(err, bulkdel.ErrCancelled) {
		t.Fatalf("timed-out delete returned %v, want ErrCancelled", err)
	}
	mustExecWire(t, c, "SET timeout = 0")
	if res := mustExecWire(t, c, "SELECT COUNT(*) FROM ch"); res.Rows[0][0] != 1 {
		t.Fatalf("cancelled delete removed rows: %v", res.Rows)
	}
}

// workerModel is one session's private shadow of its key namespace.
type workerModel struct {
	parents  map[int64]int64 // parent id -> live child count
	children int64
	nextP    int64
	nextC    int64
}

// TestWire64Sessions is the PR acceptance run: 64 concurrent TCP clients
// drive mixed INSERT/SELECT/DELETE traffic against a parent/child schema
// with an ON DELETE CASCADE foreign key. Each session owns a disjoint key
// namespace and checks every result against its private shadow model, so
// verification is exact despite full concurrency inside the engine. Every
// session also issues one `SET timeout`-cancelled DELETE and probes the
// all-or-nothing contract. The run must end with no leaked locks or
// in-flight statements and with every table passing its invariant check.
func TestWire64Sessions(t *testing.T) {
	const (
		workers  = 64
		iters    = 24
		nsWidth  = int64(1_000_000)
		cancelAt = 11 // iteration at which each worker fires its cancelled DELETE
	)
	srv, addr := startServer(t)

	admin, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	mustExecWire(t, admin, "CREATE TABLE users (id, v)")
	mustExecWire(t, admin, "CREATE UNIQUE INDEX users_pk ON users (id)")
	mustExecWire(t, admin, "CREATE TABLE orders (oid, uid)")
	mustExecWire(t, admin, "CREATE UNIQUE INDEX orders_pk ON orders (oid)")
	mustExecWire(t, admin, "CREATE INDEX orders_uid ON orders (uid)")
	mustExecWire(t, admin, "ALTER TABLE orders ADD FOREIGN KEY (uid) REFERENCES users (id) ON DELETE CASCADE")
	admin.Close()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		totals   struct{ parents, children int64 }
	)
	fail := func(sid int, format string, args ...any) {
		mu.Lock()
		if firstErr == nil {
			firstErr = fmt.Errorf("worker %d: %s", sid, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}

	for sid := 0; sid < workers; sid++ {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(0xB17D + int64(sid)))
			base := int64(sid+1) * nsWidth
			m := &workerModel{parents: make(map[int64]int64)}

			c, err := Dial(addr)
			if err != nil {
				fail(sid, "dial: %v", err)
				return
			}
			defer c.Close()
			if sid%2 == 1 {
				if _, err := execRetry(c, "SET concurrent = on"); err != nil {
					fail(sid, "set concurrent: %v", err)
					return
				}
			}

			livePick := func() (int64, bool) {
				for id := range m.parents {
					return id, true
				}
				return 0, false
			}
			insertBatch := func() error {
				var ids []string
				var pids []int64
				for i := 0; i < 3; i++ {
					id := base + m.nextP
					m.nextP++
					ids = append(ids, fmt.Sprintf("(%d, %d)", id, 10*id))
					pids = append(pids, id)
				}
				res, err := execRetry(c, "INSERT INTO users VALUES "+strings.Join(ids, ", "))
				if err != nil {
					return err
				}
				if res.Affected != 3 {
					return fmt.Errorf("parent insert affected=%d", res.Affected)
				}
				for _, id := range pids {
					m.parents[id] = 0
				}
				for _, id := range pids {
					kids := int64(rng.Intn(3))
					for k := int64(0); k < kids; k++ {
						oid := base + m.nextC
						m.nextC++
						if _, err := execRetry(c, fmt.Sprintf("INSERT INTO orders VALUES (%d, %d)", oid, id)); err != nil {
							return err
						}
						m.parents[id]++
						m.children++
					}
				}
				return nil
			}
			checkPoint := func() error {
				id, ok := livePick()
				if !ok {
					return nil
				}
				res, err := execRetry(c, fmt.Sprintf("SELECT * FROM users WHERE id = %d", id))
				if err != nil {
					return err
				}
				if len(res.Rows) != 1 || res.Rows[0][1] != 10*id {
					return fmt.Errorf("point select id=%d: %v", id, res.Rows)
				}
				res, err = execRetry(c, fmt.Sprintf("SELECT COUNT(*) FROM orders WHERE uid = %d", id))
				if err != nil {
					return err
				}
				if res.Rows[0][0] != m.parents[id] {
					return fmt.Errorf("order count for %d: got %d want %d", id, res.Rows[0][0], m.parents[id])
				}
				return nil
			}
			deleteSome := func() error {
				var victims []int64
				for id := range m.parents {
					victims = append(victims, id)
					if len(victims) == 1+rng.Intn(3) {
						break
					}
				}
				if len(victims) == 0 {
					return nil
				}
				var in []string
				for _, id := range victims {
					in = append(in, fmt.Sprintf("%d", id))
				}
				res, err := execRetry(c, fmt.Sprintf("DELETE FROM users WHERE id IN (%s)", strings.Join(in, ", ")))
				if err != nil {
					return err
				}
				if res.Affected != int64(len(victims)) {
					return fmt.Errorf("delete affected=%d want %d", res.Affected, len(victims))
				}
				for _, id := range victims {
					m.children -= m.parents[id]
					delete(m.parents, id)
				}
				return nil
			}
			cancelledDelete := func() error {
				id, ok := livePick()
				if !ok {
					return nil
				}
				if _, err := execRetry(c, "SET timeout = 1ns"); err != nil {
					return err
				}
				_, err := c.Exec(fmt.Sprintf("DELETE FROM users WHERE id = %d", id))
				if !errors.Is(err, bulkdel.ErrCancelled) {
					return fmt.Errorf("cancelled delete returned %v, want ErrCancelled", err)
				}
				if _, err := execRetry(c, "SET timeout = 0"); err != nil {
					return err
				}
				// All-or-nothing probe: the pre-expired deadline means zero
				// effect — the victim and all its children must survive.
				res, err := execRetry(c, fmt.Sprintf("SELECT COUNT(*) FROM users WHERE id = %d", id))
				if err != nil {
					return err
				}
				if res.Rows[0][0] != 1 {
					return fmt.Errorf("cancelled delete removed victim %d", id)
				}
				res, err = execRetry(c, fmt.Sprintf("SELECT COUNT(*) FROM orders WHERE uid = %d", id))
				if err != nil {
					return err
				}
				if res.Rows[0][0] != m.parents[id] {
					return fmt.Errorf("cancelled delete disturbed children of %d: got %d want %d", id, res.Rows[0][0], m.parents[id])
				}
				return nil
			}

			for it := 0; it < iters; it++ {
				var err error
				switch {
				case it == cancelAt:
					err = cancelledDelete()
				case it < 3 || rng.Intn(10) < 4:
					err = insertBatch()
				case rng.Intn(10) < 6:
					err = checkPoint()
				default:
					err = deleteSome()
				}
				if err != nil {
					fail(sid, "iter %d: %v", it, err)
					return
				}
			}

			// Final exact verification of this session's namespace.
			hi := base + nsWidth - 1
			res, err := execRetry(c, fmt.Sprintf("SELECT COUNT(*) FROM users WHERE id BETWEEN %d AND %d", base, hi))
			if err != nil {
				fail(sid, "final users count: %v", err)
				return
			}
			if res.Rows[0][0] != int64(len(m.parents)) {
				fail(sid, "final users count: got %d want %d", res.Rows[0][0], len(m.parents))
				return
			}
			res, err = execRetry(c, fmt.Sprintf("SELECT COUNT(*) FROM orders WHERE uid BETWEEN %d AND %d", base, hi))
			if err != nil {
				fail(sid, "final orders count: %v", err)
				return
			}
			if res.Rows[0][0] != m.children {
				fail(sid, "final orders count: got %d want %d", res.Rows[0][0], m.children)
				return
			}
			mu.Lock()
			totals.parents += int64(len(m.parents))
			totals.children += m.children
			mu.Unlock()
		}(sid)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	// Cross-session totals and engine invariants.
	db := srv.Frontend().DB()
	if got := db.Table("users").Count(); got != totals.parents {
		t.Fatalf("global users count %d, models say %d", got, totals.parents)
	}
	if got := db.Table("orders").Count(); got != totals.children {
		t.Fatalf("global orders count %d, models say %d", got, totals.children)
	}
	for _, name := range db.TableNames() {
		if err := db.Table(name).Check(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	rep := db.Inspect()
	if len(rep.Statements) != 0 {
		t.Fatalf("leaked in-flight statements: %+v", rep.Statements)
	}
}

// TestWireConnCloseAbortsInFlight closes a client's connection while its
// DELETE is parked inside the engine (a fault-plan hook sleeps at a fixed
// simulated I/O). The server's connection reader must notice the close,
// cancel the session context, and the statement must abort to consistency
// — no leaked statement, invariants intact, all-or-nothing row count.
func TestWireConnCloseAbortsInFlight(t *testing.T) {
	srv, addr := startServer(t)
	db := srv.Frontend().DB()

	admin, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	mustExecWire(t, admin, "CREATE TABLE R (id, v)")
	mustExecWire(t, admin, "CREATE UNIQUE INDEX pk ON R (id)")
	for i := int64(0); i < 400; i += 4 {
		mustExecWire(t, admin, fmt.Sprintf("INSERT INTO R VALUES (%d, %d), (%d, %d), (%d, %d), (%d, %d)",
			i, 2*i, i+1, 2*i+2, i+2, 2*i+4, i+3, 2*i+6))
	}
	admin.Close()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	victim, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	mustExecWire(t, victim, "SET checkpoint_rows = 16")

	// At simulated I/O 40 the hook severs the client connection, then
	// sleeps long enough for the server's reader to cancel the session
	// before the statement reaches its next cancellation checkpoint.
	var once sync.Once
	db.Disk().SetFaultPlan(sim.NewFaultPlan().CallAtIO(40, func() {
		once.Do(func() { victim.Close() })
		time.Sleep(50 * time.Millisecond)
	}))
	_, err = victim.Exec("DELETE FROM R WHERE id BETWEEN 0 AND 299")
	db.Disk().SetFaultPlan(nil)
	if err == nil {
		t.Fatal("Exec on severed connection succeeded")
	}

	// The abort is asynchronous from the client's point of view; wait for
	// the engine to report the statement gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if rep := db.Inspect(); len(rep.Statements) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("statement still in flight after conn close: %+v", db.Inspect().Statements)
		}
		time.Sleep(5 * time.Millisecond)
	}

	tbl := db.Table("R")
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	if n := tbl.Count(); n != 400 && n != 100 {
		t.Fatalf("aborted DELETE left %d rows, want 400 (zero effect) or 100 (full effect)", n)
	}
}

// TestWireForceShutdown: a graceful deadline that expires while a client
// holds its connection open must force-cancel the session and still drain.
func TestWireForceShutdown(t *testing.T) {
	db, err := bulkdel.Open(bulkdel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(session.NewFrontend(db))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustExecWire(t, c, "CREATE TABLE R (a)")

	// The client stays connected and idle; Shutdown's deadline expires and
	// the force path closes the connection server-side.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	if err := <-serveErr; !ErrServerClosed(err) {
		t.Fatalf("Serve returned %v", err)
	}
	if _, err := c.Exec("SELECT COUNT(*) FROM R"); err == nil {
		t.Fatal("statement on force-closed connection succeeded")
	}
	if rep := db.Inspect(); len(rep.Statements) != 0 {
		t.Fatalf("leaked statements after force shutdown: %+v", rep.Statements)
	}
}

// TestWirePipelined writes a DELETE frame and a SELECT frame back to back
// without waiting for the first answer, once in one write and once with
// the SELECT sent while the DELETE is parked inside the engine, where the
// DELETE's disconnect watcher reads ahead into it. Both statements are
// answered, in order, and correctly.
func TestWirePipelined(t *testing.T) {
	srv, addr := startServer(t)
	db := srv.Frontend().DB()
	admin, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	mustExecWire(t, admin, "CREATE TABLE R (id, v)")
	mustExecWire(t, admin, "CREATE UNIQUE INDEX pk ON R (id)")
	for i := int64(0); i < 400; i += 4 {
		mustExecWire(t, admin, fmt.Sprintf("INSERT INTO R VALUES (%d, 0), (%d, 0), (%d, 0), (%d, 0)", i, i+1, i+2, i+3))
	}
	admin.Close()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	for _, parked := range []bool{false, true} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		lo := int64(0)
		if parked {
			lo = 200
		}
		var del, sel bytes.Buffer
		writeFrame(&del, Request{SQL: fmt.Sprintf("DELETE FROM R WHERE id BETWEEN %d AND %d", lo, lo+99)}.appendTo(newFrame(nil)))
		writeFrame(&sel, Request{SQL: "SELECT COUNT(*) FROM R"}.appendTo(newFrame(nil)))
		if parked {
			db.Disk().SetFaultPlan(sim.NewFaultPlan().CallAtIO(1, func() {
				conn.Write(sel.Bytes())
				time.Sleep(20 * time.Millisecond)
			}))
			_, err = conn.Write(del.Bytes())
		} else {
			_, err = conn.Write(append(del.Bytes(), sel.Bytes()...))
		}
		if err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		r := bufio.NewReader(conn)
		var delResp, selResp Response
		for _, resp := range []*Response{&delResp, &selResp} {
			payload, err := readFrame(r, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := resp.decode(payload); err != nil {
				t.Fatal(err)
			}
		}
		db.Disk().SetFaultPlan(nil)
		conn.Close()
		want := int64(300)
		if parked {
			want = 200
		}
		if delResp.Error != "" || delResp.Affected != 100 {
			t.Fatalf("parked=%v: DELETE answered %+v, want 100 rows", parked, delResp)
		}
		if selResp.Error != "" || len(selResp.Rows) != 1 || selResp.Rows[0][0] != want {
			t.Fatalf("parked=%v: SELECT answered %+v, want count %d", parked, selResp, want)
		}
	}
}

// TestWireConnCloseAbortsMultiRowInsert closes a client's connection while
// its multi-row INSERT is parked inside the engine. The statement's
// disconnect watcher cancels the session and the INSERT stops between rows:
// some rows in, not all, no leaked statement, invariants intact.
func TestWireConnCloseAbortsMultiRowInsert(t *testing.T) {
	// A 64 KB pool under 1 KB records: the INSERT evicts, so it does I/O.
	srv, addr := startServerWith(t, bulkdel.Options{BufferBytes: 64 << 10})
	db := srv.Frontend().DB()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustExecWire(t, c, "CREATE TABLE R (id, v) RECORD SIZE 1024")
	const rows = 2000
	vals := make([]string, rows)
	for i := range vals {
		vals[i] = fmt.Sprintf("(%d, %d)", i, 2*i)
	}

	db.Disk().SetFaultPlan(sim.NewFaultPlan().CallAtIO(40, func() {
		c.Close()
		time.Sleep(50 * time.Millisecond)
	}))
	_, err = c.Exec("INSERT INTO R VALUES " + strings.Join(vals, ", "))
	if err == nil {
		t.Fatal("Exec on severed connection succeeded")
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(db.Inspect().Statements) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("statement still in flight after conn close: %+v", db.Inspect().Statements)
		}
		time.Sleep(5 * time.Millisecond)
	}
	db.Disk().SetFaultPlan(nil)
	tbl := db.Table("R")
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	if n := tbl.Count(); n == 0 || n >= rows {
		t.Fatalf("severed INSERT left %d of %d rows, want it stopped between rows", n, rows)
	}
}

// TestWireWatchesOnlyCancellableStatements: point SELECTs and single-row
// INSERTs put no disconnect watcher on their path; a DELETE arms one.
func TestWireWatchesOnlyCancellableStatements(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustExecWire(t, c, "CREATE TABLE R (id, v)")
	mustExecWire(t, c, "CREATE UNIQUE INDEX pk ON R (id)")
	before := srv.watches.Load()
	for i := 0; i < 500; i++ {
		mustExecWire(t, c, fmt.Sprintf("INSERT INTO R VALUES (%d, %d)", i, i))
		mustExecWire(t, c, fmt.Sprintf("SELECT v FROM R WHERE id = %d", i))
	}
	if n := srv.watches.Load() - before; n != 0 {
		t.Fatalf("1000 point statements armed %d watchers, want 0", n)
	}
	mustExecWire(t, c, "DELETE FROM R WHERE id = 7")
	if n := srv.watches.Load() - before; n != 1 {
		t.Fatalf("one DELETE armed %d watchers, want 1", n)
	}
}

// TestExecAllocs pins the allocations of a loopback point SELECT through
// Client.Exec, client and server together (the count is process-wide):
// 67 per statement with JSON payloads and a fresh buffer per frame, 42
// with the binary codec, whose share is 6 (the SQL string, the Result, the
// column names and their slice, the cells and the rows slicing them).
func TestExecAllocs(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustExecWire(t, c, "CREATE TABLE kv (k, v, w)")
	mustExecWire(t, c, "CREATE UNIQUE INDEX kv_pk ON kv (k)")
	mustExecWire(t, c, "INSERT INTO kv VALUES (1, 10, 100), (2, 20, 200), (3, 30, 300)")
	allocs := testing.AllocsPerRun(200, func() {
		if res := mustExecWire(t, c, "SELECT * FROM kv WHERE k = 2"); res.Rows[0][2] != 200 {
			t.Fatalf("select rows=%v", res.Rows)
		}
	})
	t.Logf("%.1f allocations per point SELECT", allocs)
	const limit = 42
	if allocs > limit {
		t.Fatalf("%.1f allocations per point SELECT, want <= %d", allocs, limit)
	}
}

// TestWireDropsLargeFrameBuffer: a connection end keeps its frame buffer
// between statements unless a frame grew it past keepFrame.
func TestWireDropsLargeFrameBuffer(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustExecWire(t, c, "CREATE TABLE kv (k, v, w)")
	if cap(c.buf) == 0 || cap(c.buf) > keepFrame {
		t.Fatalf("after a small statement the buffer holds %d bytes", cap(c.buf))
	}
	const rows = 8000
	vals := make([]string, rows)
	for i := range vals {
		vals[i] = fmt.Sprintf("(%d, %d, %d)", i, i<<20, -i<<20)
	}
	mustExecWire(t, c, "INSERT INTO kv VALUES "+strings.Join(vals, ", ")) // a large request
	if cap(c.buf) != 0 {
		t.Fatalf("after a large request the buffer holds %d bytes", cap(c.buf))
	}
	mustExecWire(t, c, "SELECT COUNT(*) FROM kv")
	res := mustExecWire(t, c, "SELECT * FROM kv") // a large response
	if len(res.Rows) != rows || res.Rows[rows-1][2] != -(rows-1)<<20 {
		t.Fatalf("large SELECT read %d rows, last %v", len(res.Rows), res.Rows[len(res.Rows)-1])
	}
	if cap(c.buf) != 0 {
		t.Fatalf("after a large response the buffer holds %d bytes", cap(c.buf))
	}
}
