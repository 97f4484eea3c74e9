package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"bulkdel"
	"bulkdel/internal/session"
	"bulkdel/internal/wire"
)

// env is one database under test with its front door.
type env struct {
	w    *workload
	db   *bulkdel.DB
	fe   *session.Frontend
	tbl  *bulkdel.Table
	opts bulkdel.Options

	srv       *wire.Server
	addr      string
	serveDone chan error
}

// openEnv creates the database, the table, loads gen's rows through the
// root API (the load is not what the workloads measure) and builds the
// indexes bottom-up over the loaded heap.
func openEnv(w *workload, gen generator) (*env, error) {
	opts := bulkdel.Options{BufferBytes: w.poolBytes}
	db, err := bulkdel.Open(opts)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, db: db, fe: session.NewFrontend(db), opts: opts}
	// DDL goes through a session so the frontend learns the column names.
	ddl := e.fe.NewSession(context.Background())
	defer ddl.Close()
	create, indexes := gen.ddl()
	if _, err := ddl.Exec(create); err != nil {
		return nil, fmt.Errorf("benchmark: %s: %w", create, err)
	}
	name := w.stmts().table
	e.tbl = db.Table(name)
	err = gen.preload(func(row [3]int64) error {
		_, err := e.tbl.Insert(row[0], row[1], row[2])
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("benchmark: loading %s: %w", name, err)
	}
	for _, stmt := range indexes {
		if _, err := ddl.Exec(stmt); err != nil {
			return nil, fmt.Errorf("benchmark: %s: %w", stmt, err)
		}
	}
	return e, nil
}

// serve starts the loopback wire server once.
func (e *env) serve() error {
	if e.srv != nil {
		return nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.srv = wire.NewServer(e.fe)
	e.addr = ln.Addr().String()
	e.serveDone = make(chan error, 1)
	go func() { e.serveDone <- e.srv.Serve(ln) }()
	return nil
}

// close drains the wire server, if one runs, and waits for it to exit.
func (e *env) close() error {
	if e.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.serveDone; !wire.ErrServerClosed(serr) && err == nil {
		err = serr
	}
	e.srv = nil
	return err
}

// executor runs one statement at one depth and returns what the engine
// answered: the rows of a read, the affected count of a write.
type executor interface {
	exec(o *op) (rows [][]int64, affected int64, err error)
	close() error
}

// wireExec keeps the latest result so the traced run can size its frame.
type wireExec struct {
	c    *wire.Client
	last *session.Result
}

func (x *wireExec) exec(o *op) ([][]int64, int64, error) {
	res, err := x.c.Exec(o.sql)
	x.last = res
	if err != nil {
		return nil, 0, err
	}
	return res.Rows, res.Affected, nil
}

func (x *wireExec) close() error { return x.c.Close() }

type sessionExec struct{ s *session.Session }

func (x sessionExec) exec(o *op) ([][]int64, int64, error) {
	res, err := x.s.Exec(o.sql)
	if err != nil {
		return nil, 0, err
	}
	return res.Rows, res.Affected, nil
}

func (x sessionExec) close() error { x.s.Close(); return nil }

// apiExec issues the bulkdel.Table call a session lowers the statement to.
type apiExec struct {
	tbl *bulkdel.Table
	ctx context.Context
}

func (x apiExec) exec(o *op) ([][]int64, int64, error) {
	switch o.kind {
	case opPoint:
		rows, err := x.tbl.Lookup(0, o.a)
		return rows, 0, err
	case opRange:
		rows, err := x.tbl.LookupRange(0, o.a, o.hi)
		return rows, 0, err
	case opInsert:
		r := rowOf(o.a)
		_, err := x.tbl.Insert(r[0], r[1], r[2])
		return nil, 1, err
	case opDelete:
		var res *bulkdel.BulkResult
		var err error
		if o.rangeDel {
			res, err = x.tbl.DeleteRange(0, o.a, o.hi, bulkdel.BulkOptions{Ctx: x.ctx})
		} else {
			res, err = x.tbl.BulkDelete(0, o.victims, bulkdel.BulkOptions{Ctx: x.ctx})
		}
		if err != nil {
			return nil, 0, err
		}
		return nil, res.Deleted, nil
	}
	return nil, 0, errors.New("benchmark: unknown statement kind")
}

func (apiExec) close() error { return nil }

// executorAt opens an executor for one connection at depth d.
func (e *env) executorAt(d depth) (executor, error) {
	switch d {
	case depthWire:
		if err := e.serve(); err != nil {
			return nil, err
		}
		c, err := wire.Dial(e.addr)
		if err != nil {
			return nil, err
		}
		return &wireExec{c: c}, nil
	case depthSession:
		return sessionExec{e.fe.NewSession(context.Background())}, nil
	case depthAPI:
		return apiExec{tbl: e.tbl, ctx: context.Background()}, nil
	}
	return nil, fmt.Errorf("benchmark: nothing executes at the %s depth", depthNames[d])
}

// verify compares an answer with the shadow model's expectation.
func verify(o *op, rows [][]int64, affected int64) bool {
	switch o.kind {
	case opPoint:
		if int64(len(rows)) != o.want {
			return false
		}
		return o.want == 0 || rowEquals(rows[0], rowOf(o.a))
	case opRange:
		if int64(len(rows)) != o.want {
			return false
		}
		for _, r := range rows {
			if len(r) != 3 || r[0] < o.a || r[0] > o.hi || !rowEquals(r, rowOf(r[0])) {
				return false
			}
		}
		return true
	case opInsert:
		return affected == 1
	case opDelete:
		// An LSM range tombstone is blind: the API reports -1, SQL 0.
		return o.want < 0 || affected == o.want
	}
	return false
}

func rowEquals(got []int64, want [3]int64) bool {
	return len(got) == 3 && got[0] == want[0] && got[1] == want[1] && got[2] == want[2]
}
