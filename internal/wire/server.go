package wire

import (
	"bufio"
	"context"
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"bulkdel/internal/session"
)

// Server accepts TCP connections and runs one session per connection.
// Statements from different connections contend inside the engine exactly
// like concurrent Go-API statements: per-table lock footprints, the DB-wide
// admission pool, and the cancellation machinery.
type Server struct {
	frontend *session.Frontend

	// base is the parent context of every connection's session; cancelling
	// it (force shutdown) aborts all in-flight statements.
	base   context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	shutdown bool
	wg       sync.WaitGroup
	watches  atomic.Int64 // disconnect watchers armed, for tests
}

// NewServer wraps a session frontend.
func NewServer(f *session.Frontend) *Server {
	base, cancel := context.WithCancel(context.Background())
	return &Server{frontend: f, base: base, cancel: cancel, conns: make(map[net.Conn]struct{})}
}

// Frontend returns the wrapped frontend (the stress harness reuses it).
func (s *Server) Frontend() *session.Frontend { return s.frontend }

// Serve accepts connections until the listener is closed (by Shutdown).
// It always returns a non-nil error; after Shutdown it returns
// net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.shutdown {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// serveConn runs the connection's session on the goroutine that reads the
// socket: read a frame, execute it, write the response, loop. Only a
// statement that can act on a cancel mid-flight arms a disconnect watcher
// (the session calls watch); a cheap one has no second goroutine on its path.
func (s *Server) serveConn(conn net.Conn) {
	sess := s.frontend.NewSession(s.base)
	defer func() {
		sess.Close()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	r := bufio.NewReader(conn)
	sess.SetWatch(func() func() { return s.watch(conn, r, sess) })
	var buf []byte // the frame buffer of every request and response
	for {
		var err error
		if buf, err = readFrame(r, buf); err != nil {
			return // client gone or garbage, or force shutdown closed conn
		}
		var req Request
		req.decode(buf)
		resp := responseFor(sess.Exec(req.SQL))
		buf = resp.appendTo(newFrame(buf))
		if err := writeFrame(conn, buf); err != nil {
			return
		}
		buf = reuse(buf)
	}
}

// watch arms a disconnect watcher for one statement: a goroutine blocked
// in a one-byte Peek of the connection's reader. EOF or a hard error closes
// the session, so the statement aborts to consistency at its next
// checkpoint; a pipelined frame's bytes stay buffered for the loop. stop
// ends the Peek with a past deadline and waits, so r is the loop's again.
func (s *Server) watch(conn net.Conn, r *bufio.Reader, sess *session.Session) (stop func()) {
	s.watches.Add(1)
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		if _, err := r.Peek(1); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			sess.Close()
		}
	}()
	return func() {
		// SetReadDeadline fails only on a closed conn, whose Peek returns.
		conn.SetReadDeadline(time.Unix(1, 0))
		<-exited
		conn.SetReadDeadline(time.Time{})
	}
}

// Shutdown stops accepting, then waits for every connection to finish its
// in-flight statement and disconnect. If ctx expires first, all session
// contexts are cancelled (statements abort to consistency at their next
// recoverable boundary), connections close, and Shutdown keeps waiting
// for the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.shutdown = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancel() // force: abort in-flight statements
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close() // and end every loop blocked in readFrame
		}
		s.mu.Unlock()
		<-done
	}
	s.cancel()
	return err
}

// ErrServerClosed reports whether err is the listener-closed error Serve
// returns after Shutdown.
func ErrServerClosed(err error) bool { return errors.Is(err, net.ErrClosed) }
