package wire

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"bulkdel/internal/session"
)

// Client is a blocking single-connection client: one statement in flight
// at a time, like a SQL session. Not safe for concurrent use.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	buf  []byte // the frame buffer of every request and response
}

// Dial connects to a wire server.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Exec sends one statement and waits for its result. Engine sentinel
// errors (ErrCancelled, ErrLockTimeout, ErrOverloaded, ErrRestricted)
// round-trip: errors.Is works on the returned error.
func (c *Client) Exec(sql string) (*session.Result, error) {
	c.buf = Request{SQL: sql}.appendTo(newFrame(c.buf))
	if err := writeFrame(c.conn, c.buf); err != nil {
		return nil, err
	}
	var err error
	if c.buf, err = readFrame(c.r, c.buf); err != nil {
		return nil, err
	}
	var resp Response
	err = resp.decode(c.buf)
	c.buf = reuse(c.buf)
	if err != nil {
		return nil, err
	}
	if resp.Error != "" {
		if sentinel := sentinelOf(resp.ErrClass); sentinel != nil {
			return nil, fmt.Errorf("%w: %s", sentinel, resp.Error)
		}
		return nil, fmt.Errorf("wire: %s", resp.Error)
	}
	return &session.Result{
		Columns:  resp.Columns,
		Rows:     resp.Rows,
		Affected: resp.Affected,
		Text:     resp.Text,
		Elapsed:  time.Duration(resp.ElapsedUS) * time.Microsecond,
	}, nil
}

// Close terminates the connection; the server cancels the session,
// aborting a DELETE or multi-row INSERT still in flight.
func (c *Client) Close() error { return c.conn.Close() }
