// Package wire is the TCP front door: a length-delimited JSON protocol,
// a server that runs one session per connection, and the tiny client the
// tests and the stress harness use.
//
// Framing: every message is a 4-byte big-endian length followed by that
// many bytes of JSON. Requests carry one SQL statement; responses carry
// the session Result or an error. Closing the connection cancels the
// session context, which aborts an in-flight DELETE or multi-row INSERT
// (the statements that check it mid-flight) to consistency.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"bulkdel"
	"bulkdel/internal/session"
)

// MaxFrame bounds a single message; larger frames fail the connection
// (protects both sides from a corrupt or hostile length prefix).
const MaxFrame = 16 << 20

// Request is one client → server message.
type Request struct {
	SQL string `json:"sql"`
}

// Response is one server → client message. ErrClass preserves the engine
// sentinel identity across the wire so clients can retry intelligently.
type Response struct {
	Columns   []string  `json:"columns,omitempty"`
	Rows      [][]int64 `json:"rows,omitempty"`
	Affected  int64     `json:"affected,omitempty"`
	Text      string    `json:"text,omitempty"`
	ElapsedUS int64     `json:"elapsed_us,omitempty"`
	Error     string    `json:"error,omitempty"`
	ErrClass  string    `json:"err_class,omitempty"`
}

// Sentinel classes carried in Response.ErrClass.
const (
	ClassCancelled   = "cancelled"
	ClassLockTimeout = "lock_timeout"
	ClassOverloaded  = "overloaded"
	ClassRestricted  = "restricted"
)

// classOf maps an engine error to its wire class ("" = plain error).
func classOf(err error) string {
	var restricted *bulkdel.ErrRestricted
	switch {
	case errors.Is(err, bulkdel.ErrCancelled):
		return ClassCancelled
	case errors.Is(err, bulkdel.ErrLockTimeout):
		return ClassLockTimeout
	case errors.Is(err, bulkdel.ErrOverloaded):
		return ClassOverloaded
	case errors.As(err, &restricted):
		return ClassRestricted
	}
	return ""
}

// sentinelOf is the client-side inverse of classOf. ErrRestricted is a
// struct type, so clients recover it with errors.As (the detail fields
// stay in the message text, not the reconstructed value).
func sentinelOf(class string) error {
	switch class {
	case ClassCancelled:
		return bulkdel.ErrCancelled
	case ClassLockTimeout:
		return bulkdel.ErrLockTimeout
	case ClassOverloaded:
		return bulkdel.ErrOverloaded
	case ClassRestricted:
		return &bulkdel.ErrRestricted{}
	}
	return nil
}

// responseFor converts a session result or error to its wire form.
func responseFor(res *session.Result, err error) Response {
	if err != nil {
		return Response{Error: err.Error(), ErrClass: classOf(err)}
	}
	return Response{
		Columns:   res.Columns,
		Rows:      res.Rows,
		Affected:  res.Affected,
		Text:      res.Text,
		ElapsedUS: res.Elapsed.Microseconds(),
	}
}

// writeFrame marshals v and writes one length-prefixed frame in one Write.
func writeFrame(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload))
	}
	frame := binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(payload)), uint32(len(payload)))
	_, err = w.Write(append(frame, payload...))
	return err
}

// readFrame reads one length-prefixed frame into v.
func readFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return err
	}
	return json.Unmarshal(payload, v)
}
