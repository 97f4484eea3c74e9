// Package wire is the TCP front door: a length-delimited binary protocol,
// a server that runs one session per connection, and the tiny client the
// tests and the stress harness use.
//
// Framing: every message is a 4-byte big-endian payload length, then the
// payload, at most MaxFrame bytes, written in one Write. A request's
// payload is one SQL statement's bytes as they are. A response's payload
// is, in order:
//
//	uvarint ncolumns, then per column: uvarint len, name bytes
//	uvarint nrows,    then per row:    uvarint width, width zigzag varints
//	zigzag varint affected
//	zigzag varint elapsed_us
//	uvarint len, text bytes
//	uvarint len, error bytes
//	uvarint len, err_class bytes
//
// Strings are sent unchanged, valid UTF-8 or not. The decoder checks every
// count against the bytes left before it allocates, and refuses varint
// overflow and trailing bytes. Each connection end reuses one frame buffer.
// Closing the connection cancels the session context, which aborts an
// in-flight DELETE or multi-row INSERT (the statements that check it
// mid-flight) to consistency.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"bulkdel"
	"bulkdel/internal/session"
)

// MaxFrame bounds a single message; larger frames fail the connection
// (protects both sides from a corrupt or hostile length prefix).
const MaxFrame = 16 << 20

// keepFrame is the largest frame buffer a connection end keeps between
// statements; a larger one is dropped, so one big result does not stay
// pinned to an idle connection.
const keepFrame = 64 << 10

// Request is one client → server message. The JSON tags only name the
// fields for code that prints or sizes messages; the wire is binary.
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

// newFrame empties buf for the next frame and reserves its 4-byte length
// prefix, which writeFrame fills; the message's appendTo adds the payload.
func newFrame(buf []byte) []byte { return append(buf[:0], 0, 0, 0, 0) }

// writeFrame fills the length prefix of a frame built on newFrame and
// writes the frame in one Write.
func writeFrame(w io.Writer, frame []byte) error {
	n := len(frame) - 4
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	_, err := w.Write(frame)
	return err
}

// readFrame reads one frame's payload into buf, reused and grown only as
// the payload's bytes arrive, so a length prefix costs no more memory
// than the bytes sent after it. The payload is valid until buf's next use.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], 4)[:4]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf[:0], err
	}
	n := int(binary.BigEndian.Uint32(buf))
	if n > MaxFrame {
		return buf[:0], fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), 512)))
		}
		m, err := r.Read(buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil && len(buf) < n {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf[:0], err
		}
	}
	return buf, nil
}

// reuse is a connection end's frame buffer after a statement: emptied,
// or dropped when a frame grew it past keepFrame.
func reuse(buf []byte) []byte {
	if cap(buf) > keepFrame {
		return nil
	}
	return buf[:0]
}

// appendTo appends q's payload: the SQL bytes as they are.
func (q Request) appendTo(b []byte) []byte { return append(b, q.SQL...) }

// decode sets q from a payload; every byte string is a statement.
func (q *Request) decode(payload []byte) { q.SQL = string(payload) }

// appendTo appends p's payload in the layout of the package comment.
func (p *Response) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p.Columns)))
	for _, c := range p.Columns {
		b = appendString(b, c)
	}
	b = binary.AppendUvarint(b, uint64(len(p.Rows)))
	for _, row := range p.Rows {
		b = binary.AppendUvarint(b, uint64(len(row)))
		for _, v := range row {
			b = binary.AppendVarint(b, v)
		}
	}
	b = binary.AppendVarint(b, p.Affected)
	b = binary.AppendVarint(b, p.ElapsedUS)
	b = appendString(b, p.Text)
	b = appendString(b, p.Error)
	return appendString(b, p.ErrClass)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// decode sets p from a payload. It walks the columns and the rows once to
// check them before it allocates: the column names then share one string
// and the cells one []int64, which the rows slice.
func (p *Response) decode(payload []byte) error {
	*p = Response{}
	d := decoder{b: payload}
	if n := d.count(); n > 0 {
		first := d.off
		for range n {
			d.span()
		}
		if d.err != nil {
			return d.err
		}
		names := string(payload[first:d.off])
		p.Columns = make([]string, n)
		r := decoder{b: payload[:d.off], off: first}
		for i := range p.Columns {
			s, e := r.span()
			p.Columns[i] = names[s-first : e-first]
		}
	}
	if n := d.count(); n > 0 {
		first, cells := d.off, 0
		for range n {
			w := d.count()
			for range w {
				d.varint()
			}
			cells += w
		}
		if d.err != nil {
			return d.err
		}
		flat := make([]int64, cells)
		p.Rows = make([][]int64, n)
		r := decoder{b: payload[:d.off], off: first}
		for i := range p.Rows {
			w := r.count()
			row := flat[:w:w]
			flat = flat[w:]
			for j := range row {
				row[j] = r.varint()
			}
			p.Rows[i] = row
		}
	}
	p.Affected = d.varint()
	p.ElapsedUS = d.varint()
	p.Text = d.string()
	p.Error = d.string()
	p.ErrClass = d.string()
	if d.err == nil && d.off != len(payload) {
		d.fail()
	}
	return d.err
}

// decoder reads a response payload. Its first failure sticks: d.err is
// set, the rest of the payload is skipped and every later read returns 0.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("wire: malformed response at byte %d of %d", d.off, len(d.b))
	}
	d.off = len(d.b)
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 { // cut short, or over 64 bits
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// count reads a count of items that take at least a byte each, so a count
// above the bytes left is refused before anything is sized by it.
func (d *decoder) count() int {
	v := d.uvarint()
	if v > uint64(len(d.b)-d.off) {
		d.fail()
		return 0
	}
	return int(v)
}

// span skips a length-prefixed string and returns its byte range.
func (d *decoder) span() (start, end int) {
	n := d.count()
	d.off += n
	return d.off - n, d.off
}

func (d *decoder) string() string {
	s, e := d.span()
	return string(d.b[s:e])
}
