package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
	"unicode/utf8"
)

// FuzzReadFrame fuzzes the wire's decode boundary. Arbitrary bytes give an
// error or a value, never a panic; a length prefix over MaxFrame is refused
// after the prefix alone, before its payload is allocated; every truncation
// of a valid frame is an error; and readFrame reads back any Request and
// Response writeFrame wrote.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, '{', '}'}, "SELECT v FROM kv WHERE k = 2", "", int64(0), []byte(nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, '{'}, "DELETE FROM kv", "cancelled", int64(-7), []byte{1, 2, 3, 4})
	f.Add([]byte{0, 0, 0, 9, '{', '"'}, "", "range tombstone\n", int64(1<<40), []byte{0x80})
	f.Fuzz(func(t *testing.T, raw []byte, sql, text string, n int64, cells []byte) {
		var req Request
		var resp Response
		readFrame(bytes.NewReader(raw), &req)
		readFrame(bytes.NewReader(raw), &resp)

		if len(raw) >= 4 && binary.BigEndian.Uint32(raw) > MaxFrame {
			r := bytes.NewReader(raw)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := readFrame(r, &req)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("length prefix %d accepted", binary.BigEndian.Uint32(raw))
			}
			if read := len(raw) - r.Len(); read != 4 {
				t.Fatalf("oversized frame: read %d bytes, want the 4-byte prefix only", read)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= MaxFrame {
				t.Fatalf("oversized frame: allocated %d bytes before refusing it", grew)
			}
		}

		// JSON carries text as UTF-8; other strings do not round-trip.
		if !utf8.ValidString(sql) || !utf8.ValidString(text) {
			return
		}
		roundTrip(t, Request{SQL: sql})
		out := Response{Affected: n, Text: text, ElapsedUS: n / 3, Error: sql, ErrClass: text}
		for i, b := range cells {
			if i%3 == 0 {
				out.Rows = append(out.Rows, nil)
				out.Columns = append(out.Columns, text)
			}
			out.Rows[i/3] = append(out.Rows[i/3], n*int64(int8(b)))
		}
		roundTrip(t, out)
	})
}

// roundTrip writes v as one frame, reads it back and compares, then checks
// that cutting the frame short is an error.
func roundTrip[T any](t *testing.T, v T) {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, v); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	var got T
	if err := readFrame(bytes.NewReader(frame), &got); err != nil {
		t.Fatalf("readFrame(writeFrame(%+v)): %v", v, err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("round trip: wrote %+v, read %+v", v, got)
	}
	for _, cut := range []int{0, 1, 3, 4, 5, len(frame) / 2, len(frame) - 1} {
		if cut < len(frame) && readFrame(bytes.NewReader(frame[:cut]), &got) == nil {
			t.Fatalf("frame cut to %d of %d bytes accepted", cut, len(frame))
		}
	}
}
