package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

// FuzzReadFrame fuzzes the wire's decode boundary. Arbitrary bytes give an
// error or a value, never a panic, and decoding them as a response payload
// allocates at most a small multiple of their size; a length prefix over
// MaxFrame is refused after the prefix alone, and a prefix above the bytes
// sent costs a multiple of the bytes sent, not of the prefix; a count above
// the bytes left in a response is an error; every truncation of a valid
// frame or response payload is an error; and any Request and Response,
// valid UTF-8 or not, reads back as it was written.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 0, 0}, "SELECT v FROM kv WHERE k = 2", "", int64(0), []byte(nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, '{'}, "DELETE FROM kv", "cancelled", int64(-7), []byte{1, 2, 3, 4})
	f.Add([]byte{0, 0, 0, 9, 1, 0x80}, "\xff", "range tombstone\n", int64(1<<40), []byte{0x80})
	f.Fuzz(func(t *testing.T, raw []byte, sql, text string, n int64, cells []byte) {
		grew := allocated(func() { readFrame(bytes.NewReader(raw), nil) })
		if limit := 8*uint64(len(raw)) + 4096; grew > limit {
			t.Fatalf("reading a %d-byte input allocated %d bytes, want <= %d", len(raw), grew, limit)
		}
		if payload, err := readFrame(bytes.NewReader(raw), nil); err == nil {
			var req Request
			req.decode(payload)
		}
		var resp Response
		grew = allocated(func() { resp.decode(raw) })
		if limit := 32*uint64(len(raw)) + 1024; grew > limit {
			t.Fatalf("decoding a %d-byte payload allocated %d bytes, want <= %d", len(raw), grew, limit)
		}

		if len(raw) >= 4 && binary.BigEndian.Uint32(raw) > MaxFrame {
			r := bytes.NewReader(raw)
			if _, err := readFrame(r, nil); err == nil {
				t.Fatalf("length prefix %d accepted", binary.BigEndian.Uint32(raw))
			}
			if read := len(raw) - r.Len(); read != 4 {
				t.Fatalf("oversized frame: read %d bytes, want the 4-byte prefix only", read)
			}
		}

		// A count one past the bytes left, at each count a response has.
		over := binary.AppendUvarint(nil, uint64(len(cells))+1+uint64(n)%(1<<40))
		for _, prefix := range [][]byte{
			nil,             // columns
			{0},             // rows
			{0, 1},          // the row's width
			{1},             // a column name's length
			{0, 0, 0, 0},    // text
			{0, 0, 0, 0, 0}, // error
		} {
			payload := append(append(append([]byte(nil), prefix...), over...), cells...)
			if err := resp.decode(payload); err == nil {
				t.Fatalf("payload %x: count above the %d bytes left accepted", payload, len(cells))
			}
		}

		q := Request{SQL: sql}
		roundTrip(t, q, q.appendTo(nil), decodeRequest)
		out := Response{Affected: n, Text: text, ElapsedUS: n / 3, Error: sql, ErrClass: text}
		for i, b := range cells {
			if i%3 == 0 {
				out.Rows = append(out.Rows, nil)
				out.Columns = append(out.Columns, text)
			}
			out.Rows[i/3] = append(out.Rows[i/3], n*int64(int8(b)))
		}
		payload := out.appendTo(nil)
		roundTrip(t, out, payload, decodeResponse)
		for _, cut := range []int{0, 1, len(payload) / 2, len(payload) - 1} {
			if err := resp.decode(payload[:cut]); err == nil {
				t.Fatalf("response payload cut to %d of %d bytes accepted", cut, len(payload))
			}
		}
		if err := resp.decode(append(payload, 0)); err == nil {
			t.Fatalf("response payload with a trailing byte accepted")
		}
	})
}

// TestCodecKeepsInvalidUTF8: strings cross the wire as the bytes they are.
func TestCodecKeepsInvalidUTF8(t *testing.T) {
	q := Request{SQL: "\xff"}
	roundTrip(t, q, q.appendTo(nil), decodeRequest)
	p := Response{Columns: []string{"\xfe"}, Text: "a\xffb", Error: "\xc3", ErrClass: "\xff"}
	roundTrip(t, p, p.appendTo(nil), decodeResponse)
}

// TestLyingLengthPrefix: a prefix of MaxFrame followed by 10 bytes and EOF
// is an error that allocated for the bytes sent, not for the prefix.
func TestLyingLengthPrefix(t *testing.T) {
	raw := append(binary.BigEndian.AppendUint32(nil, MaxFrame), make([]byte, 10)...)
	var err error
	grew := allocated(func() { _, err = readFrame(bytes.NewReader(raw), nil) })
	if err == nil {
		t.Fatal("a frame cut short of its length prefix was accepted")
	}
	if grew >= 1<<20 {
		t.Fatalf("a %d-byte frame prefix and 10 bytes allocated %d bytes", MaxFrame, grew)
	}
}

func decodeRequest(payload []byte) (q Request, err error) {
	q.decode(payload)
	return q, nil
}

func decodeResponse(payload []byte) (p Response, err error) {
	err = p.decode(payload)
	return p, err
}

// roundTrip writes v's payload as one frame, reads it back, decodes and
// compares, then checks that cutting the frame short is an error.
func roundTrip[T any](t *testing.T, v T, payload []byte, decode func([]byte) (T, error)) {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, append(newFrame(nil), payload...)); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	read, err := readFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatalf("readFrame(writeFrame(%+v)): %v", v, err)
	}
	got, err := decode(read)
	if err != nil {
		t.Fatalf("decode(%x): %v", read, err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("round trip: wrote %+v, read %+v", v, got)
	}
	for _, cut := range []int{0, 1, 3, 4, 5, len(frame) / 2, len(frame) - 1} {
		if cut < len(frame) {
			if _, err := readFrame(bytes.NewReader(frame[:cut]), nil); err == nil {
				t.Fatalf("frame cut to %d of %d bytes accepted", cut, len(frame))
			}
		}
	}
}

// allocated is the number of heap bytes fn allocates: the least of three
// calls, as the count is process-wide and another goroutine may allocate.
func allocated(fn func()) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
