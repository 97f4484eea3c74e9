package wal

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// Restart truncates the log to zero pages, discards buffered records
// unwritten and bumps the generation; the next record starts the stream
// again at offset 0, and recovery sees only the new generation.
func TestRestartTruncatesAndDiscardsDeadRecords(t *testing.T) {
	d := testDisk()
	l := Create(d)
	for i := uint64(0); i < 200; i++ {
		if _, err := l.Append(TLSMPut, 0, i, i+1, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(TLSMPut, 0, 999, 1000, nil); err != nil { // buffered, dead
		t.Fatal(err)
	}
	before := l.QueueStats()
	if err := l.Restart(func() bool { return true }); err != nil {
		t.Fatal(err)
	}
	if n, _ := d.NumPages(l.FileID()); n != 0 {
		t.Fatalf("log holds %d pages after the restart", n)
	}
	after := l.QueueStats()
	if after.FlushPages != before.FlushPages || after.Restarts != 1 || after.Queued != 0 {
		t.Fatalf("restart wrote pages or kept the buffer: %+v -> %+v", before, after)
	}
	if err := l.Restart(func() bool { return true }); err != nil || l.QueueStats().Restarts != 1 {
		t.Fatalf("an empty log restarted (%v)", err)
	}
	lsn, err := l.Append(TNote, 7, 1, 2, []byte("new"))
	if err != nil || lsn != 0 {
		t.Fatalf("first record after the restart at LSN %d (%v), want 0", lsn, err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := Open(d, l.FileID())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != TNote || recs[0].Gen != 2 || !bytes.Equal(recs[0].Payload, []byte("new")) {
		t.Fatalf("recovered %+v, want the one generation-2 note", recs)
	}
}

// Restart refuses while the caller's check fails, and while a bulk delete
// or a file move the log holds is open — also one recovered from the log.
func TestRestartRefusedWhileARecordIsLive(t *testing.T) {
	d := testDisk()
	l := Create(d)
	if _, err := l.Append(TNote, 0, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	restarted := func() bool {
		t.Helper()
		before := l.QueueStats().Restarts
		if err := l.Restart(func() bool { return true }); err != nil {
			t.Fatal(err)
		}
		return l.QueueStats().Restarts > before
	}
	if err := l.Restart(func() bool { return false }); err != nil || l.QueueStats().Restarts != 0 {
		t.Fatalf("restarted although the caller holds live records (%v)", err)
	}
	for _, step := range []struct {
		typ  Type
		tx   uint64
		a    uint64
		open bool
	}{
		{TBulkStart, 1, 5, true},
		{TMoveStart, 2, 9, true},
		{TBulkEnd, 1, 0, true}, // the move is still open
		{TMoveDone, 2, 9, false},
	} {
		if _, err := l.Append(step.typ, step.tx, step.a, 0, nil); err != nil {
			t.Fatal(err)
		}
		if step.typ == TMoveStart {
			// Recovery rebuilds the open set from the durable records.
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			var err error
			if l, _, err = Open(d, l.FileID()); err != nil {
				t.Fatal(err)
			}
		}
		if ok := restarted(); ok == step.open {
			t.Fatalf("after %v: restarted = %v", step.typ, ok)
		}
	}
}

// FuzzParseStream: parseStream never panics on any byte stream; what it
// returns is a prefix of well-formed records — each at its LSN, with a valid
// CRC, generations nondecreasing — ending at the offset it reports; and
// records appended through a Log come back from the flushed file intact.
func FuzzParseStream(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add(encodeRec(1, TBegin, 1, 2, 3, []byte("seed")), uint8(3))
	f.Add(append(encodeRec(2, TCommit, 1, 0, 0, nil), encodeRec(1, TBegin, 1, 0, 0, nil)...), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, split uint8) {
		recs, off, maxGen := parseStream(data)
		if off > uint64(len(data)) {
			t.Fatalf("offset %d past the %d-byte stream", off, len(data))
		}
		var at uint64
		var gen uint32
		for i, r := range recs {
			if uint64(r.LSN) != at {
				t.Fatalf("record %d at LSN %d, want %d", i, r.LSN, at)
			}
			if r.Gen < gen || r.Gen == 0 {
				t.Fatalf("record %d: generation %d after %d", i, r.Gen, gen)
			}
			gen = r.Gen
			hdr := data[at : at+recHeaderSize]
			if binary.LittleEndian.Uint32(hdr[crcOff:]) != recCRC(hdr, r.Payload) {
				t.Fatalf("record %d: CRC mismatch", i)
			}
			at += recHeaderSize + uint64(len(r.Payload))
		}
		if at != off || gen != maxGen {
			t.Fatalf("records end at %d gen %d; parseStream reported %d gen %d", at, gen, off, maxGen)
		}

		// Round trip: cut data into payloads of at most split+1 bytes.
		d := testDisk()
		l := Create(d)
		var want []Record
		for rest, i := data, 0; len(rest) > 0 || i == 0; i++ {
			n := min(len(rest), int(split)+1)
			r := Record{Type: Type(1 + i%int(TLSMRangeDel)), TxID: uint64(i), A: uint64(n), B: uint64(len(rest)), Payload: rest[:n]}
			if _, err := l.Append(r.Type, r.TxID, r.A, r.B, r.Payload); err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
			rest = rest[n:]
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		n, _ := d.NumPages(l.FileID())
		stream, err := readStream(d, l.FileID(), n)
		if err != nil {
			t.Fatal(err)
		}
		got, _, _ := parseStream(stream)
		if len(got) != len(want) {
			t.Fatalf("parsed %d records back, appended %d", len(got), len(want))
		}
		for i, r := range got {
			w := want[i]
			if r.Type != w.Type || r.TxID != w.TxID || r.A != w.A || r.B != w.B || r.Gen != 1 || !bytes.Equal(r.Payload, w.Payload) {
				t.Fatalf("record %d came back as %+v, appended %+v", i, r, w)
			}
		}
	})
}
