package wal

import (
	"testing"

	"bulkdel/internal/sim"
)

// encodeRec renders one record in wire form as generation gen would write it.
func encodeRec(gen uint32, t Type, tx, a, b uint64, payload []byte) []byte {
	l := &Log{gen: gen}
	if _, err := l.Append(t, tx, a, b, payload); err != nil {
		panic(err)
	}
	return l.buf
}

// tearNextFlush arranges a torn crash on the tail-page write of the next
// Flush: the flush reads the tail page back (1 I/O) and then writes it, so
// the crash lands on I/O +2 and persists only tearBytes of the new image.
func tearNextFlush(d *sim.Disk, l *Log, tearBytes int) {
	d.SetFaultPlan(sim.NewFaultPlan().
		CrashAtIO(2).
		TearFileWrite(l.FileID(), tearBytes))
}

func TestTornTailInsideHeader(t *testing.T) {
	d := testDisk()
	l := Create(d)
	if _, err := l.Append(TBegin, 1, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	base := int(l.off % sim.PageSize)
	// The tear lands 10 bytes into the 35-byte header of the new record:
	// its type byte and generation persist, the length and crc do not.
	if _, err := l.Append(TCommit, 1, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	tearNextFlush(d, l, base+10)
	if err := l.Flush(); !sim.IsCrash(err) {
		t.Fatalf("flush = %v, want crash", err)
	}
	d.SetFaultPlan(nil)
	_, recs, err := Open(d, l.FileID())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != TBegin {
		t.Fatalf("recovered %v, want only the begin record", recs)
	}
}

func TestTornTailInsidePayload(t *testing.T) {
	d := testDisk()
	l := Create(d)
	if _, err := l.Append(TBegin, 1, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	base := int(l.off % sim.PageSize)
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i)
	}
	if _, err := l.Append(TNote, 1, 2, 3, payload); err != nil {
		t.Fatal(err)
	}
	// Header fully persists (plausible type, length, crc); the payload is
	// cut 5 bytes in, so only the checksum can reject the record.
	tearNextFlush(d, l, base+recHeaderSize+5)
	if err := l.Flush(); !sim.IsCrash(err) {
		t.Fatalf("flush = %v, want crash", err)
	}
	d.SetFaultPlan(nil)
	_, recs, err := Open(d, l.FileID())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != TBegin {
		t.Fatalf("recovered %v, want only the begin record", recs)
	}
}

func TestStaleGenerationNotResurrected(t *testing.T) {
	// Hand-craft the platter image a torn generation hand-off could leave:
	// one valid generation-2 record, immediately followed by complete,
	// checksum-valid generation-1 records (an old bulk-start) that a
	// shorter new tail failed to overwrite. The scan must stop at the
	// generation decrease rather than resurrect the old bulk delete.
	d := testDisk()
	id := d.CreateFile()
	if _, err := d.Allocate(id); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, sim.PageSize)
	stream := encodeRec(2, TCommit, 9, 0, 0, nil)
	stream = append(stream, encodeRec(1, TBulkStart, 4, 7, 8, nil)...)
	stream = append(stream, encodeRec(1, TStructStart, 4, 7, 1, nil)...)
	copy(page, stream)
	if err := d.WritePage(id, 0, page); err != nil {
		t.Fatal(err)
	}
	l, recs, err := Open(d, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != TCommit || recs[0].Gen != 2 {
		t.Fatalf("recovered %v, want only the gen-2 commit", recs)
	}
	if _, found := AnalyzeBulk(recs); found {
		t.Fatal("stale generation-1 bulk delete was resurrected")
	}
	if l.Generation() != 3 {
		t.Fatalf("new generation = %d, want 3", l.Generation())
	}
}

func TestGenerationBumpsAcrossReopens(t *testing.T) {
	d := testDisk()
	l := Create(d)
	if l.Generation() != 1 {
		t.Fatalf("fresh log generation = %d", l.Generation())
	}
	if _, err := l.Append(TBegin, 1, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l2, recs, err := Open(d, l.FileID())
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Gen != 1 || l2.Generation() != 2 {
		t.Fatalf("gen of record %d, new log %d; want 1 and 2", recs[0].Gen, l2.Generation())
	}
	if _, err := l2.Append(TCommit, 1, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := l2.Flush(); err != nil {
		t.Fatal(err)
	}
	l3, recs, err := Open(d, l.FileID())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Gen != 2 || l3.Generation() != 3 {
		t.Fatalf("after second reopen: recs=%v gen=%d", recs, l3.Generation())
	}
}

func TestFlushZeroFillsRewrittenTail(t *testing.T) {
	d := testDisk()
	l := Create(d)
	if _, err := l.Append(TBegin, 1, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	// Plant garbage after the durable tail, as a previous flush image of
	// this page would leave it before the zero-fill fix.
	raw := make([]byte, sim.PageSize)
	if err := d.ReadPage(l.FileID(), 0, raw); err != nil {
		t.Fatal(err)
	}
	for i := int(l.off); i < sim.PageSize; i++ {
		raw[i] = 0xFF
	}
	if err := d.WritePage(l.FileID(), 0, raw); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(TCommit, 1, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadPage(l.FileID(), 0, raw); err != nil {
		t.Fatal(err)
	}
	for i := int(l.off); i < sim.PageSize; i++ {
		if raw[i] != 0 {
			t.Fatalf("byte %d past the tail = %x, want zero", i, raw[i])
		}
	}
	// And the stream itself still parses.
	_, recs, err := Open(d, l.FileID())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
}
