package wal

import (
	"bytes"
	"testing"
	"time"

	"bulkdel/internal/sim"
)

func testDisk() *sim.Disk {
	return sim.NewDisk(sim.CostModel{
		Seek:         8 * time.Millisecond,
		Rotation:     4 * time.Millisecond,
		TransferPage: 1 * time.Millisecond,
	})
}

func TestAppendFlushReopen(t *testing.T) {
	d := testDisk()
	l := Create(d)
	lsn1, err := l.Append(TBegin, 1, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	lsn2, err := l.Append(TBulkStart, 1, 10, 11, []byte("victims"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn2 <= lsn1 {
		t.Fatal("LSNs must increase")
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := Open(d, l.FileID())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
	if recs[0].Type != TBegin || recs[0].TxID != 1 || recs[0].LSN != lsn1 {
		t.Fatalf("rec0 = %+v", recs[0])
	}
	if recs[1].Type != TBulkStart || recs[1].A != 10 || recs[1].B != 11 ||
		!bytes.Equal(recs[1].Payload, []byte("victims")) {
		t.Fatalf("rec1 = %+v", recs[1])
	}
}

func TestUnflushedRecordsAreLost(t *testing.T) {
	d := testDisk()
	l := Create(d)
	if _, err := l.Append(TBegin, 1, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(TCommit, 1, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	// No flush: a crash loses the commit.
	_, recs, err := Open(d, l.FileID())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != TBegin {
		t.Fatalf("recovered %d records, want only the flushed begin", len(recs))
	}
}

func TestAppendAfterReopen(t *testing.T) {
	d := testDisk()
	l := Create(d)
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
	if len(recs) != 1 {
		t.Fatal("expected 1 record")
	}
	if _, err := l2.Append(TCommit, 1, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := l2.Flush(); err != nil {
		t.Fatal(err)
	}
	_, recs, err = Open(d, l.FileID())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Type != TCommit {
		t.Fatalf("after reopen-append: %d records", len(recs))
	}
}

func TestManyRecordsSpanPages(t *testing.T) {
	d := testDisk()
	l := Create(d)
	payload := bytes.Repeat([]byte{0xAB}, 100)
	n := 500 // ~63 KB total, ~16 pages
	for i := 0; i < n; i++ {
		if _, err := l.Append(TNote, uint64(i), uint64(i*2), uint64(i*3), payload); err != nil {
			t.Fatal(err)
		}
		if i%37 == 0 {
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := Open(d, l.FileID())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("recovered %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.TxID != uint64(i) || r.A != uint64(i*2) || r.B != uint64(i*3) ||
			!bytes.Equal(r.Payload, payload) {
			t.Fatalf("record %d corrupted: %+v", i, r)
		}
	}
}

func TestOversizedPayloadRejected(t *testing.T) {
	d := testDisk()
	l := Create(d)
	if _, err := l.Append(TNote, 0, 0, 0, make([]byte, 70000)); err == nil {
		t.Fatal("oversized payload should fail")
	}
}

func TestAnalyzeBulkNoBulk(t *testing.T) {
	recs := []Record{{Type: TBegin, TxID: 1}, {Type: TCommit, TxID: 1}}
	if _, ok := AnalyzeBulk(recs); ok {
		t.Fatal("no bulk delete in log")
	}
}

func TestAnalyzeBulkInterrupted(t *testing.T) {
	recs := []Record{
		{Type: TBegin, TxID: 7},
		{Type: TBulkStart, TxID: 7, A: 100, B: 200},
		{Type: TStructStart, TxID: 7, A: 101, B: 1},
		{Type: TCheckpoint, TxID: 7, A: 101, B: 5000},
		{Type: TStructDone, TxID: 7, A: 101},
		{Type: TStructStart, TxID: 7, A: 100, B: 0},
		{Type: TCheckpoint, TxID: 7, A: 100, B: 1000},
		{Type: TCheckpoint, TxID: 7, A: 100, B: 3000},
		// crash here
	}
	st, ok := AnalyzeBulk(recs)
	if !ok {
		t.Fatal("bulk delete not found")
	}
	if st.TxID != 7 || st.Table != 100 || st.VictimFile != 200 {
		t.Fatalf("state = %+v", st)
	}
	if !st.Done[101] || st.Done[100] {
		t.Fatalf("done set wrong: %+v", st.Done)
	}
	if p, ok := st.ProgressOf(100); !ok || p != 3000 || len(st.Active) != 1 {
		t.Fatalf("in-progress wrong: %+v", st)
	}
	if st.Finished {
		t.Fatal("must not be finished")
	}
}

func TestAnalyzeBulkFinished(t *testing.T) {
	recs := []Record{
		{Type: TBulkStart, TxID: 7, A: 100, B: 200},
		{Type: TStructStart, TxID: 7, A: 100},
		{Type: TStructDone, TxID: 7, A: 100},
		{Type: TBulkEnd, TxID: 7},
	}
	st, ok := AnalyzeBulk(recs)
	if !ok || !st.Finished {
		t.Fatalf("finished bulk delete not recognized: %+v", st)
	}
	if _, ok := st.ProgressOf(100); ok || len(st.Active) != 0 {
		t.Fatal("no structure should be in progress")
	}
}

func TestAnalyzeBulkTakesLatest(t *testing.T) {
	recs := []Record{
		{Type: TBulkStart, TxID: 1, A: 10, B: 20},
		{Type: TBulkEnd, TxID: 1},
		{Type: TBulkStart, TxID: 2, A: 30, B: 40},
		{Type: TStructStart, TxID: 2, A: 31, B: 1},
	}
	st, ok := AnalyzeBulk(recs)
	if !ok || st.TxID != 2 || st.Table != 30 || st.Finished {
		t.Fatalf("latest bulk not selected: %+v", st)
	}
}

func TestTypeString(t *testing.T) {
	for ty := TBegin; ty <= TNote; ty++ {
		if ty.String() == "" {
			t.Fatalf("type %d has empty string", ty)
		}
	}
	if Type(99).String() != "Type(99)" {
		t.Fatal("unknown type string")
	}
}

func TestAnalyzeBulksInterleaved(t *testing.T) {
	// Two concurrent statements interleave their records in the shared
	// log; AnalyzeBulks must route each record to its own transaction's
	// state and report the statements in TBulkStart order.
	recs := []Record{
		{Type: TBulkStart, TxID: 1, A: 100, B: 200},
		{Type: TBulkStart, TxID: 2, A: 300, B: 400},
		{Type: TStructStart, TxID: 2, A: 301, B: 1},
		{Type: TStructStart, TxID: 1, A: 101, B: 1},
		{Type: TCheckpoint, TxID: 1, A: 101, B: 500},
		{Type: TStructDone, TxID: 2, A: 301},
		{Type: TStructStart, TxID: 2, A: 300, B: 0},
		{Type: TCheckpoint, TxID: 2, A: 300, B: 900},
		{Type: TStructDone, TxID: 1, A: 101},
		{Type: TBulkEnd, TxID: 1},
		// crash: tx 2 unfinished, tx 1 committed
	}
	sts := AnalyzeBulks(recs)
	if len(sts) != 2 {
		t.Fatalf("want 2 states, got %d", len(sts))
	}
	if sts[0].TxID != 1 || sts[1].TxID != 2 {
		t.Fatalf("order wrong: tx %d then tx %d", sts[0].TxID, sts[1].TxID)
	}
	if !sts[0].Finished || !sts[0].Done[101] {
		t.Fatalf("tx 1 state wrong: %+v", sts[0])
	}
	two := sts[1]
	if two.Finished || two.Table != 300 || two.VictimFile != 400 {
		t.Fatalf("tx 2 state wrong: %+v", two)
	}
	if p, ok := two.ProgressOf(300); !two.Done[301] || !ok || p != 900 || len(two.Active) != 1 {
		t.Fatalf("tx 2 progress wrong: %+v", two)
	}
	// The single-statement wrapper keeps its pick-the-latest contract.
	st, ok := AnalyzeBulk(recs)
	if !ok || st.TxID != 2 {
		t.Fatalf("AnalyzeBulk should return the last statement: %+v", st)
	}
}

func TestAnalyzeBulksRestartedTx(t *testing.T) {
	// A TBulkStart that reuses a TxID replaces the earlier state without
	// duplicating the statement in the ordering.
	recs := []Record{
		{Type: TBulkStart, TxID: 5, A: 10, B: 20},
		{Type: TStructStart, TxID: 5, A: 11, B: 1},
		{Type: TBulkStart, TxID: 5, A: 30, B: 40},
	}
	sts := AnalyzeBulks(recs)
	if len(sts) != 1 {
		t.Fatalf("want 1 state, got %d", len(sts))
	}
	if sts[0].Table != 30 || sts[0].VictimFile != 40 || len(sts[0].Done) != 0 {
		t.Fatalf("restart did not replace state: %+v", sts[0])
	}
}
