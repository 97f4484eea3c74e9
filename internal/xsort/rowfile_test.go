package xsort

import (
	"bytes"
	"encoding/binary"
	"testing"

	"bulkdel/internal/sim"
)

func TestRowFileRoundTrip(t *testing.T) {
	d := testDisk()
	rf, err := NewRowFile(d, 16, -1)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(10000)
	row := make([]byte, 16)
	for i := int64(0); i < n; i++ {
		binary.LittleEndian.PutUint64(row, uint64(i))
		if err := rf.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := rf.Seal(); err != nil {
		t.Fatal(err)
	}
	if rf.Rows() != n {
		t.Fatalf("rows = %d", rf.Rows())
	}
	var i int64
	err = rf.Iterate(0, func(r []byte) error {
		if got := int64(binary.LittleEndian.Uint64(r)); got != i {
			t.Fatalf("row %d holds %d", i, got)
		}
		i++
		return nil
	})
	if err != nil || i != n {
		t.Fatalf("iterated %d rows, %v", i, err)
	}
}

func TestRowFileIterateFromOffset(t *testing.T) {
	d := testDisk()
	rf, err := NewRowFile(d, 8, -1)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]byte, 8)
	for i := 0; i < 5000; i++ {
		binary.LittleEndian.PutUint64(row, uint64(i))
		if err := rf.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := rf.Seal(); err != nil {
		t.Fatal(err)
	}
	// Iterate(from) — used by checkpoint resume.
	want := int64(3777)
	err = rf.Iterate(want, func(r []byte) error {
		if got := int64(binary.LittleEndian.Uint64(r)); got != want {
			t.Fatalf("row %d, want %d", got, want)
		}
		want++
		return nil
	})
	if err != nil || want != 5000 {
		t.Fatalf("resumed iteration ended at %d, %v", want, err)
	}
	// Pull iterator with offset agrees.
	it, err := rf.Iterator(4999)
	if err != nil {
		t.Fatal(err)
	}
	r, ok, err := it()
	if err != nil || !ok || binary.LittleEndian.Uint64(r) != 4999 {
		t.Fatalf("Iterator(4999): %v %v", ok, err)
	}
	if _, ok, _ := it(); ok {
		t.Fatal("iterator past end should stop")
	}
	// Negative offsets clamp to 0.
	it, err = rf.Iterator(-5)
	if err != nil {
		t.Fatal(err)
	}
	r, ok, _ = it()
	if !ok || binary.LittleEndian.Uint64(r) != 0 {
		t.Fatal("negative offset should start at 0")
	}
}

func TestRowFileSealSemantics(t *testing.T) {
	d := testDisk()
	rf, err := NewRowFile(d, 8, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rf.Iterate(0, func([]byte) error { return nil }); err == nil {
		t.Fatal("iterate before seal should fail")
	}
	if _, err := rf.Iterator(0); err == nil {
		t.Fatal("iterator before seal should fail")
	}
	if err := rf.Append(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if err := rf.Append(make([]byte, 4)); err == nil {
		t.Fatal("wrong row size should fail")
	}
	if err := rf.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := rf.Seal(); err != nil {
		t.Fatal("double seal should be a no-op")
	}
	if err := rf.Append(make([]byte, 8)); err == nil {
		t.Fatal("append after seal should fail")
	}
}

func TestRowFileReopen(t *testing.T) {
	d := testDisk()
	rf, err := NewRowFile(d, 8, -1)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]byte, 8)
	for i := 0; i < 1000; i++ {
		binary.LittleEndian.PutUint64(row, uint64(i*3))
		if err := rf.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := rf.Seal(); err != nil {
		t.Fatal(err)
	}
	// Recovery path: open by (file, rowSize, rows).
	rf2, err := OpenRowFile(d, rf.File(), 8, rf.Rows())
	if err != nil {
		t.Fatal(err)
	}
	i := int64(0)
	err = rf2.Iterate(0, func(r []byte) error {
		if int64(binary.LittleEndian.Uint64(r)) != i*3 {
			t.Fatalf("row %d wrong after reopen", i)
		}
		i++
		return nil
	})
	if err != nil || i != 1000 {
		t.Fatalf("reopened iteration: %d, %v", i, err)
	}
	// Row count exceeding the file is rejected.
	if _, err := OpenRowFile(d, rf.File(), 8, 1<<40); err == nil {
		t.Fatal("oversized row count accepted")
	}
	if err := rf.Drop(); err != nil {
		t.Fatal(err)
	}
}

func TestRowFileEmpty(t *testing.T) {
	d := testDisk()
	rf, err := NewRowFile(d, 8, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rf.Seal(); err != nil {
		t.Fatal(err)
	}
	calls := 0
	if err := rf.Iterate(0, func([]byte) error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatal("empty file yielded rows")
	}
	if _, err := NewRowFile(d, 0, -1); err == nil {
		t.Fatal("zero row size accepted")
	}
	if _, err := NewRowFile(d, sim.PageSize+1, -1); err == nil {
		t.Fatal("oversized row accepted")
	}
}

// TestRowFileRowOutlivesItsChunk checks that a row the reader returned is
// intact after the reader has crossed into its next chunk: the sorter's merge
// heap holds a popped row while that row's run reads on.
func TestRowFileRowOutlivesItsChunk(t *testing.T) {
	rf, err := NewRowFile(testDisk(), 8, -1)
	if err != nil {
		t.Fatal(err)
	}
	perChunk := ChunkPages * sim.PageSize / 8
	for i := 0; i < 2*perChunk; i++ {
		if err := rf.Append(row8(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := rf.Seal(); err != nil {
		t.Fatal(err)
	}
	next, err := rf.Iterator(0)
	if err != nil {
		t.Fatal(err)
	}
	var last []byte // the first chunk's last row, kept as returned
	for i := 0; i < 2*perChunk; i++ {
		r, ok, err := next()
		if err != nil || !ok || !bytes.Equal(r, row8(uint64(i))) {
			t.Fatalf("row %d: %x %v %v", i, r, ok, err)
		}
		if i == perChunk-1 {
			last = r
		}
	}
	if !bytes.Equal(last, row8(uint64(perChunk-1))) {
		t.Fatalf("row %d changed to %x once the reader moved on", perChunk-1, last)
	}
}
