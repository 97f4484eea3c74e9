package heap

import (
	"errors"
	"testing"

	"bulkdel/internal/record"
	"bulkdel/internal/sim"
)

func partSchema() record.Schema { return record.Schema{NumFields: 2, Size: 64} }

func partRec(t *testing.T, s record.Schema, key, val int64) []byte {
	t.Helper()
	r, err := s.Encode([]int64{key, val})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPartitionSpecRouting(t *testing.T) {
	hash := PartitionSpec{Field: 0, HashParts: 4}
	for v := int64(-8); v < 16; v++ {
		p := hash.Route(v)
		if p < 0 || p >= 4 {
			t.Fatalf("Route(%d) = %d out of range", v, p)
		}
	}
	if _, _, ok := hash.Range(0); ok {
		t.Fatal("hash spec claims a contiguous range")
	}

	rng := PartitionSpec{Field: 0, RangeBounds: []int64{10, 20}}
	if n := rng.NumParts(); n != 3 {
		t.Fatalf("NumParts = %d, want 3", n)
	}
	// A bound belongs to the partition above it: [.., 10) [10, 20) [20, ..).
	cases := []struct {
		v    int64
		want int
	}{{-5, 0}, {9, 0}, {10, 1}, {19, 1}, {20, 2}, {1 << 40, 2}}
	for _, c := range cases {
		if got := rng.Route(c.v); got != c.want {
			t.Errorf("Route(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	for p := 0; p < 3; p++ {
		lo, hi, ok := rng.Range(p)
		if !ok {
			t.Fatalf("Range(%d) not ok", p)
		}
		for _, c := range cases {
			in := c.v >= lo && c.v < hi
			if in != (c.want == p) {
				t.Errorf("Range(%d)=[%d,%d) disagrees with Route(%d)=%d", p, lo, hi, c.v, c.want)
			}
		}
	}
}

func TestPartitionSpecValidate(t *testing.T) {
	s := partSchema()
	bad := []PartitionSpec{
		{Field: 0, HashParts: 1},                          // too few
		{Field: 0, HashParts: 2, RangeBounds: []int64{1}}, // both set
		{Field: 5, HashParts: 2},                          // field out of range
		{Field: 0, RangeBounds: []int64{5, 5}},            // not increasing
		{Field: 0, HashParts: MaxPartitions + 1},          // too many
		{Field: -1, HashParts: 2},                         // negative field
	}
	for i, sp := range bad {
		if err := sp.Validate(s); err == nil {
			t.Errorf("spec %d accepted: %+v", i, sp)
		}
	}
	if err := (PartitionSpec{Field: 1, HashParts: 8}).Validate(s); err != nil {
		t.Error(err)
	}
	// The zero spec is the one-partition heap.
	if err := (PartitionSpec{}).Validate(s); err != nil || (PartitionSpec{}).NumParts() != 1 {
		t.Errorf("zero spec: %v, %d partitions", err, PartitionSpec{}.NumParts())
	}
}

// TestOnePartitionHeap: under the zero spec the heap is one file whose page
// numbers are the RIDs' own, and a RID naming another partition holds no
// record.
func TestOnePartitionHeap(t *testing.T) {
	p := testPool(64)
	s := partSchema()
	h, err := CreateHeap(p, s, PartitionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Parts()) != 1 || h.ID() != h.Parts()[0].ID() || h.Part(0).ID() != h.ID() {
		t.Fatalf("%d parts, ID %d", len(h.Parts()), h.ID())
	}
	rid, err := h.Insert(partRec(t, s, 42, 1))
	if err != nil {
		t.Fatal(err)
	}
	if part, raw := SplitPage(rid.Page); part != 0 || raw != rid.Page {
		t.Fatalf("RID %s tagged partition %d", rid, part)
	}
	if got, err := h.Parts()[0].Get(rid); err != nil || s.Field(got, 0) != 42 {
		t.Fatalf("file Get(%s) = %v, %v", rid, got, err)
	}
	other := record.RID{Page: TagPage(1, rid.Page), Slot: rid.Slot}
	if _, err := h.Get(other); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("Get(%s) = %v, want ErrNoRecord", other, err)
	}
}

func TestPartitionedRoundTrip(t *testing.T) {
	p := testPool(64)
	s := partSchema()
	ph, err := CreateHeap(p, s, PartitionSpec{Field: 0, HashParts: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	rids := make(map[int64]record.RID)
	for i := int64(0); i < n; i++ {
		rid, err := ph.Insert(partRec(t, s, i, 2*i))
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	if ph.Count() != n {
		t.Fatalf("count = %d", ph.Count())
	}
	for i, rid := range rids {
		got, err := ph.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		if s.Field(got, 0) != i || s.Field(got, 1) != 2*i {
			t.Fatalf("record %d read back wrong", i)
		}
		// The tagged RID names the partition the key routes to.
		part, _ := SplitPage(rid.Page)
		if part != ph.Spec().Route(i) {
			t.Fatalf("key %d tagged partition %d, routed to %d", i, part, ph.Spec().Route(i))
		}
	}
	seen := 0
	if err := ph.Scan(func(rid record.RID, rec []byte) error {
		seen++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("scan saw %d records", seen)
	}
	// Delete + update through tagged RIDs.
	if err := ph.Delete(rids[7]); err != nil {
		t.Fatal(err)
	}
	if ph.Count() != n-1 {
		t.Fatalf("count after delete = %d", ph.Count())
	}
	if err := ph.Update(rids[8], partRec(t, s, 8, 99)); err != nil {
		t.Fatal(err)
	}
	got, err := ph.Get(rids[8])
	if err != nil || s.Field(got, 1) != 99 {
		t.Fatalf("update lost: %v %v", got, err)
	}
}

// TestPartEditorChainsWithinPartition: a seek reads ahead through upTo when
// upTo names the same partition, and reads its page alone when upTo lies in
// the next partition's file.
func TestPartEditorChainsWithinPartition(t *testing.T) {
	p := testPool(64)
	s := partSchema()
	ph, err := CreateHeap(p, s, PartitionSpec{Field: 0, HashParts: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 600; i++ { // five data pages per partition
		if _, err := ph.Insert(partRec(t, s, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ph.Flush(); err != nil {
		t.Fatal(err)
	}
	p.InvalidateAll()
	ed := ph.Edit()
	defer ed.Close()
	for _, tc := range []struct {
		p, upTo sim.PageNo
		reads   uint64
	}{
		{TagPage(0, 1), TagPage(0, 2), 2},
		{TagPage(0, 3), TagPage(1, 5), 1},
		{TagPage(1, 2), TagPage(1, 2), 1},
	} {
		before := p.Disk().Stats().Reads
		if _, err := ed.Seek(tc.p, tc.upTo); err != nil {
			t.Fatal(err)
		}
		if got := p.Disk().Stats().Reads - before; got != tc.reads {
			t.Errorf("Seek(%#x, %#x) read %d pages, want %d", tc.p, tc.upTo, got, tc.reads)
		}
	}
}

func TestEmptyPartition(t *testing.T) {
	// Keys 0..99 all land in partition 0 of [..,1000) [1000,2000) [2000,..):
	// partitions 1 and 2 stay empty and every operation must cope.
	p := testPool(64)
	s := partSchema()
	ph, err := CreateHeap(p, s, PartitionSpec{Field: 0, RangeBounds: []int64{1000, 2000}})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if _, err := ph.Insert(partRec(t, s, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if ph.Count() != 100 {
		t.Fatalf("count = %d", ph.Count())
	}
	parts := ph.Parts()
	if parts[1].Count() != 0 || parts[2].Count() != 0 {
		t.Fatalf("empty partitions hold %d and %d records", parts[1].Count(), parts[2].Count())
	}
	n := 0
	if err := ph.Scan(func(record.RID, []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("scan over empty partitions saw %d", n)
	}
	// Truncating an empty partition is a no-op, not an error.
	if err := parts[1].TruncateWith(nil); err != nil {
		t.Fatal(err)
	}
	if err := ph.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestWholePartitionTruncate(t *testing.T) {
	p := testPool(64)
	s := partSchema()
	ph, err := CreateHeap(p, s, PartitionSpec{Field: 0, RangeBounds: []int64{50}})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if _, err := ph.Insert(partRec(t, s, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	parts := ph.Parts()
	if parts[0].Count() != 50 || parts[1].Count() != 50 {
		t.Fatalf("partition counts %d/%d", parts[0].Count(), parts[1].Count())
	}
	if err := parts[1].TruncateWith(nil); err != nil {
		t.Fatal(err)
	}
	if ph.Count() != 50 {
		t.Fatalf("count after truncate = %d", ph.Count())
	}
	// TruncateWith is idempotent (recovery may re-run it).
	if err := parts[1].TruncateWith(nil); err != nil {
		t.Fatal(err)
	}
	// The surviving partition is untouched and the truncated one reusable.
	if _, err := ph.Insert(partRec(t, s, 77, 1)); err != nil {
		t.Fatal(err)
	}
	if parts[1].Count() != 1 || ph.Count() != 51 {
		t.Fatalf("counts after reinsert: part=%d total=%d", parts[1].Count(), ph.Count())
	}
}

func TestPartitionedReopen(t *testing.T) {
	p := testPool(64)
	s := partSchema()
	spec := PartitionSpec{Field: 0, HashParts: 3}
	ph, err := CreateHeap(p, s, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 60; i++ {
		if _, err := ph.Insert(partRec(t, s, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ph.Flush(); err != nil {
		t.Fatal(err)
	}
	files := ph.Parts()
	idList := make([]sim.FileID, 0, len(files))
	for _, f := range files {
		idList = append(idList, f.ID())
	}
	ph2, err := OpenHeap(p, idList, s, spec)
	if err != nil {
		t.Fatal(err)
	}
	if ph2.Count() != 60 {
		t.Fatalf("reopened count = %d", ph2.Count())
	}
	n := 0
	if err := ph2.Scan(func(record.RID, []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 60 {
		t.Fatalf("reopened scan saw %d", n)
	}
}
