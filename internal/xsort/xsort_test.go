package xsort

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
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

func row8(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

func drain(t *testing.T, it *Iterator) [][]byte {
	t.Helper()
	var out [][]byte
	for {
		r, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, append([]byte(nil), r...))
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestInMemorySort(t *testing.T) {
	d := testDisk()
	s, err := New(d, 8, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	vals := []uint64{5, 3, 9, 1, 7, 3, 0}
	for _, v := range vals {
		if err := s.Add(row8(v)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Spilled() {
		t.Fatal("small input should not spill")
	}
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, it)
	if len(out) != len(vals) {
		t.Fatalf("got %d rows", len(out))
	}
	want := append([]uint64(nil), vals...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i, r := range out {
		if binary.BigEndian.Uint64(r) != want[i] {
			t.Fatalf("row %d = %d, want %d", i, binary.BigEndian.Uint64(r), want[i])
		}
	}
	// No disk I/O for an in-memory sort.
	if st := d.Stats(); st.Reads != 0 || st.Writes != 0 {
		t.Fatalf("in-memory sort did I/O: %+v", st)
	}
	if s.RowsAdded() != int64(len(vals)) {
		t.Fatalf("RowsAdded = %d", s.RowsAdded())
	}
}

func TestSpillingSort(t *testing.T) {
	d := testDisk()
	// Budget for ~2000 rows; feed 50000 so it spills into many runs.
	s, err := New(d, 8, 16000, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	n := 50000
	want := make([]uint64, n)
	for i := range want {
		want[i] = rng.Uint64()
		if err := s.Add(row8(want[i])); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Spilled() {
		t.Fatal("input over budget should spill")
	}
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	i := 0
	for {
		r, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if got := binary.BigEndian.Uint64(r); got != want[i] {
			t.Fatalf("row %d = %d, want %d", i, got, want[i])
		}
		i++
	}
	if i != n {
		t.Fatalf("iterated %d rows, want %d", i, n)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Reads == 0 || st.Writes == 0 {
		t.Fatal("spilling sort should do I/O")
	}
}

func TestMultiPassMerge(t *testing.T) {
	d := testDisk()
	// Tiny budget: maxRows clamps to 16 per run; fan-in 2, so a few
	// thousand rows force several merge passes.
	s, err := New(d, 8, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	n := 3000
	want := make([]uint64, n)
	for i := range want {
		want[i] = uint64(rng.Intn(1000))
		if err := s.Add(row8(want[i])); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, it)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(out) != n {
		t.Fatalf("got %d rows", len(out))
	}
	for i := range out {
		if binary.BigEndian.Uint64(out[i]) != want[i] {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestCustomComparator(t *testing.T) {
	d := testDisk()
	// Sort descending via inverted comparator.
	s, err := New(d, 8, 1<<20, func(a, b []byte) int { return bytes.Compare(b, a) })
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{1, 5, 3} {
		if err := s.Add(row8(v)); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, it)
	got := []uint64{
		binary.BigEndian.Uint64(out[0]),
		binary.BigEndian.Uint64(out[1]),
		binary.BigEndian.Uint64(out[2]),
	}
	if got[0] != 5 || got[1] != 3 || got[2] != 1 {
		t.Fatalf("descending sort = %v", got)
	}
}

func TestErrors(t *testing.T) {
	d := testDisk()
	if _, err := New(d, 0, 100, nil); err == nil {
		t.Fatal("row size 0 should fail")
	}
	if _, err := New(d, sim.PageSize+1, 100, nil); err == nil {
		t.Fatal("row size > page should fail")
	}
	s, err := New(d, 8, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(make([]byte, 4)); err == nil {
		t.Fatal("wrong row size should fail")
	}
	if _, err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(row8(1)); err == nil {
		t.Fatal("Add after Finish should fail")
	}
	if _, err := s.Finish(); err == nil {
		t.Fatal("double Finish should fail")
	}
}

func TestEmptyInput(t *testing.T) {
	d := testDisk()
	s, err := New(d, 16, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if out := drain(t, it); len(out) != 0 {
		t.Fatalf("empty sort produced %d rows", len(out))
	}
}

// TestQuickAgainstSortSlice verifies the external sort against the stdlib
// across random row sizes, budgets, and contents.
func TestQuickAgainstSortSlice(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rowSize := 4 + rng.Intn(60)
		budget := rng.Intn(8000) // often forces spills
		n := rng.Intn(4000)
		d := testDisk()
		s, err := New(d, rowSize, budget, nil)
		if err != nil {
			t.Log(err)
			return false
		}
		rows := make([][]byte, n)
		for i := range rows {
			rows[i] = make([]byte, rowSize)
			rng.Read(rows[i])
			if err := s.Add(rows[i]); err != nil {
				t.Log(err)
				return false
			}
		}
		it, err := s.Finish()
		if err != nil {
			t.Log(err)
			return false
		}
		sort.Slice(rows, func(i, j int) bool { return bytes.Compare(rows[i], rows[j]) < 0 })
		i := 0
		for {
			r, ok, err := it.Next()
			if err != nil {
				t.Log(err)
				return false
			}
			if !ok {
				break
			}
			if i >= n || !bytes.Equal(r, rows[i]) {
				t.Logf("mismatch at row %d (n=%d rowSize=%d budget=%d)", i, n, rowSize, budget)
				return false
			}
			i++
		}
		if err := it.Close(); err != nil {
			t.Log(err)
			return false
		}
		return i == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestSpillIOIsChained(t *testing.T) {
	d := testDisk()
	s, err := New(d, 8, 32000, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		if err := s.Add(row8(uint64(i * 2147483647))); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	// Chained I/O: page transfers should dominate positioning charges.
	if st.RandomOps*3 > st.Reads+st.Writes {
		t.Fatalf("sort I/O not chained: %d positioning for %d transfers",
			st.RandomOps, st.Reads+st.Writes)
	}
}

func TestAllEqualRows(t *testing.T) {
	d := testDisk()
	s, err := New(d, 8, 1000, nil) // tiny budget: spills and merges
	if err != nil {
		t.Fatal(err)
	}
	n := 5000
	for i := 0; i < n; i++ {
		if err := s.Add(row8(42)); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		r, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if binary.BigEndian.Uint64(r) != 42 {
			t.Fatal("wrong value among equal rows")
		}
		count++
	}
	if count != n {
		t.Fatalf("equal-key merge lost rows: %d of %d", count, n)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseDropsTheSpillFile: a sorter abandoned after it spilled, and one
// whose iterator was left half-read, give their spill file back on Close —
// the sorter's or the iterator's, in either order, any number of times.
func TestCloseDropsTheSpillFile(t *testing.T) {
	d := testDisk()
	fill := func() *Sorter {
		s, err := New(d, 8, 16000, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 10000; i++ {
			if err := s.Add(row8(i * 2654435761)); err != nil {
				t.Fatal(err)
			}
		}
		if !s.Spilled() || len(d.Placements()) != 1 {
			t.Fatalf("want one spill file, have %d files", len(d.Placements()))
		}
		return s
	}
	s := fill()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(row8(1)); err == nil {
		t.Error("Add after Close succeeded")
	}
	if n := len(d.Placements()); n != 0 {
		t.Fatalf("abandoned sorter left %d files", n)
	}

	s = fill()
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := it.Next(); !ok || err != nil {
		t.Fatal(ok, err)
	}
	for _, c := range []func() error{s.Close, it.Close, s.Close} {
		if err := c(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(d.Placements()); n != 0 {
		t.Fatalf("half-read iterator left %d files", n)
	}
}

// TestMergeSorters: three sorters filled independently — one spilled, one in
// memory, one empty — merge into one sorted stream of every row, charging
// compares for the merge; closing it drops every spill file. One sorter is
// merged as its own Finish, with no extra compare.
func TestMergeSorters(t *testing.T) {
	d := testDisk()
	rng := rand.New(rand.NewSource(7))
	var want []uint64
	var srts []*Sorter
	for _, n := range []int{5000, 300, 0} {
		s, err := New(d, 8, 16000, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			v := rng.Uint64()
			want = append(want, v)
			if err := s.Add(row8(v)); err != nil {
				t.Fatal(err)
			}
		}
		srts = append(srts, s)
	}
	if !srts[0].Spilled() || srts[1].Spilled() {
		t.Fatal("want the first sorter spilled and the second in memory")
	}
	it, err := Merge(srts)
	if err != nil {
		t.Fatal(err)
	}
	before := d.Stats().Compares
	out := drain(t, it)
	if got := d.Stats().Compares - before; got < 300 {
		t.Errorf("the merge charged %d compares; the in-memory sorter's 300 rows each weigh against a live head", got)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(out) != len(want) {
		t.Fatalf("merged %d rows, want %d", len(out), len(want))
	}
	for i, r := range out {
		if got := binary.BigEndian.Uint64(r); got != want[i] {
			t.Fatalf("row %d = %d, want %d", i, got, want[i])
		}
	}
	if n := len(d.Placements()); n != 0 {
		t.Fatalf("closing the merge left %d files", n)
	}

	one, err := New(d, 8, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{3, 1, 2} {
		if err := one.Add(row8(v)); err != nil {
			t.Fatal(err)
		}
	}
	it, err = Merge([]*Sorter{one})
	if err != nil {
		t.Fatal(err)
	}
	if out := drain(t, it); len(out) != 3 || !bytes.Equal(out[0], row8(1)) || !bytes.Equal(out[2], row8(3)) {
		t.Fatalf("one sorter merged to %v", out)
	}
}

// pinnedSpills are two spilling sorts of 8-byte random rows and what they
// charge. A 1-byte budget holds 16 rows: 188 one-page runs, merged two at a
// time.
var pinnedSpills = []struct {
	budget, rows                 int
	clock                        time.Duration
	reads, writes, random, chain uint64
	compares                     uint64
}{
	{1, 3000, 4311004676, 383, 383, 119, 752, 33405},
	{32000, 100000, 9146763532, 993, 993, 105, 327, 1744536},
}

// spillPinned runs the pinned sort of rows rows under budget bytes on a
// fresh disk and returns the disk.
func spillPinned(t *testing.T, budget, rows int) *sim.Disk {
	t.Helper()
	d := sim.NewDisk(sim.DefaultCostModel())
	s, err := New(d, 8, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(rows)))
	row := make([]byte, 8)
	for i := 0; i < rows; i++ {
		rng.Read(row)
		if err := s.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(drain(t, it)); got != rows {
		t.Fatalf("budget %d: %d rows out of %d", budget, got, rows)
	}
	return d
}

// TestSpillCostIsPinned pins what a spilling sort charges — clock, I/O and
// compares — so a change to how runs are written, read or merged shows up as
// a moved number, not just a moved ratio.
func TestSpillCostIsPinned(t *testing.T) {
	for _, c := range pinnedSpills {
		d := spillPinned(t, c.budget, c.rows)
		st := d.Stats()
		if d.Clock() != c.clock || st.Reads != c.reads || st.Writes != c.writes ||
			st.RandomOps != c.random || st.ChainedRuns != c.chain || st.Compares != c.compares {
			t.Errorf("budget %d, %d rows: clock %v, %d reads, %d writes, %d random, %d chained runs, %d compares; want %v, %d, %d, %d, %d, %d",
				c.budget, c.rows, d.Clock(), st.Reads, st.Writes, st.RandomOps, st.ChainedRuns, st.Compares,
				c.clock, c.reads, c.writes, c.random, c.chain, c.compares)
		}
	}
}

// TestPackedSortMatchesSortSlice: in memory, the sorter orders rows with
// duplicates — whole rows and shared 16-byte prefixes — exactly as a
// sort.Slice over the same rows does, and charges exactly the compares that
// sort.Slice makes, in byte order and under a caller's comparator.
func TestPackedSortMatchesSortSlice(t *testing.T) {
	desc := func(a, b []byte) int { return bytes.Compare(b, a) }
	for _, rowSize := range []int{6, 8, 14, 16, 24} {
		for _, compare := range []func(a, b []byte) int{nil, desc} {
			rng := rand.New(rand.NewSource(int64(rowSize)))
			pool := make([][]byte, 50)
			for i := range pool {
				pool[i] = make([]byte, rowSize)
				rng.Read(pool[i])
				if i%2 == 1 { // a prefix shared with the row before, a tail of its own
					copy(pool[i], pool[i-1][:min(rowSize-1, prefixLen)])
				}
			}
			rows := make([][]byte, 3000)
			for i := range rows {
				rows[i] = pool[rng.Intn(len(pool))]
			}
			d := testDisk()
			s, err := New(d, rowSize, 1<<20, compare)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if err := s.Add(r); err != nil {
					t.Fatal(err)
				}
			}
			it, err := s.Finish()
			if err != nil {
				t.Fatal(err)
			}
			out := drain(t, it)

			ref, cmps := compare, uint64(0)
			if ref == nil {
				ref = bytes.Compare
			}
			sort.Slice(rows, func(i, j int) bool {
				cmps++
				return ref(rows[i], rows[j]) < 0
			})
			name := fmt.Sprintf("row size %d, comparator %v", rowSize, compare != nil)
			if len(out) != len(rows) {
				t.Fatalf("%s: %d rows out of %d", name, len(out), len(rows))
			}
			for i := range rows {
				if !bytes.Equal(out[i], rows[i]) {
					t.Fatalf("%s: row %d is %x, sort.Slice has %x", name, i, out[i], rows[i])
				}
			}
			if got := d.Stats().Compares; got != cmps {
				t.Errorf("%s: charged %d compares, sort.Slice made %d", name, got, cmps)
			}
		}
	}
}

// TestAddAllocatesOnlyToGrow: Add copies rows into buffers that double, so n
// rows cost O(log n) allocations, not one per row.
func TestAddAllocatesOnlyToGrow(t *testing.T) {
	for _, rowSize := range []int{16, 24} {
		for _, n := range []int{1000, 100000} {
			row := make([]byte, rowSize)
			allocs := testing.AllocsPerRun(1, func() {
				s, err := New(testDisk(), rowSize, 1<<30, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					binary.BigEndian.PutUint64(row, uint64(i))
					if err := s.Add(row); err != nil {
						t.Fatal(err)
					}
				}
			})
			// Per doubling, one slice of entries and one of rows; plus
			// the sorter and whatever New asks for.
			if limit := 2*bits.Len(uint(n)) + 2; allocs > float64(limit) {
				t.Errorf("row size %d: %d rows took %v allocations, want at most %d", rowSize, n, allocs, limit)
			}
		}
	}
}

// TestIteratorRowsStayValid: rows handed out by the in-memory iterator, the
// spilled merge and Merge still hold their values after the iterator moved
// on to the end.
func TestIteratorRowsStayValid(t *testing.T) {
	for _, budget := range []int{1 << 20, 1600} {
		for _, rowSize := range []int{8, 24} {
			d := testDisk()
			s, err := New(d, rowSize, budget, nil)
			if err != nil {
				t.Fatal(err)
			}
			n := 2000
			for i := 0; i < n; i++ {
				row := make([]byte, rowSize)
				binary.BigEndian.PutUint64(row, uint64((i*7919)%n))
				if err := s.Add(row); err != nil {
					t.Fatal(err)
				}
			}
			it, err := Merge([]*Sorter{s})
			if err != nil {
				t.Fatal(err)
			}
			var held [][]byte
			for {
				r, ok, err := it.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				held = append(held, r)
			}
			if len(held) != n {
				t.Fatalf("budget %d: %d rows out of %d", budget, len(held), n)
			}
			for i, r := range held {
				if got := binary.BigEndian.Uint64(r); got != uint64(i) || len(r) != rowSize || cap(r) != rowSize {
					t.Fatalf("budget %d, row size %d: held row %d reads %d (len %d, cap %d) after the iterator moved on",
						budget, rowSize, i, got, len(r), cap(r))
				}
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
