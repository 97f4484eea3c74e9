package page

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"bulkdel/internal/sim"
)

func newPage(t *testing.T) Slotted {
	t.Helper()
	p := Wrap(make([]byte, sim.PageSize))
	p.Init(1)
	return p
}

func TestInitState(t *testing.T) {
	p := newPage(t)
	if p.Type() != 1 {
		t.Fatalf("Type = %d, want 1", p.Type())
	}
	if p.NumSlots() != 0 {
		t.Fatalf("NumSlots = %d, want 0", p.NumSlots())
	}
	if p.Next() != sim.InvalidPage {
		t.Fatalf("Next = %d, want InvalidPage", p.Next())
	}
	if p.LiveCount() != 0 || p.LiveBytes() != 0 {
		t.Fatal("fresh page should have no live records")
	}
	want := sim.PageSize - HeaderSize - SlotSize
	if p.FreeSpace() != want {
		t.Fatalf("FreeSpace = %d, want %d", p.FreeSpace(), want)
	}
}

func TestInsertGetDelete(t *testing.T) {
	p := newPage(t)
	s1, ok := p.Insert([]byte("hello"))
	if !ok {
		t.Fatal("insert failed")
	}
	s2, ok := p.Insert([]byte("world!"))
	if !ok {
		t.Fatal("insert failed")
	}
	if s1 == s2 {
		t.Fatal("two inserts share a slot")
	}
	got, err := p.Get(s1)
	if err != nil || string(got) != "hello" {
		t.Fatalf("Get(s1) = %q, %v", got, err)
	}
	got, err = p.Get(s2)
	if err != nil || string(got) != "world!" {
		t.Fatalf("Get(s2) = %q, %v", got, err)
	}
	if err := p.Delete(s1); err != nil {
		t.Fatal(err)
	}
	if p.InUse(s1) {
		t.Fatal("deleted slot still in use")
	}
	if _, err := p.Get(s1); err == nil {
		t.Fatal("Get on dead slot should fail")
	}
	if err := p.Delete(s1); err == nil {
		t.Fatal("double delete should fail")
	}
	// s2 is untouched.
	got, err = p.Get(s2)
	if err != nil || string(got) != "world!" {
		t.Fatalf("after delete, Get(s2) = %q, %v", got, err)
	}
}

func TestSlotReuse(t *testing.T) {
	p := newPage(t)
	s1, _ := p.Insert([]byte("aaaa"))
	if _, ok := p.Insert([]byte("bbbb")); !ok {
		t.Fatal("insert failed")
	}
	if err := p.Delete(s1); err != nil {
		t.Fatal(err)
	}
	s3, ok := p.Insert([]byte("cccc"))
	if !ok {
		t.Fatal("insert failed")
	}
	if s3 != s1 {
		t.Fatalf("insert did not reuse dead slot: got %d, want %d", s3, s1)
	}
	if p.NumSlots() != 2 {
		t.Fatalf("NumSlots = %d, want 2", p.NumSlots())
	}
}

func TestFillPageAndCompact(t *testing.T) {
	p := newPage(t)
	rec := bytes.Repeat([]byte{0xCD}, 100)
	var slots []int
	for {
		s, ok := p.Insert(rec)
		if !ok {
			break
		}
		slots = append(slots, s)
	}
	if len(slots) != Capacity(100) {
		t.Fatalf("fit %d records, Capacity says %d", len(slots), Capacity(100))
	}
	// Delete every other record; the freed bytes are fragmented.
	for i := 0; i < len(slots); i += 2 {
		if err := p.Delete(slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	// A record larger than any single hole but smaller than the total
	// free space must trigger compaction and succeed.
	big := bytes.Repeat([]byte{0xEF}, 150)
	if _, ok := p.Insert(big); !ok {
		t.Fatal("insert after fragmentation should compact and succeed")
	}
	// Survivors are intact.
	for i := 1; i < len(slots); i += 2 {
		got, err := p.Get(slots[i])
		if err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("slot %d corrupted after compaction", slots[i])
		}
	}
}

func TestCompactTrimsTrailingDeadSlots(t *testing.T) {
	p := newPage(t)
	s1, _ := p.Insert([]byte("one"))
	s2, _ := p.Insert([]byte("two"))
	s3, _ := p.Insert([]byte("three"))
	_ = s1
	if err := p.Delete(s2); err != nil {
		t.Fatal(err)
	}
	if err := p.Delete(s3); err != nil {
		t.Fatal(err)
	}
	p.Compact()
	if p.NumSlots() != 1 {
		t.Fatalf("NumSlots after trim = %d, want 1", p.NumSlots())
	}
	got, err := p.Get(s1)
	if err != nil || string(got) != "one" {
		t.Fatalf("slot 0 after compact = %q, %v", got, err)
	}
}

func TestUpdate(t *testing.T) {
	p := newPage(t)
	s, _ := p.Insert([]byte("abcdef"))
	// Shrink in place.
	if err := p.Update(s, []byte("xy")); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Get(s)
	if string(got) != "xy" {
		t.Fatalf("after shrink Get = %q", got)
	}
	// Grow.
	long := bytes.Repeat([]byte{'z'}, 300)
	if err := p.Update(s, long); err != nil {
		t.Fatal(err)
	}
	got, _ = p.Get(s)
	if !bytes.Equal(got, long) {
		t.Fatal("after grow content mismatch")
	}
	if err := p.Update(99, []byte("x")); err == nil {
		t.Fatal("update of bad slot should fail")
	}
}

func TestHeaderFields(t *testing.T) {
	p := newPage(t)
	p.SetNext(42)
	p.SetLSN(0xDEADBEEF)
	p.SetFlags(7)
	if p.Next() != 42 || p.LSN() != 0xDEADBEEF || p.Flags() != 7 {
		t.Fatal("header round-trip failed")
	}
	// Header fields must survive inserts and compaction.
	if _, ok := p.Insert([]byte("data")); !ok {
		t.Fatal("insert failed")
	}
	p.Compact()
	if p.Next() != 42 || p.LSN() != 0xDEADBEEF || p.Flags() != 7 || p.Type() != 1 {
		t.Fatal("header fields clobbered")
	}
}

func TestInsertRejectsBadSizes(t *testing.T) {
	p := newPage(t)
	if _, ok := p.Insert(nil); ok {
		t.Fatal("empty insert should fail")
	}
	if _, ok := p.Insert(make([]byte, sim.PageSize)); ok {
		t.Fatal("oversized insert should fail")
	}
}

// TestQuickRandomOps drives a slotted page with random operations against a
// reference map, checking that live contents always match.
func TestQuickRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Wrap(make([]byte, sim.PageSize))
		p.Init(9)
		ref := map[int][]byte{} // slot -> content
		for op := 0; op < 300; op++ {
			switch rng.Intn(3) {
			case 0: // insert
				rec := make([]byte, 1+rng.Intn(200))
				rng.Read(rec)
				s, ok := p.Insert(rec)
				if ok {
					if _, clash := ref[s]; clash {
						t.Logf("insert reused live slot %d", s)
						return false
					}
					ref[s] = append([]byte(nil), rec...)
				} else if p.LiveBytes()+len(rec)+SlotSize <= sim.PageSize-HeaderSize-p.NumSlots()*SlotSize-SlotSize {
					// Insert must succeed whenever total free
					// bytes suffice (compaction handles holes).
					t.Logf("insert failed with %d live bytes, %d rec", p.LiveBytes(), len(rec))
					return false
				}
			case 1: // delete a random live slot
				if len(ref) == 0 {
					continue
				}
				var slots []int
				for s := range ref {
					slots = append(slots, s)
				}
				s := slots[rng.Intn(len(slots))]
				if err := p.Delete(s); err != nil {
					t.Log(err)
					return false
				}
				delete(ref, s)
			case 2: // compact
				p.Compact()
			}
			// Validate all live content.
			if p.LiveCount() != len(ref) {
				t.Logf("LiveCount=%d, ref=%d", p.LiveCount(), len(ref))
				return false
			}
			for s, want := range ref {
				got, err := p.Get(s)
				if err != nil || !bytes.Equal(got, want) {
					t.Logf("slot %d mismatch: %v", s, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCapacity(t *testing.T) {
	if got := Capacity(512); got != (sim.PageSize-HeaderSize)/(512+SlotSize) {
		t.Fatalf("Capacity(512) = %d", got)
	}
	if Capacity(0) != 0 || Capacity(-1) != 0 {
		t.Fatal("nonpositive record size should have zero capacity")
	}
	// Capacity must be achievable in practice.
	p := newPage(t)
	rec := make([]byte, 512)
	n := 0
	for {
		if _, ok := p.Insert(rec); !ok {
			break
		}
		n++
	}
	if n != Capacity(512) {
		t.Fatalf("achieved %d inserts of 512B, Capacity says %d", n, Capacity(512))
	}
}

func ExampleCapacity() {
	fmt.Println(Capacity(512))
	// Output: 7
}

// TestFitsMatchesInsert: Fits(n) says whether Insert of an n-byte record
// succeeds, through random inserts and deletes that leave dead slots and
// dead bytes behind — space FreeSpace does not count.
func TestFitsMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := newPage(t)
	probe := make([]byte, sim.PageSize)
	for step := range 2000 {
		if live := p.LiveCount(); live > 0 && rng.Intn(3) == 0 {
			for {
				if s := rng.Intn(p.NumSlots()); p.InUse(s) {
					if err := p.Delete(s); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
		} else {
			p.Insert(make([]byte, 1+rng.Intn(400)))
		}
		for _, n := range []int{1, 64, 128, 400, 1000} {
			copy(probe, p.buf)
			_, ok := Wrap(probe).Insert(make([]byte, n))
			if got := p.Fits(n); got != ok {
				t.Fatalf("step %d: Fits(%d) = %v, Insert ok = %v (free %d, %d live of %d slots)",
					step, n, got, ok, p.FreeSpace(), p.LiveCount(), p.NumSlots())
			}
		}
	}
}
