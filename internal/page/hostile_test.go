package page

import (
	"bytes"
	"encoding/binary"
	"testing"

	"bulkdel/internal/sim"
)

// hostilePage is a fresh page whose header claims slots slots, with one
// record inserted first so slot 0 holds real bytes.
func hostilePage(t *testing.T, slots uint16) Slotted {
	t.Helper()
	p := newPage(t)
	if _, ok := p.Insert([]byte("live")); !ok {
		t.Fatal("insert into a fresh page failed")
	}
	binary.LittleEndian.PutUint16(p.buf[offNumSlots:], slots)
	return p
}

// TestHostileSlotCountIsAnError: a header claiming 2,000 slots — more than
// a page's directory holds — gives errors and dead slots, never a slice out
// of range.
func TestHostileSlotCountIsAnError(t *testing.T) {
	p := hostilePage(t, 2000)
	if _, err := p.Get(1500); err == nil {
		t.Error("Get(1500) on a 2,000-slot header returned no error")
	}
	if p.InUse(1500) {
		t.Error("slot 1500 reads as live")
	}
	if n := p.NumSlots(); n > maxSlots {
		t.Errorf("NumSlots = %d, past the %d a page holds", n, maxSlots)
	}
	_ = p.LiveCount()
	_ = p.LiveBytes()
	_ = p.Fits(64)
	// The insert compacts the directory down to its one live slot.
	if slot, ok := p.Insert(make([]byte, 64)); !ok || p.NumSlots() != 2 {
		t.Errorf("insert: slot %d ok %v, %d slots after", slot, ok, p.NumSlots())
	}
}

// TestOutOfPageSlotReadsDead: a slot whose offset plus length passes the
// end of the page is dead to every accessor, and Get reports it.
func TestOutOfPageSlotReadsDead(t *testing.T) {
	p := hostilePage(t, 1)
	binary.LittleEndian.PutUint16(p.buf[HeaderSize:], sim.PageSize-2)
	binary.LittleEndian.PutUint16(p.buf[HeaderSize+2:], 100)
	if _, err := p.Get(0); err == nil {
		t.Error("Get of a slot past the page returned no error")
	}
	if p.InUse(0) || p.LiveCount() != 0 || p.LiveBytes() != 0 {
		t.Errorf("out-of-page slot counted live: InUse %v, LiveCount %d, LiveBytes %d",
			p.InUse(0), p.LiveCount(), p.LiveBytes())
	}
	slot, ok := p.Insert([]byte("next"))
	if got, err := p.Get(slot); !ok || err != nil || string(got) != "next" {
		t.Errorf("insert over the dead slot: slot %d ok %v, Get = %q, %v", slot, ok, got, err)
	}
}

// FuzzSlottedPage: no accessor or mutation panics on a page of arbitrary
// bytes, a live slot's record lies inside the page, and a record Inserted
// into a fresh page — or into the arbitrary one, when it fits — reads back
// through Get.
func FuzzSlottedPage(f *testing.F) {
	fresh := make([]byte, sim.PageSize)
	p := Wrap(fresh)
	p.Init(1)
	for i := 0; i < 5; i++ {
		p.Insert(bytes.Repeat([]byte{byte(i + 1)}, 40+i))
	}
	p.Delete(2)
	f.Add(append([]byte(nil), fresh...), []byte("record"))
	binary.LittleEndian.PutUint16(fresh[offNumSlots:], 2000)
	f.Add(append([]byte(nil), fresh...), []byte{7})
	f.Add([]byte{}, bytes.Repeat([]byte{9}, 300))

	f.Fuzz(func(t *testing.T, data, rec []byte) {
		buf := make([]byte, sim.PageSize)
		copy(buf, data)
		p := Wrap(buf)
		for i := -1; i <= p.NumSlots(); i++ {
			got, err := p.Get(i)
			if p.InUse(i) != (err == nil) {
				t.Fatalf("slot %d: InUse %v but Get error %v", i, p.InUse(i), err)
			}
			if err == nil && len(got) > sim.PageSize {
				t.Fatalf("slot %d: %d-byte record", i, len(got))
			}
		}
		_, _, _ = p.LiveCount(), p.LiveBytes(), p.FreeSpace()
		for _, n := range []int{0, 1, 64, len(rec), sim.PageSize} {
			p.Fits(n)
		}

		roundTrip := func(where string, p Slotted) bool {
			slot, ok := p.Insert(rec)
			if !ok {
				return false
			}
			if got, err := p.Get(slot); err != nil || !bytes.Equal(got, rec) {
				t.Fatalf("%s: Get(%d) after Insert = %x, %v; want %x", where, slot, got, err, rec)
			}
			if err := p.Update(slot, rec[:len(rec)/2+1]); err != nil {
				t.Fatalf("%s: shrinking update: %v", where, err)
			}
			if err := p.Delete(slot); err != nil {
				t.Fatalf("%s: Delete(%d) after Insert: %v", where, slot, err)
			}
			return true
		}
		roundTrip("arbitrary page", p)
		p.Compact()

		clean := Wrap(make([]byte, sim.PageSize))
		clean.Init(1)
		if !roundTrip("fresh page", clean) && len(rec) > 0 && len(rec) <= sim.PageSize-HeaderSize-SlotSize {
			t.Fatalf("a %d-byte record does not fit a fresh page", len(rec))
		}
	})
}
