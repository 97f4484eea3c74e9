// Package page implements the slotted-page layout used by heap files.
//
// A slotted page stores variable-length records inside one fixed-size disk
// page. A slot directory at the front of the page grows forward; record
// bytes grow backward from the end of the page. Deleting a record leaves a
// dead slot (a tombstone) so that the RIDs of the surviving records remain
// stable — exactly the behaviour the bulk-delete paper relies on: deleting
// 15 % of a table must not move the other 85 % of the records, otherwise
// every index entry pointing at them would have to be updated too
// (paper §2.3 discusses why table reorganization is usually skipped).
//
// Layout of a page (little-endian):
//
//	offset 0  : uint8  page type (owned by the caller)
//	offset 1  : uint8  flags (owned by the caller)
//	offset 2  : uint16 number of slots
//	offset 4  : uint16 free-space pointer (start of the record area)
//	offset 8  : uint32 next-page link (owned by the caller)
//	offset 12 : uint64 page LSN (owned by the caller / WAL)
//	offset 20 : slot directory, 4 bytes per slot (offset uint16, length uint16)
//	...
//	free space
//	...
//	record bytes, growing down from the end of the page
//
// A slot with offset 0 is dead: no record byte area can start at offset 0
// because the header occupies it.
package page

import (
	"encoding/binary"
	"fmt"

	"bulkdel/internal/sim"
)

const (
	// HeaderSize is the number of bytes reserved at the front of every
	// slotted page before the slot directory.
	HeaderSize = 20
	// SlotSize is the size of one slot directory entry.
	SlotSize = 4

	offType      = 0
	offFlags     = 1
	offNumSlots  = 2
	offFreeStart = 4
	offNext      = 8
	offLSN       = 12
)

// Slotted wraps a raw page buffer with slotted-page operations. It holds no
// state of its own; every operation reads and writes the underlying buffer,
// so a Slotted may be created on the fly around a buffer-pool frame.
type Slotted struct {
	buf   []byte
	hooks *Hooks
}

// Hooks lets a test stop a page operation inside a window no public boundary
// exposes; the zero value has none.
type Hooks struct {
	// MidCompact runs between record laydowns inside Compact — after at least
	// one live record has been rewritten but before the rest: the torn-read
	// window a concurrent unlatched Get would hit (see compact_race_test.go).
	MidCompact func()
}

// WithHooks returns the page with h attached to its operations.
func (p Slotted) WithHooks(h *Hooks) Slotted {
	p.hooks = h
	return p
}

// Wrap interprets buf (which must be sim.PageSize bytes) as a slotted page.
// It does not initialize the page; use Init for a fresh page.
func Wrap(buf []byte) Slotted {
	if len(buf) != sim.PageSize {
		panic(fmt.Sprintf("page: buffer must be %d bytes, got %d", sim.PageSize, len(buf)))
	}
	return Slotted{buf: buf}
}

// Init formats the buffer as an empty slotted page with the given type byte.
func (p Slotted) Init(pageType uint8) {
	for i := range p.buf {
		p.buf[i] = 0
	}
	p.buf[offType] = pageType
	p.setNumSlots(0)
	p.setFreeStart(uint16(len(p.buf)))
	p.SetNext(sim.InvalidPage)
}

// Type returns the page-type byte.
func (p Slotted) Type() uint8 { return p.buf[offType] }

// Flags returns the caller-owned flags byte.
func (p Slotted) Flags() uint8 { return p.buf[offFlags] }

// SetFlags stores the caller-owned flags byte.
func (p Slotted) SetFlags(f uint8) { p.buf[offFlags] = f }

// Next returns the next-page link.
func (p Slotted) Next() sim.PageNo {
	return sim.PageNo(binary.LittleEndian.Uint32(p.buf[offNext:]))
}

// SetNext stores the next-page link.
func (p Slotted) SetNext(n sim.PageNo) {
	binary.LittleEndian.PutUint32(p.buf[offNext:], uint32(n))
}

// LSN returns the page LSN.
func (p Slotted) LSN() uint64 { return binary.LittleEndian.Uint64(p.buf[offLSN:]) }

// SetLSN stores the page LSN.
func (p Slotted) SetLSN(l uint64) { binary.LittleEndian.PutUint64(p.buf[offLSN:], l) }

// NumSlots returns the size of the slot directory, including dead slots.
func (p Slotted) NumSlots() int {
	return int(binary.LittleEndian.Uint16(p.buf[offNumSlots:]))
}

func (p Slotted) setNumSlots(n int) {
	binary.LittleEndian.PutUint16(p.buf[offNumSlots:], uint16(n))
}

func (p Slotted) freeStart() uint16 {
	return binary.LittleEndian.Uint16(p.buf[offFreeStart:])
}

func (p Slotted) setFreeStart(v uint16) {
	binary.LittleEndian.PutUint16(p.buf[offFreeStart:], v)
}

func (p Slotted) slotAt(i int) (off, length uint16) {
	base := HeaderSize + i*SlotSize
	return binary.LittleEndian.Uint16(p.buf[base:]), binary.LittleEndian.Uint16(p.buf[base+2:])
}

func (p Slotted) setSlot(i int, off, length uint16) {
	base := HeaderSize + i*SlotSize
	binary.LittleEndian.PutUint16(p.buf[base:], off)
	binary.LittleEndian.PutUint16(p.buf[base+2:], length)
}

// InUse reports whether slot i holds a live record.
func (p Slotted) InUse(i int) bool {
	if i < 0 || i >= p.NumSlots() {
		return false
	}
	off, _ := p.slotAt(i)
	return off != 0
}

// Get returns the record bytes in slot i. The returned slice aliases the
// page buffer; callers must copy it if they need it past the next mutation.
func (p Slotted) Get(i int) ([]byte, error) {
	if i < 0 || i >= p.NumSlots() {
		return nil, fmt.Errorf("page: slot %d out of range (%d slots)", i, p.NumSlots())
	}
	off, length := p.slotAt(i)
	if off == 0 {
		return nil, fmt.Errorf("page: slot %d is dead", i)
	}
	return p.buf[off : off+length], nil
}

// FreeSpace returns the number of bytes available for one more insert,
// accounting for the slot directory entry a fresh insert may need.
func (p Slotted) FreeSpace() int {
	dirEnd := HeaderSize + p.NumSlots()*SlotSize
	free := int(p.freeStart()) - dirEnd
	// A new record may need a new slot.
	free -= SlotSize
	if free < 0 {
		return 0
	}
	return free
}

// Fits reports whether Insert would store an n-byte record: it counts the
// space Compact would reclaim from dead slots, which FreeSpace does not.
func (p Slotted) Fits(n int) bool {
	if n <= 0 || n > sim.PageSize-HeaderSize-SlotSize {
		return false
	}
	if p.FreeSpace() >= n {
		return true
	}
	// After a Compact the directory ends at the last live slot; a record
	// needs a new slot only when no dead one is left below it.
	slots, live, bytes := 0, 0, 0
	for i := 0; i < p.NumSlots(); i++ {
		if off, l := p.slotAt(i); off != 0 {
			slots, live, bytes = i+1, live+1, bytes+int(l)
		}
	}
	if live == slots {
		n += SlotSize
	}
	return sim.PageSize-HeaderSize-slots*SlotSize-bytes >= n
}

// LiveCount returns the number of live records on the page.
func (p Slotted) LiveCount() int {
	n := 0
	for i := 0; i < p.NumSlots(); i++ {
		if p.InUse(i) {
			n++
		}
	}
	return n
}

// LiveBytes returns the total record bytes of live records.
func (p Slotted) LiveBytes() int {
	n := 0
	for i := 0; i < p.NumSlots(); i++ {
		if off, l := p.slotAt(i); off != 0 {
			n += int(l)
		}
	}
	return n
}

// Insert stores rec on the page, reusing a dead slot if one exists, and
// returns the slot number. It returns ok=false when the page lacks space.
// Insert compacts the record area if fragmentation alone blocks the insert.
func (p Slotted) Insert(rec []byte) (slot int, ok bool) {
	if len(rec) == 0 || len(rec) > sim.PageSize-HeaderSize-SlotSize {
		return 0, false
	}
	// Find a reusable dead slot.
	findReuse := func() int {
		for i := 0; i < p.NumSlots(); i++ {
			if !p.InUse(i) {
				return i
			}
		}
		return -1
	}
	reuse := findReuse()
	needSlot := 0
	if reuse < 0 {
		needSlot = SlotSize
	}
	dirEnd := HeaderSize + p.NumSlots()*SlotSize
	if int(p.freeStart())-dirEnd-needSlot < len(rec) {
		// Not enough contiguous space; try compaction. Compaction may
		// trim trailing dead slots, so the reuse candidate must be
		// re-discovered afterwards.
		p.Compact()
		reuse = findReuse()
		needSlot = 0
		if reuse < 0 {
			needSlot = SlotSize
		}
		dirEnd = HeaderSize + p.NumSlots()*SlotSize
		if int(p.freeStart())-dirEnd-needSlot < len(rec) {
			return 0, false
		}
	}
	off := p.freeStart() - uint16(len(rec))
	copy(p.buf[off:], rec)
	p.setFreeStart(off)
	if reuse >= 0 {
		p.setSlot(reuse, off, uint16(len(rec)))
		return reuse, true
	}
	slot = p.NumSlots()
	p.setNumSlots(slot + 1)
	p.setSlot(slot, off, uint16(len(rec)))
	return slot, true
}

// Delete kills slot i, leaving a tombstone so other slot numbers (and hence
// RIDs) stay stable. The record bytes are reclaimed lazily by Compact.
func (p Slotted) Delete(i int) error {
	if i < 0 || i >= p.NumSlots() {
		return fmt.Errorf("page: slot %d out of range (%d slots)", i, p.NumSlots())
	}
	off, _ := p.slotAt(i)
	if off == 0 {
		return fmt.Errorf("page: slot %d already dead", i)
	}
	p.setSlot(i, 0, 0)
	return nil
}

// Update replaces the record in slot i with rec. The update happens in
// place when the new record is not larger than the old one; otherwise the
// record is re-inserted at the free-space frontier (compacting if needed).
func (p Slotted) Update(i int, rec []byte) error {
	if i < 0 || i >= p.NumSlots() {
		return fmt.Errorf("page: slot %d out of range (%d slots)", i, p.NumSlots())
	}
	off, length := p.slotAt(i)
	if off == 0 {
		return fmt.Errorf("page: slot %d is dead", i)
	}
	if len(rec) <= int(length) {
		copy(p.buf[off:], rec)
		p.setSlot(i, off, uint16(len(rec)))
		return nil
	}
	// Grow: kill and re-insert into the same slot.
	p.setSlot(i, 0, 0)
	dirEnd := HeaderSize + p.NumSlots()*SlotSize
	if int(p.freeStart())-dirEnd < len(rec) {
		p.Compact()
		// Compaction may have trimmed slot i (it is dead right now);
		// re-grow the directory. Any intermediate slots were trimmed
		// dead slots and are still zeroed, so re-exposing them is safe.
		if p.NumSlots() < i+1 {
			p.setNumSlots(i + 1)
		}
		dirEnd = HeaderSize + p.NumSlots()*SlotSize
		if int(p.freeStart())-dirEnd < len(rec) {
			// Restore the old record reference before failing.
			p.setSlot(i, off, length)
			return fmt.Errorf("page: no space to grow slot %d to %d bytes", i, len(rec))
		}
	}
	noff := p.freeStart() - uint16(len(rec))
	copy(p.buf[noff:], rec)
	p.setFreeStart(noff)
	p.setSlot(i, noff, uint16(len(rec)))
	return nil
}

// Compact rewrites the record area so all live records are contiguous at
// the end of the page, erasing fragmentation left by deletes. Slot numbers
// are preserved. Trailing dead slots are trimmed from the directory.
func (p Slotted) Compact() {
	type ent struct {
		slot   int
		off    uint16
		length uint16
	}
	n := p.NumSlots()
	live := make([]ent, 0, n)
	for i := 0; i < n; i++ {
		if off, l := p.slotAt(i); off != 0 {
			live = append(live, ent{i, off, l})
		}
	}
	// Copy live records into a scratch area, then lay them back down.
	scratch := make([]byte, 0, sim.PageSize)
	for i := range live {
		rec := p.buf[live[i].off : live[i].off+live[i].length]
		live[i].off = uint16(len(scratch)) // temporary: offset in scratch
		scratch = append(scratch, rec...)
	}
	freeStart := uint16(len(p.buf))
	for i := range live {
		if i > 0 && p.hooks != nil && p.hooks.MidCompact != nil {
			p.hooks.MidCompact()
		}
		rec := scratch[live[i].off : live[i].off+live[i].length]
		freeStart -= live[i].length
		copy(p.buf[freeStart:], rec)
		p.setSlot(live[i].slot, freeStart, live[i].length)
	}
	p.setFreeStart(freeStart)
	// Trim trailing dead slots.
	for n > 0 && !p.InUse(n-1) {
		n--
	}
	p.setNumSlots(n)
}

// Capacity returns the maximum record bytes a fresh page can hold for
// records of the given size, i.e. how many such records fit on one page.
func Capacity(recordSize int) int {
	if recordSize <= 0 {
		return 0
	}
	return (sim.PageSize - HeaderSize) / (recordSize + SlotSize)
}
