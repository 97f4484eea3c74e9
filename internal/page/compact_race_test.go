package page

import (
	"bytes"
	"testing"
)

// Torn-read audit: Compact rewrites live records bottom-up and updates each
// slot's directory entry only after its bytes moved, so mid-compaction a
// not-yet-moved slot can point at a region already overwritten by an
// earlier laydown. This test freezes a compaction in exactly that window
// (via Hooks.MidCompact) and shows an unlatched Get returning a record
// that is part old image, part another record's bytes — the hazard the heap
// file's latch exists to close (heap.File writers hold it exclusively;
// snapshot readers share it; see internal/heap's latch regression test).
func TestCompactTornReadWindow(t *testing.T) {
	p := newPage(t)
	fill := func(size int, tag byte) []byte {
		r := make([]byte, size)
		for i := range r {
			r[i] = tag
		}
		return r
	}

	// Layout: A(40B) in slot 0, B(100B) in slot 1, delete A, insert C(60B)
	// reusing slot 0. Record area is now C | B with a 40-byte hole above B —
	// so Compact's first laydown (C, moved to the very end of the page)
	// overwrites the tail of B's old location before slot 1 is updated.
	if _, ok := p.Insert(fill(40, 0xAA)); !ok {
		t.Fatal("insert A")
	}
	if _, ok := p.Insert(fill(100, 0xBB)); !ok {
		t.Fatal("insert B")
	}
	if err := p.Delete(0); err != nil {
		t.Fatal(err)
	}
	if slot, ok := p.Insert(fill(60, 0xCC)); !ok || slot != 0 {
		t.Fatalf("insert C: slot=%d ok=%v, want reuse of slot 0", slot, ok)
	}

	var torn []byte
	p = p.WithHooks(&Hooks{MidCompact: func() {
		if torn != nil {
			return
		}
		// An unlatched read of slot 1 inside the compaction window.
		rec, err := p.Get(1)
		if err != nil {
			t.Errorf("mid-compact Get(1): %v", err)
			return
		}
		torn = append([]byte(nil), rec...)
	}})
	p.Compact()

	if torn == nil {
		t.Fatal("compaction hook never fired")
	}
	if len(torn) != 100 {
		t.Fatalf("mid-compact Get(1) returned %d bytes, want 100", len(torn))
	}
	// The audit's point: the read IS torn — B's old region has been partly
	// overwritten by C's new laydown while slot 1 still pointed at it.
	if !bytes.Contains(torn, []byte{0xBB}) || !bytes.Contains(torn, []byte{0xCC}) {
		t.Fatalf("mid-compact read was not torn (got uniform bytes %x...%x); "+
			"if Compact became atomic for readers, the heap latch contract changed — update this audit",
			torn[0], torn[len(torn)-1])
	}

	// After compaction completes the page is whole again.
	b, err := p.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, fill(100, 0xBB)) {
		t.Fatal("post-compact slot 1 corrupt")
	}
	c, err := p.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c, fill(60, 0xCC)) {
		t.Fatal("post-compact slot 0 corrupt")
	}
}
