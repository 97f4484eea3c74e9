package lsm

import (
	"bytes"
	"reflect"
	"testing"

	"bulkdel/internal/buffer"
	"bulkdel/internal/sim"
)

// fuzzEntries reads a run of entries out of arbitrary bytes, two per
// entry: strictly ascending keys with deltas from 1 to 2^48, a tombstone
// for an odd first byte, a put of 16 bytes otherwise.
func fuzzEntries(b []byte) []entry {
	var es []entry
	key := int64(-1) << 60
	for i := 0; i+1 < len(b) && len(es) < 512; i += 2 {
		key += (int64(b[i]) + 1) << (b[i+1] % 41)
		e := entry{key: key, seq: uint64(b[i+1])<<(b[i]%50) + 1, kind: kindPut}
		if b[i]&1 != 0 {
			e.kind = kindDel
		} else {
			e.val = bytes.Repeat([]byte{b[i+1]}, 16)
		}
		es = append(es, e)
	}
	return es
}

// fuzzRangeTombs reads up to 64 range tombstones, three bytes each.
func fuzzRangeTombs(b []byte) []RangeTomb {
	var rts []RangeTomb
	for i := 0; i+2 < len(b) && len(rts) < 64; i += 3 {
		lo := int64(int8(b[i])) << 40
		rts = append(rts, RangeTomb{Lo: lo, Hi: lo + int64(b[i+1])<<38, Seq: uint64(b[i+2])})
	}
	return rts
}

// FuzzSSTableDecode: a one-block table whose data block and trailer carry
// arbitrary bytes (framed under valid CRCs, so the decoders are reached)
// opens, checks, iterates and answers lookups with an error or a result,
// never a panic; and the same bytes read as entries and range tombstones
// build a table that reopens to the same Meta, index and entries.
func FuzzSSTableDecode(f *testing.F) {
	disk := sim.NewDisk(sim.DefaultCostModel())
	pool := buffer.New(disk, 1<<20)
	seed, err := buildSSTable(pool, 0, 16, fuzzEntries([]byte{0, 1, 3, 9, 8, 40, 255, 255}), []RangeTomb{{Lo: -5, Hi: 5, Seq: 9}}, 3, false)
	if err != nil {
		f.Fatal(err)
	}
	block, _, err := seed.readFramed(0, 1)
	if err != nil {
		f.Fatal(err)
	}
	trailer, _, err := seed.readFramed(1, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(block, trailer, uint16(4))
	f.Fuzz(func(t *testing.T, block, trailer []byte, count uint16) {
		disk := sim.NewDisk(sim.DefaultCostModel())
		pool := buffer.New(disk, 1<<20)

		id := disk.CreateFile()
		for _, pg := range [][]byte{
			framePage(block[:min(len(block), blkPayload)], int(count)),
			framePage(trailer[:min(len(trailer), blkPayload)], 1),
		} {
			if _, err := disk.Allocate(id); err != nil {
				t.Fatal(err)
			}
			p, _ := disk.NumPages(id)
			if err := disk.WritePage(id, p-1, pg); err != nil {
				t.Fatal(err)
			}
		}
		if sst, err := openSSTable(pool, 16, Meta{File: uint32(id), Pages: 2}); err == nil {
			_ = sst.check(nil)
			for it := sst.iter(1); ; {
				if _, ok, err := it.next(); !ok || err != nil {
					break
				}
			}
			for _, k := range append(sst.firstKeys, sst.MinKey, sst.MaxKey) {
				_, _, _ = sst.get(k)
				_, _, _ = sst.get(k + 1)
			}
		}

		es, rts := fuzzEntries(block), fuzzRangeTombs(trailer)
		built, err := buildSSTable(pool, 0, 16, es, rts, uint64(count), false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := openSSTable(pool, 16, Meta{File: built.File, Pages: built.Pages})
		if err != nil {
			t.Fatal(err)
		}
		if got.Meta != built.Meta || !reflect.DeepEqual(got.firstKeys, built.firstKeys) || !reflect.DeepEqual(got.rtombs, built.rtombs) {
			t.Fatalf("reopened %+v %v %v, built %+v %v %v", got.Meta, got.firstKeys, got.rtombs, built.Meta, built.firstKeys, built.rtombs)
		}
		if err := got.check(nil); err != nil {
			t.Fatal(err)
		}
		it := got.iter(1)
		for i, want := range es {
			e, ok, err := it.next()
			if err != nil || !ok || e.key != want.key || e.seq != want.seq || e.kind != want.kind || !bytes.Equal(e.val, want.val) {
				t.Fatalf("entry %d: %+v %v %v, want %+v", i, e, ok, err, want)
			}
			if e, ok, err := got.get(want.key); err != nil || !ok || e.seq != want.seq || !bytes.Equal(e.val, want.val) {
				t.Fatalf("get %d: %+v %v %v", want.key, e, ok, err)
			}
		}
		if _, ok, err := it.next(); ok || err != nil {
			t.Fatalf("entries past the %d built: %v", len(es), err)
		}
	})
}
