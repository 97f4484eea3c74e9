package lsm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"bulkdel/internal/buffer"
	"bulkdel/internal/sim"
)

// SSTable on-disk format, all pages served through the buffer pool:
//
//	pages 0 … Blocks-1      data blocks: [4B crc][2B used][2B count][entries]
//	pages Blocks … Pages-1  trailer, same framing (count = trailer pages),
//	                        carrying one byte stream: the table's fixed
//	                        fields (trailer layout below), Blocks ×
//	                        firstKey(8), then RangeTombs × (lo 8, hi 8, seq 8)
//
// A data-block entry is its key — the block's first in full (8 bytes),
// each later one as the uvarint delta from the key before it — then
// uvarint(seq<<1 | tombstone), then, for a put, the recSize value bytes.
// The per-page CRC-32C covers the used payload, so a torn or stale page is
// detected on read instead of silently merged. The catalog names only a
// table's file and page count: open reads the last page, whose count says
// how many trailer pages end the file, and takes every other field of Meta
// and the sparse index (first key per block) from the trailer, kept in
// memory; point lookups touch exactly one data page.

const (
	kindPut byte = 1
	kindDel byte = 2
)

// entry is one point record or point tombstone.
type entry struct {
	key  int64
	seq  uint64
	kind byte
	val  []byte // kindPut only
}

const sstMagic uint64 = 0x4c534d5353544232 // "LSMSSTB2"

// trailer layout: the fixed fields at the head of the trailer stream.
const (
	trMagic   = 0
	trEntries = 8
	trTombs   = 16
	trMinKey  = 24
	trMaxKey  = 32
	trMinSeq  = 40
	trMaxSeq  = 48
	trBorn    = 56
	trBlocks  = 64
	trRecSize = 68
	trNRange  = 72
	trFixed   = 76
)

// page framing: crc(4) | used(2) | count(2) | payload.
const (
	blkCRC     = 0
	blkUsed    = 4
	blkCount   = 6
	blkHdrSize = 8
	blkPayload = sim.PageSize - blkHdrSize
)

// firstHdrMax is the worst-case header of a block's first entry: the whole
// key and the longest seq/kind uvarint. Every block holds at least its
// first entry, so a record this header leaves room for always fits.
const firstHdrMax = 8 + binary.MaxVarintLen64

// MaxRecordSize is the largest record the backend can store: one encoded
// entry (its worst-case first-entry header plus the record) must fit a
// data block's payload. Table creation rejects larger schemas up front.
const MaxRecordSize = blkPayload - firstHdrMax

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Meta is one SSTable's description. The catalog persists File, Device and
// Pages; open reads the rest back from the CRC-checked trailer.
type Meta struct {
	File       uint32 `json:"file"`
	Device     int    `json:"device,omitempty"`
	Pages      int64  `json:"pages"`
	Blocks     int    `json:"blocks"`
	Entries    int64  `json:"entries"`
	Tombs      int64  `json:"tombs"`      // point tombstones
	RangeTombs int    `json:"rangeTombs"` // range tombstones
	MinKey     int64  `json:"minKey"`
	MaxKey     int64  `json:"maxKey"`
	MinSeq     uint64 `json:"minSeq"`
	MaxSeq     uint64 `json:"maxSeq"`
	// Born is the flush tick the table was created at; the delete-aware
	// trigger compacts tombstone-bearing tables once they age past it.
	Born uint64 `json:"born"`
}

// SSTable is an immutable sorted run on disk.
type SSTable struct {
	Meta
	pool      *buffer.Pool
	recSize   int
	firstKeys []int64 // sparse index: first key of each data block
	rtombs    []RangeTomb
}

// appendEntry encodes e after a block's entries, prev being the key of the
// entry before it, or in full as the block's first when first is set.
func appendEntry(dst []byte, e entry, prev int64, first bool, recSize int) []byte {
	if first {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.key))
	} else {
		dst = binary.AppendUvarint(dst, uint64(e.key-prev))
	}
	tag := e.seq << 1
	if e.kind == kindDel {
		tag |= 1
	}
	dst = binary.AppendUvarint(dst, tag)
	if e.kind == kindPut {
		dst = append(dst, e.val[:recSize]...)
	}
	return dst
}

// framePage returns a fresh page carrying payload under the crc framing.
func framePage(payload []byte, count int) []byte {
	pg := make([]byte, sim.PageSize)
	binary.LittleEndian.PutUint16(pg[blkUsed:], uint16(len(payload)))
	binary.LittleEndian.PutUint16(pg[blkCount:], uint16(count))
	copy(pg[blkHdrSize:], payload)
	binary.LittleEndian.PutUint32(pg[blkCRC:], crc32.Checksum(pg[blkUsed:blkHdrSize+len(payload)], crcTable))
	return pg
}

// buildSSTable writes entries (sorted by key, at most one per key) and
// range tombstones into a fresh file on dev and returns the open table.
// The caller commits the manifest; until then the file is unreferenced.
// A cold table — a compaction's output — leaves its pages at the cold end
// of the pool, so they do not push the compaction's inputs out.
func buildSSTable(pool *buffer.Pool, dev int, recSize int, entries []entry, rtombs []RangeTomb, born uint64, cold bool) (*SSTable, error) {
	disk := pool.Disk()
	file, err := disk.CreateFileOn(dev)
	if err != nil {
		return nil, err
	}
	sst := &SSTable{pool: pool, recSize: recSize}
	sst.Meta = Meta{File: uint32(file), Device: dev, Born: born}
	sst.rtombs = append(sst.rtombs, rtombs...)

	// Pack entries into data blocks: an entry that does not fit after the
	// block's last one starts the next block, with its key in full.
	var pages [][]byte
	cur := make([]byte, 0, blkPayload)
	var count int
	var prev int64
	flushBlock := func() {
		if count > 0 {
			pages = append(pages, framePage(cur, count))
			cur, count = cur[:0], 0
		}
	}
	for _, e := range entries {
		if e.kind == kindPut && recSize > MaxRecordSize {
			return nil, fmt.Errorf("lsm: entry for key %d needs up to %d bytes, exceeds the %d-byte block payload (record size %d > MaxRecordSize %d)",
				e.key, firstHdrMax+recSize, blkPayload, recSize, MaxRecordSize)
		}
		if n := len(cur); count > 0 {
			if cur = appendEntry(cur, e, prev, false, recSize); len(cur) > blkPayload {
				cur = cur[:n]
				flushBlock()
			}
		}
		if count == 0 {
			sst.firstKeys = append(sst.firstKeys, e.key)
			cur = appendEntry(cur, e, 0, true, recSize)
		}
		prev = e.key
		count++
		sst.Entries++
		if e.kind == kindDel {
			sst.Tombs++
		}
		if sst.Entries == 1 || e.key < sst.MinKey {
			sst.MinKey = e.key
		}
		if sst.Entries == 1 || e.key > sst.MaxKey {
			sst.MaxKey = e.key
		}
		if sst.MinSeq == 0 || e.seq < sst.MinSeq {
			sst.MinSeq = e.seq
		}
		if e.seq > sst.MaxSeq {
			sst.MaxSeq = e.seq
		}
	}
	flushBlock()
	sst.Blocks = len(pages)
	sst.RangeTombs = len(rtombs)
	// Key range covers the range tombstones too, so compaction input
	// selection by key overlap never misses a tombstone's span.
	haveKeys := sst.Entries > 0
	for _, rt := range rtombs {
		if !haveKeys {
			sst.MinKey, sst.MaxKey = rt.Lo, rt.Hi
			haveKeys = true
		}
		if rt.Lo < sst.MinKey {
			sst.MinKey = rt.Lo
		}
		if rt.Hi > sst.MaxKey {
			sst.MaxKey = rt.Hi
		}
		if sst.MinSeq == 0 || rt.Seq < sst.MinSeq {
			sst.MinSeq = rt.Seq
		}
		if rt.Seq > sst.MaxSeq {
			sst.MaxSeq = rt.Seq
		}
	}

	// Trailer: the fixed fields, the sparse index, the range tombstones,
	// cut into as many framed pages as it needs.
	tr := sst.encodeTrailer()
	n := (len(tr) + blkPayload - 1) / blkPayload
	for off := 0; off < len(tr); off += blkPayload {
		pages = append(pages, framePage(tr[off:min(off+blkPayload, len(tr))], n))
	}
	sst.Pages = int64(len(pages))

	// Write everything through the pool and force it out in file order.
	nos := make([]sim.PageNo, len(pages))
	for i, pg := range pages {
		fr, err := pool.NewPage(file)
		if err != nil {
			return nil, err
		}
		copy(fr.Data(), pg)
		nos[i] = fr.Page()
		pool.Unpin(fr, true)
	}
	if cold {
		err = pool.Retire(file, nos)
	} else {
		err = pool.FlushFile(file)
	}
	if err != nil {
		return nil, err
	}
	return sst, nil
}

// encodeTrailer returns the trailer stream of a built table.
func (s *SSTable) encodeTrailer() []byte {
	tr := make([]byte, trFixed, trFixed+8*len(s.firstKeys)+24*len(s.rtombs))
	binary.LittleEndian.PutUint64(tr[trMagic:], sstMagic)
	binary.LittleEndian.PutUint64(tr[trEntries:], uint64(s.Entries))
	binary.LittleEndian.PutUint64(tr[trTombs:], uint64(s.Tombs))
	binary.LittleEndian.PutUint64(tr[trMinKey:], uint64(s.MinKey))
	binary.LittleEndian.PutUint64(tr[trMaxKey:], uint64(s.MaxKey))
	binary.LittleEndian.PutUint64(tr[trMinSeq:], s.MinSeq)
	binary.LittleEndian.PutUint64(tr[trMaxSeq:], s.MaxSeq)
	binary.LittleEndian.PutUint64(tr[trBorn:], s.Born)
	binary.LittleEndian.PutUint32(tr[trBlocks:], uint32(s.Blocks))
	binary.LittleEndian.PutUint32(tr[trRecSize:], uint32(s.recSize))
	binary.LittleEndian.PutUint32(tr[trNRange:], uint32(len(s.rtombs)))
	for _, k := range s.firstKeys {
		tr = binary.LittleEndian.AppendUint64(tr, uint64(k))
	}
	for _, rt := range s.rtombs {
		tr = binary.LittleEndian.AppendUint64(tr, uint64(rt.Lo))
		tr = binary.LittleEndian.AppendUint64(tr, uint64(rt.Hi))
		tr = binary.LittleEndian.AppendUint64(tr, rt.Seq)
	}
	return tr
}

// decodeTrailer fills the table's Meta (past File, Device and Pages), its
// sparse index and its range tombstones from a trailer stream n pages long.
func (s *SSTable) decodeTrailer(tr []byte, n int) error {
	if len(tr) < trFixed {
		return fmt.Errorf("trailer %d bytes, shorter than its fixed fields", len(tr))
	}
	if binary.LittleEndian.Uint64(tr[trMagic:]) != sstMagic {
		return fmt.Errorf("bad magic")
	}
	if rs := int(binary.LittleEndian.Uint32(tr[trRecSize:])); rs != s.recSize {
		return fmt.Errorf("record size %d, tree's is %d", rs, s.recSize)
	}
	blocks := int64(binary.LittleEndian.Uint32(tr[trBlocks:]))
	nrange := int64(binary.LittleEndian.Uint32(tr[trNRange:]))
	if blocks+int64(n) != s.Pages {
		return fmt.Errorf("%d blocks and %d trailer pages, catalog says %d pages", blocks, n, s.Pages)
	}
	if want := trFixed + 8*blocks + 24*nrange; int64(len(tr)) != want {
		return fmt.Errorf("trailer %d bytes, want %d", len(tr), want)
	}
	s.Blocks, s.RangeTombs = int(blocks), int(nrange)
	s.Entries = int64(binary.LittleEndian.Uint64(tr[trEntries:]))
	s.Tombs = int64(binary.LittleEndian.Uint64(tr[trTombs:]))
	s.MinKey = int64(binary.LittleEndian.Uint64(tr[trMinKey:]))
	s.MaxKey = int64(binary.LittleEndian.Uint64(tr[trMaxKey:]))
	s.MinSeq = binary.LittleEndian.Uint64(tr[trMinSeq:])
	s.MaxSeq = binary.LittleEndian.Uint64(tr[trMaxSeq:])
	s.Born = binary.LittleEndian.Uint64(tr[trBorn:])
	off := trFixed
	s.firstKeys = make([]int64, s.Blocks)
	for b := range s.firstKeys {
		s.firstKeys[b] = int64(binary.LittleEndian.Uint64(tr[off:]))
		off += 8
	}
	for r := 0; r < s.RangeTombs; r++ {
		s.rtombs = append(s.rtombs, RangeTomb{
			Lo:  int64(binary.LittleEndian.Uint64(tr[off:])),
			Hi:  int64(binary.LittleEndian.Uint64(tr[off+8:])),
			Seq: binary.LittleEndian.Uint64(tr[off+16:]),
		})
		off += 24
	}
	return nil
}

// openSSTable reattaches to a table the manifest names by file and page
// count: the last page says how many trailer pages end the file, and the
// trailer, CRC-checked page by page, fills in the rest.
func openSSTable(pool *buffer.Pool, recSize int, meta Meta) (*SSTable, error) {
	sst := &SSTable{Meta: Meta{File: meta.File, Device: meta.Device, Pages: meta.Pages}, pool: pool, recSize: recSize}
	if meta.Pages < 1 {
		return nil, fmt.Errorf("catalog says %d pages", meta.Pages)
	}
	tail, n, err := sst.readFramed(sim.PageNo(meta.Pages-1), 1)
	if err != nil {
		return nil, fmt.Errorf("trailer: %w", err)
	}
	if n < 1 || int64(n) > meta.Pages {
		return nil, fmt.Errorf("trailer of %d pages in a %d-page table", n, meta.Pages)
	}
	var tr []byte
	for p := meta.Pages - int64(n); p < meta.Pages-1; p++ {
		pg, _, err := sst.readFramed(sim.PageNo(p), 1)
		if err != nil {
			return nil, fmt.Errorf("trailer: %w", err)
		}
		tr = append(tr, pg...)
	}
	if err := sst.decodeTrailer(append(tr, tail...), n); err != nil {
		return nil, err
	}
	return sst, nil
}

// readFramed reads one crc-framed page and returns its used payload and
// its count field; see pinFramed for run.
func (s *SSTable) readFramed(p sim.PageNo, run int) ([]byte, int, error) {
	fr, payload, count, err := s.pinFramed(p, run)
	if err != nil {
		return nil, 0, err
	}
	defer s.pool.Unpin(fr, false)
	return append([]byte(nil), payload...), count, nil
}

// pinFramed pins page p, verifies its framing and CRC, and returns its
// frame, payload and count field; the caller unpins the frame. A miss reads
// p in one chained run with the run-1 pages after it (run ≤ 1: p alone).
func (s *SSTable) pinFramed(p sim.PageNo, run int) (*buffer.Frame, []byte, int, error) {
	fr, err := s.pool.GetForScan(sim.FileID(s.File), p, run)
	if err != nil {
		return nil, nil, 0, err
	}
	data := fr.Data()
	used := int(binary.LittleEndian.Uint16(data[blkUsed:]))
	count := int(binary.LittleEndian.Uint16(data[blkCount:]))
	switch {
	case used > blkPayload:
		err = fmt.Errorf("page %d: used %d out of range", p, used)
	case binary.LittleEndian.Uint32(data[blkCRC:]) != crc32.Checksum(data[blkUsed:blkHdrSize+used], crcTable):
		err = fmt.Errorf("page %d: crc mismatch", p)
	}
	if err != nil {
		s.pool.Unpin(fr, false)
		return nil, nil, 0, err
	}
	return fr, data[blkHdrSize : blkHdrSize+used], count, nil
}

// uvarint reads the uvarint at off of b and returns it with the offset
// past it, or next -1 when b holds no whole uvarint there.
func uvarint(b []byte, off int) (v uint64, next int) {
	for shift := uint(0); off < len(b) && shift < 64; shift += 7 {
		c := b[off]
		off++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, off
		}
	}
	return 0, -1
}

// scanKey decodes the key and the seq<<1|tombstone tag of the entry at off
// of a block payload, prev being the key of the entry before it (unused at
// off 0), and returns the offset of what follows: the value of a put, the
// next entry after a tombstone.
func scanKey(payload []byte, off int, prev int64) (key int64, tag uint64, next int, err error) {
	if off == 0 {
		if len(payload) < 8 {
			return 0, 0, 0, fmt.Errorf("truncated first key")
		}
		key, next = int64(binary.LittleEndian.Uint64(payload)), 8
	} else {
		d, n := uvarint(payload, off)
		if n < 0 {
			return 0, 0, 0, fmt.Errorf("bad key delta at %d", off)
		}
		if key = prev + int64(d); key <= prev {
			return 0, 0, 0, fmt.Errorf("key delta at %d does not ascend", off)
		}
		next = n
	}
	if tag, next = uvarint(payload, next); next < 0 {
		return 0, 0, 0, fmt.Errorf("bad seq of key %d", key)
	}
	return key, tag, next, nil
}

// decodeEntry parses the entry at off of a block payload, prev being the
// key of the entry before it (unused at off 0), and returns it with the
// offset of the next; its val aliases payload.
func (s *SSTable) decodeEntry(payload []byte, off int, prev int64) (entry, int, error) {
	key, tag, off, err := scanKey(payload, off, prev)
	if err != nil {
		return entry{}, 0, err
	}
	e := entry{key: key, seq: tag >> 1, kind: kindPut}
	if tag&1 != 0 {
		e.kind = kindDel
		return e, off, nil
	}
	if off+s.recSize > len(payload) {
		return entry{}, 0, fmt.Errorf("truncated record at %d", off)
	}
	e.val = payload[off : off+s.recSize : off+s.recSize]
	return e, off + s.recSize, nil
}

// readBlock decodes data block b (0-based), read as pinFramed reads with
// run. One copy of the payload backs
// every value it returns: the frame is recycled once unpinned, and the
// values must outlive it.
func (s *SSTable) readBlock(b, run int) ([]entry, error) {
	payload, count, err := s.readFramed(sim.PageNo(b), run)
	if err != nil {
		return nil, err
	}
	out := make([]entry, count)
	off, prev := 0, int64(0)
	for i := range out {
		if out[i], off, err = s.decodeEntry(payload, off, prev); err != nil {
			return nil, fmt.Errorf("block %d: %w", b, err)
		}
		prev = out[i].key
	}
	if off != len(payload) {
		return nil, fmt.Errorf("block %d: %d bytes after its %d entries", b, len(payload)-off, count)
	}
	return out, nil
}

// get returns the table's point entry for key, if any: one sparse-index
// probe, at most one data page read, keys decoded and values skipped, and
// only the found value copied.
func (s *SSTable) get(key int64) (entry, bool, error) {
	if s.Blocks == 0 || key < s.MinKey || key > s.MaxKey {
		return entry{}, false, nil
	}
	// Last block whose first key <= key.
	b := -1
	lo, hi := 0, len(s.firstKeys)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		if s.firstKeys[mid] <= key {
			b = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	if b < 0 {
		return entry{}, false, nil
	}
	fr, payload, count, err := s.pinFramed(sim.PageNo(b), 1)
	if err != nil {
		return entry{}, false, err
	}
	defer s.pool.Unpin(fr, false)
	off, prev := 0, int64(0)
	for i := 0; i < count; i++ {
		k, tag, next, err := scanKey(payload, off, prev)
		switch {
		case err != nil:
			return entry{}, false, fmt.Errorf("block %d: %w", b, err)
		case k == key:
			e, _, err := s.decodeEntry(payload, off, prev)
			if err != nil {
				return entry{}, false, fmt.Errorf("block %d: %w", b, err)
			}
			e.val = append([]byte(nil), e.val...)
			return e, true, nil
		case k > key:
			return entry{}, false, nil
		}
		if off, prev = next, k; tag&1 == 0 {
			off += s.recSize
		}
	}
	return entry{}, false, nil
}

// check verifies every block's CRC and sortedness against the metadata,
// and that no entry is one a range tombstone of hide hides.
func (s *SSTable) check(hide []RangeTomb) error {
	var n int64
	var tombs int64
	last := int64(0)
	haveLast := false
	for b := 0; b < s.Blocks; b++ {
		entries, err := s.readBlock(b, 1)
		if err != nil {
			return err
		}
		if len(entries) == 0 {
			return fmt.Errorf("block %d empty", b)
		}
		if entries[0].key != s.firstKeys[b] {
			return fmt.Errorf("block %d first key %d != sparse index %d", b, entries[0].key, s.firstKeys[b])
		}
		for _, e := range entries {
			if haveLast && e.key <= last {
				return fmt.Errorf("keys out of order at %d", e.key)
			}
			if coveredBy(hide, e.key, e.seq) {
				return fmt.Errorf("key %d (seq %d) lies above a range tombstone that hides it", e.key, e.seq)
			}
			last, haveLast = e.key, true
			n++
			if e.kind == kindDel {
				tombs++
			}
		}
	}
	if n != s.Entries {
		return fmt.Errorf("entry count %d != meta %d", n, s.Entries)
	}
	if tombs != s.Tombs {
		return fmt.Errorf("tombstone count %d != meta %d", tombs, s.Tombs)
	}
	return nil
}

// iter walks the table's entries in key order, reading blocks lazily: a
// missed block in one chained run with up to ahead-1 blocks after it. A
// compaction input, read to its end, reads ahead; a range scan, which may
// stop early, reads single blocks (ahead 1), never past its range.
type sstIter struct {
	t     *SSTable
	blk   int
	buf   []entry
	i     int
	ahead int
}

func (s *SSTable) iter(ahead int) *sstIter { return &sstIter{t: s, ahead: ahead} }

// readBlock reads block b and the blocks the iterator reads ahead.
func (it *sstIter) readBlock(b int) ([]entry, error) {
	return it.t.readBlock(b, min(it.ahead, it.t.Blocks-b))
}

// next returns the following entry; ok=false at the end.
func (it *sstIter) next() (entry, bool, error) {
	for it.i >= len(it.buf) {
		if it.blk >= it.t.Blocks {
			return entry{}, false, nil
		}
		buf, err := it.readBlock(it.blk)
		if err != nil {
			return entry{}, false, err
		}
		it.blk++
		it.buf, it.i = buf, 0
	}
	e := it.buf[it.i]
	it.i++
	return e, true, nil
}

// seek positions the iterator at the first entry with key >= lo.
func (it *sstIter) seek(lo int64) error {
	// First block that could contain lo: the last with firstKey <= lo.
	b := 0
	for b+1 < len(it.t.firstKeys) && it.t.firstKeys[b+1] <= lo {
		b++
	}
	it.blk = b
	it.buf, it.i = nil, 0
	if it.t.Blocks == 0 {
		return nil
	}
	buf, err := it.readBlock(b)
	if err != nil {
		return err
	}
	it.blk = b + 1
	it.buf = buf
	for it.i < len(it.buf) && it.buf[it.i].key < lo {
		it.i++
	}
	return nil
}
