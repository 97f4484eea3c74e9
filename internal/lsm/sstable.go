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
//	page 0                  header (fixed fields + CRC, see below)
//	pages 1 … Blocks        data blocks: [4B crc][2B used][2B count][entries]
//	pages Blocks+1 … Pages-1 index pages, same framing, carrying one byte
//	                        stream: Blocks × firstKey(8), then RangeTombs ×
//	                        (lo 8, hi 8, seq 8)
//
// A data-block entry is key(8) seq(8) kind(1), followed by the record
// bytes for kindPut. The per-block CRC-32C covers the used payload, so a
// torn or stale block is detected on read instead of silently merged. The
// sparse index (first key per block) is read once at open and kept in
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

const sstMagic uint64 = 0x4c534d5353544231 // "LSMSSTB1"

// header layout on page 0.
const (
	hdrMagic   = 0
	hdrEntries = 8
	hdrBlocks  = 16
	hdrIdx     = 20
	hdrRecSize = 24
	hdrNRange  = 28
	hdrMinKey  = 32
	hdrMaxKey  = 40
	hdrMinSeq  = 48
	hdrMaxSeq  = 56
	hdrTombs   = 64
	hdrBorn    = 72
	hdrCRC     = 80
	hdrSize    = 84
)

// block framing: crc(4) | used(2) | count(2) | payload.
const (
	blkCRC     = 0
	blkUsed    = 4
	blkCount   = 6
	blkHdrSize = 8
	blkPayload = sim.PageSize - blkHdrSize
)

// MaxRecordSize is the largest record the backend can store: one encoded
// entry (17-byte key/seq/kind header plus the record) must fit a data
// block's payload. Table creation rejects larger schemas up front.
const MaxRecordSize = blkPayload - 17

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Meta is one SSTable's catalog-persisted description; everything needed
// to reopen it without trusting the (CRC-checked anyway) header.
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

// entrySize returns the encoded size of e.
func entrySize(e entry, recSize int) int {
	if e.kind == kindPut {
		return 17 + recSize
	}
	return 17
}

// buildSSTable writes entries (sorted by key, at most one per key) and
// range tombstones into a fresh file on dev and returns the open table.
// The caller commits the manifest; until then the file is unreferenced.
func buildSSTable(pool *buffer.Pool, dev int, recSize int, entries []entry, rtombs []RangeTomb, born uint64) (*SSTable, error) {
	disk := pool.Disk()
	file, err := disk.CreateFileOn(dev)
	if err != nil {
		return nil, err
	}
	sst := &SSTable{pool: pool, recSize: recSize}
	sst.Meta = Meta{File: uint32(file), Device: dev, Born: born}
	sst.rtombs = append(sst.rtombs, rtombs...)

	// Pack entries into data blocks.
	var blocks [][]byte
	var cur []byte
	var curCount int
	var curFirst int64
	flushBlock := func() {
		if curCount == 0 {
			return
		}
		pg := make([]byte, sim.PageSize)
		binary.LittleEndian.PutUint16(pg[blkUsed:], uint16(len(cur)))
		binary.LittleEndian.PutUint16(pg[blkCount:], uint16(curCount))
		copy(pg[blkHdrSize:], cur)
		binary.LittleEndian.PutUint32(pg[blkCRC:], crc32.Checksum(pg[blkUsed:blkHdrSize+len(cur)], crcTable))
		blocks = append(blocks, pg)
		sst.firstKeys = append(sst.firstKeys, curFirst)
		cur, curCount = cur[:0], 0
	}
	for _, e := range entries {
		sz := entrySize(e, recSize)
		if sz > blkPayload {
			return nil, fmt.Errorf("lsm: entry for key %d needs %d bytes, exceeds the %d-byte block payload (record size %d > MaxRecordSize %d)",
				e.key, sz, blkPayload, recSize, MaxRecordSize)
		}
		if len(cur)+sz > blkPayload {
			flushBlock()
		}
		if curCount == 0 {
			curFirst = e.key
		}
		var hdr [17]byte
		binary.LittleEndian.PutUint64(hdr[0:], uint64(e.key))
		binary.LittleEndian.PutUint64(hdr[8:], e.seq)
		hdr[16] = e.kind
		cur = append(cur, hdr[:]...)
		if e.kind == kindPut {
			cur = append(cur, e.val[:recSize]...)
		}
		curCount++
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
	sst.Blocks = len(blocks)
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

	// Index stream: sparse index then range tombstones.
	idx := make([]byte, 0, 8*len(sst.firstKeys)+24*len(rtombs))
	var b8 [8]byte
	for _, k := range sst.firstKeys {
		binary.LittleEndian.PutUint64(b8[:], uint64(k))
		idx = append(idx, b8[:]...)
	}
	for _, rt := range rtombs {
		binary.LittleEndian.PutUint64(b8[:], uint64(rt.Lo))
		idx = append(idx, b8[:]...)
		binary.LittleEndian.PutUint64(b8[:], uint64(rt.Hi))
		idx = append(idx, b8[:]...)
		binary.LittleEndian.PutUint64(b8[:], rt.Seq)
		idx = append(idx, b8[:]...)
	}
	var idxPages [][]byte
	for off := 0; off < len(idx) || (off == 0 && len(idx) == 0); off += blkPayload {
		n := len(idx) - off
		if n > blkPayload {
			n = blkPayload
		}
		pg := make([]byte, sim.PageSize)
		binary.LittleEndian.PutUint16(pg[blkUsed:], uint16(n))
		copy(pg[blkHdrSize:], idx[off:off+n])
		binary.LittleEndian.PutUint32(pg[blkCRC:], crc32.Checksum(pg[blkUsed:blkHdrSize+n], crcTable))
		idxPages = append(idxPages, pg)
		if len(idx) == 0 {
			break
		}
	}
	sst.Pages = int64(1 + len(blocks) + len(idxPages))

	// Header.
	hdr := make([]byte, sim.PageSize)
	binary.LittleEndian.PutUint64(hdr[hdrMagic:], sstMagic)
	binary.LittleEndian.PutUint64(hdr[hdrEntries:], uint64(sst.Entries))
	binary.LittleEndian.PutUint32(hdr[hdrBlocks:], uint32(sst.Blocks))
	binary.LittleEndian.PutUint32(hdr[hdrIdx:], uint32(len(idxPages)))
	binary.LittleEndian.PutUint32(hdr[hdrRecSize:], uint32(recSize))
	binary.LittleEndian.PutUint32(hdr[hdrNRange:], uint32(len(rtombs)))
	binary.LittleEndian.PutUint64(hdr[hdrMinKey:], uint64(sst.MinKey))
	binary.LittleEndian.PutUint64(hdr[hdrMaxKey:], uint64(sst.MaxKey))
	binary.LittleEndian.PutUint64(hdr[hdrMinSeq:], sst.MinSeq)
	binary.LittleEndian.PutUint64(hdr[hdrMaxSeq:], sst.MaxSeq)
	binary.LittleEndian.PutUint64(hdr[hdrTombs:], uint64(sst.Tombs))
	binary.LittleEndian.PutUint64(hdr[hdrBorn:], born)
	binary.LittleEndian.PutUint32(hdr[hdrCRC:], crc32.Checksum(hdr[:hdrCRC], crcTable))

	// Write everything through the pool and force it out: header, data
	// blocks, index pages, in file order.
	all := make([][]byte, 0, 1+len(blocks)+len(idxPages))
	all = append(all, hdr)
	all = append(all, blocks...)
	all = append(all, idxPages...)
	for _, pg := range all {
		fr, err := pool.NewPage(file)
		if err != nil {
			return nil, err
		}
		copy(fr.Data(), pg)
		pool.Unpin(fr, true)
	}
	if err := pool.FlushFile(file); err != nil {
		return nil, err
	}
	return sst, nil
}

// openSSTable reattaches to a table described by the manifest, reading the
// header and index pages back and verifying their CRCs.
func openSSTable(pool *buffer.Pool, recSize int, meta Meta) (*SSTable, error) {
	sst := &SSTable{Meta: meta, pool: pool, recSize: recSize}
	fr, err := pool.Get(sim.FileID(meta.File), 0)
	if err != nil {
		return nil, err
	}
	hdr := append([]byte(nil), fr.Data()[:hdrSize]...)
	pool.Unpin(fr, false)
	if binary.LittleEndian.Uint64(hdr[hdrMagic:]) != sstMagic {
		return nil, fmt.Errorf("bad magic")
	}
	if binary.LittleEndian.Uint32(hdr[hdrCRC:]) != crc32.Checksum(hdr[:hdrCRC], crcTable) {
		return nil, fmt.Errorf("header crc mismatch")
	}
	idxPages := int(binary.LittleEndian.Uint32(hdr[hdrIdx:]))
	var idx []byte
	for p := 0; p < idxPages; p++ {
		pg, err := sst.readFramed(sim.PageNo(1 + meta.Blocks + p))
		if err != nil {
			return nil, fmt.Errorf("index page %d: %w", p, err)
		}
		idx = append(idx, pg...)
	}
	want := 8*meta.Blocks + 24*meta.RangeTombs
	if len(idx) != want {
		return nil, fmt.Errorf("index stream %d bytes, want %d", len(idx), want)
	}
	for b := 0; b < meta.Blocks; b++ {
		sst.firstKeys = append(sst.firstKeys, int64(binary.LittleEndian.Uint64(idx[8*b:])))
	}
	off := 8 * meta.Blocks
	for r := 0; r < meta.RangeTombs; r++ {
		sst.rtombs = append(sst.rtombs, RangeTomb{
			Lo:  int64(binary.LittleEndian.Uint64(idx[off:])),
			Hi:  int64(binary.LittleEndian.Uint64(idx[off+8:])),
			Seq: binary.LittleEndian.Uint64(idx[off+16:]),
		})
		off += 24
	}
	return sst, nil
}

// readFramed reads one crc-framed page and returns its used payload.
func (s *SSTable) readFramed(p sim.PageNo) ([]byte, error) {
	fr, err := s.pool.Get(sim.FileID(s.File), p)
	if err != nil {
		return nil, err
	}
	defer s.pool.Unpin(fr, false)
	data := fr.Data()
	used := int(binary.LittleEndian.Uint16(data[blkUsed:]))
	if used > blkPayload {
		return nil, fmt.Errorf("framed page %d: used %d out of range", p, used)
	}
	if binary.LittleEndian.Uint32(data[blkCRC:]) != crc32.Checksum(data[blkUsed:blkHdrSize+used], crcTable) {
		return nil, fmt.Errorf("framed page %d: crc mismatch", p)
	}
	return append([]byte(nil), data[blkHdrSize:blkHdrSize+used]...), nil
}

// pinBlock pins data block b (0-based), verifies its framing and CRC, and
// returns its frame, payload and entry count; the caller unpins the frame.
func (s *SSTable) pinBlock(b int) (*buffer.Frame, []byte, int, error) {
	fr, err := s.pool.Get(sim.FileID(s.File), sim.PageNo(1+b))
	if err != nil {
		return nil, nil, 0, err
	}
	data := fr.Data()
	used := int(binary.LittleEndian.Uint16(data[blkUsed:]))
	count := int(binary.LittleEndian.Uint16(data[blkCount:]))
	switch {
	case used > blkPayload:
		err = fmt.Errorf("block %d: used %d out of range", b, used)
	case binary.LittleEndian.Uint32(data[blkCRC:]) != crc32.Checksum(data[blkUsed:blkHdrSize+used], crcTable):
		err = fmt.Errorf("block %d: crc mismatch", b)
	}
	if err != nil {
		s.pool.Unpin(fr, false)
		return nil, nil, 0, err
	}
	return fr, data[blkHdrSize : blkHdrSize+used], count, nil
}

// decodeEntry parses the entry at off of a block payload and returns it
// with the offset of the next; its val aliases payload.
func (s *SSTable) decodeEntry(payload []byte, off int) (entry, int, error) {
	if off+17 > len(payload) {
		return entry{}, 0, fmt.Errorf("truncated entry at %d", off)
	}
	e := entry{
		key:  int64(binary.LittleEndian.Uint64(payload[off:])),
		seq:  binary.LittleEndian.Uint64(payload[off+8:]),
		kind: payload[off+16],
	}
	off += 17
	if e.kind == kindPut {
		if off+s.recSize > len(payload) {
			return entry{}, 0, fmt.Errorf("truncated record at %d", off)
		}
		e.val = payload[off : off+s.recSize : off+s.recSize]
		off += s.recSize
	}
	return e, off, nil
}

// readBlock decodes data block b (0-based). One copy of the payload backs
// every value it returns: the frame is recycled once unpinned, and the
// values must outlive it.
func (s *SSTable) readBlock(b int) ([]entry, error) {
	fr, payload, count, err := s.pinBlock(b)
	if err != nil {
		return nil, err
	}
	payload = append([]byte(nil), payload...)
	s.pool.Unpin(fr, false)
	out := make([]entry, count)
	off := 0
	for i := range out {
		if out[i], off, err = s.decodeEntry(payload, off); err != nil {
			return nil, fmt.Errorf("block %d: %w", b, err)
		}
	}
	return out, nil
}

// get returns the table's point entry for key, if any: one sparse-index
// probe, at most one data page read, and only the found value copied.
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
	fr, payload, count, err := s.pinBlock(b)
	if err != nil {
		return entry{}, false, err
	}
	defer s.pool.Unpin(fr, false)
	off := 0
	for i := 0; i < count; i++ {
		var e entry
		if e, off, err = s.decodeEntry(payload, off); err != nil {
			return entry{}, false, fmt.Errorf("block %d: %w", b, err)
		}
		if e.key == key {
			e.val = append([]byte(nil), e.val...)
			return e, true, nil
		}
		if e.key > key {
			break
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
		entries, err := s.readBlock(b)
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

// iter walks the table's entries in key order, reading blocks lazily.
type sstIter struct {
	t   *SSTable
	blk int
	buf []entry
	i   int
}

func (s *SSTable) iter() *sstIter { return &sstIter{t: s} }

// next returns the following entry; ok=false at the end.
func (it *sstIter) next() (entry, bool, error) {
	for it.i >= len(it.buf) {
		if it.blk >= it.t.Blocks {
			return entry{}, false, nil
		}
		buf, err := it.t.readBlock(it.blk)
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
	buf, err := it.t.readBlock(b)
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
