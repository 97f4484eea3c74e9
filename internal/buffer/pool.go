// Package buffer implements a fixed-budget buffer pool over the simulated
// disk.
//
// The pool is the only component that touches the disk, so the simulated
// clock prices exactly the page-fault pattern each algorithm produces. The
// paper's experiments vary the buffer budget between 2 MB and 10 MB on a
// 512 MB table — the budget is the central knob of Experiment 4 (Figure 9)
// — and rely on two behaviours this pool reproduces:
//
//   - LRU replacement with pinning: hot inner B-tree nodes stay cached
//     while a random leaf/heap workload thrashes (the traditional delete);
//     the one exception is UnpinCold, which puts a page its caller is done
//     with (a heap page an insert filled) at the cold end instead,
//   - chained I/O: sequential scans read runs of pages with a single
//     positioning charge (the vertical bulk delete), as the paper's
//     prototype does with "chunks of several pages from disk".
//
// The pool is sharded by device: each device of the simulated disk array
// gets its own latch, frame map, and LRU list, so concurrent passes over
// files on different spindles never serialize on a common mutex and never
// steal each other's frames (eviction is device-local — a pass hammering
// device 2 cannot evict device 1's hot pages). With a single device there
// is a single shard holding the whole budget, which is exactly the
// original pool.
//
// A shard's frames are made on demand, up to its share of the budget, and
// then recycled: an evicted or discarded frame, buffer included, goes on the
// shard's free list and the next miss reuses it, so a warm pool allocates
// nothing. The LRU list is linked through the frames themselves.
package buffer

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"bulkdel/internal/sim"
)

// DefaultReadAhead is the chained-I/O run length (in pages) used by
// sequential scans unless overridden.
const DefaultReadAhead = 32

// Frame is a resident page. A Frame handed out by Get/NewPage is pinned;
// the caller must Unpin it exactly once. The Data slice aliases pool
// memory and must not be used after the unpin: the frame may by then hold
// another page.
type Frame struct {
	file  sim.FileID
	page  sim.PageNo
	buf   []byte
	pins  int
	dirty atomic.Bool
	// prev and next link the frame into its shard's LRU list while it is
	// resident and unpinned (prev nil: not on the list); next also links
	// the shard's free list.
	prev, next *Frame
	sh         *shard // owning shard
}

// File returns the file the frame caches.
func (f *Frame) File() sim.FileID { return f.file }

// Page returns the page number the frame caches.
func (f *Frame) Page() sim.PageNo { return f.page }

// Data returns the page bytes. Mutating them requires unpinning with
// dirty=true so the change reaches disk.
func (f *Frame) Data() []byte { return f.buf }

// MarkDirty records a mutation immediately, without waiting for the unpin.
// Long-lived cursors use it so that a flush taken while they hold the pin
// (e.g. for a WAL checkpoint) includes their pending changes.
func (f *Frame) MarkDirty() { f.dirty.Store(true) }

type frameKey struct {
	file sim.FileID
	page sim.PageNo
}

// Stats counts pool activity since creation or the last ResetStats.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	DirtyEvicts uint64 // evictions whose victim was dirty: each one sweep
	Swept       uint64 // pages the eviction sweeps wrote, victims included
}

func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.DirtyEvicts += o.DirtyEvicts
	s.Swept += o.Swept
}

// shard is the per-device slice of the pool: one latch, one frame map, one
// LRU list, one free list.
type shard struct {
	mu     sync.Mutex
	frames map[frameKey]*Frame
	lru    Frame  // list head: lru.next is the most recently used frame, lru.prev the least
	free   *Frame // frames holding no page, linked through next
	stats  Stats

	// Scratch reused under mu: an eviction sweep's dirty frames, a chained
	// read's frames and their buffers.
	sweep []*Frame
	run   []*Frame
	bufs  [][]byte
}

func newShard() *shard {
	s := &shard{frames: make(map[frameKey]*Frame)}
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	return s
}

// pushFront puts an unpinned frame at the most recently used end of the LRU
// list. Caller holds the shard mutex.
func (s *shard) pushFront(f *Frame) {
	f.prev, f.next = &s.lru, s.lru.next
	f.next.prev = f
	s.lru.next = f
}

// pushBack puts an unpinned frame at the least recently used end of the LRU
// list, so the shard's next eviction takes it. Caller holds the shard mutex.
func (s *shard) pushBack(f *Frame) {
	f.prev, f.next = s.lru.prev, &s.lru
	f.prev.next = f
	s.lru.prev = f
}

// unlink takes a frame off the LRU list. Caller holds the shard mutex.
func (s *shard) unlink(f *Frame) {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

// take returns a frame holding no page: a recycled one, else a new one.
// makeRoom has run first, so the shard never makes more frames than its
// budget. Caller holds the shard mutex.
func (s *shard) take() *Frame {
	f := s.free
	if f == nil {
		return &Frame{buf: make([]byte, sim.PageSize), sh: s}
	}
	s.free, f.next = f.next, nil
	return f
}

// release puts a frame that holds no page (off the map and the LRU list,
// unpinned) on the free list. Caller holds the shard mutex.
func (s *shard) release(f *Frame) {
	f.dirty.Store(false)
	f.next, s.free = s.free, f
}

// Pool is an LRU buffer pool with a fixed frame budget, sharded by device.
// It is safe for concurrent use: a per-shard mutex serializes frame
// management on that device, mirroring a latch on the buffer manager;
// callers coordinate page content access via the engine's own locks and
// gates.
type Pool struct {
	disk     *sim.Disk
	capacity int // total frames across all shards

	mu        sync.Mutex // guards shards growth and readAhead
	shards    []*shard   // index = device number
	readAhead int
}

// New creates a pool holding budgetBytes worth of pages (at least 4 frames).
func New(disk *sim.Disk, budgetBytes int) *Pool {
	capacity := budgetBytes / sim.PageSize
	if capacity < 4 {
		capacity = 4
	}
	return &Pool{
		disk:      disk,
		capacity:  capacity,
		shards:    []*shard{newShard()},
		readAhead: DefaultReadAhead,
	}
}

// SetReadAhead sets the chained-I/O run length used by GetForScan. Values
// below 1 disable read-ahead.
func (p *Pool) SetReadAhead(pages int) {
	if pages < 1 {
		pages = 1
	}
	p.mu.Lock()
	p.readAhead = pages
	p.mu.Unlock()
}

// ReadAhead returns the chained-I/O run length: the most pages one
// GetForScan miss reads.
func (p *Pool) ReadAhead() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.readAhead
}

// Capacity returns the pool size in frames (total across shards).
func (p *Pool) Capacity() int { return p.capacity }

// shardCap is the frame budget of one shard: the total budget divided
// evenly over the devices of the disk array (at least 4 frames each).
func (p *Pool) shardCap() int {
	n := p.disk.NumDevices()
	c := p.capacity / n
	if c < 4 {
		c = 4
	}
	return c
}

// shardFor returns the shard caching the given device's files, growing the
// shard set on first access.
func (p *Pool) shardFor(dev int) *shard {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.shards) <= dev {
		p.shards = append(p.shards, newShard())
	}
	return p.shards[dev]
}

// shardOf returns the shard for a file's current device placement.
func (p *Pool) shardOf(file sim.FileID) *shard {
	return p.shardFor(p.disk.DeviceOf(file))
}

// allShards snapshots the shard list.
func (p *Pool) allShards() []*shard {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*shard, len(p.shards))
	copy(out, p.shards)
	return out
}

// Resident returns the number of frames currently holding pages.
func (p *Pool) Resident() int {
	n := 0
	for _, s := range p.allShards() {
		s.mu.Lock()
		n += len(s.frames)
		s.mu.Unlock()
	}
	return n
}

// Disk returns the underlying simulated disk.
func (p *Pool) Disk() *sim.Disk { return p.disk }

// Stats returns a snapshot of the hit/miss counters, summed over shards.
func (p *Pool) Stats() Stats {
	var out Stats
	for _, s := range p.allShards() {
		s.mu.Lock()
		out.add(s.stats)
		s.mu.Unlock()
	}
	return out
}

// ShardStats returns the counters of one device's shard.
func (p *Pool) ShardStats(dev int) Stats {
	s := p.shardFor(dev)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats zeroes the counters of every shard.
func (p *Pool) ResetStats() {
	for _, s := range p.allShards() {
		s.mu.Lock()
		s.stats = Stats{}
		s.mu.Unlock()
	}
}

// pin marks a frame in use. Caller holds the shard mutex.
func (s *shard) pin(f *Frame) {
	if f.pins == 0 && f.prev != nil {
		s.unlink(f)
	}
	f.pins++
}

// Unpin releases one pin. dirty=true records that the caller mutated the
// page; it is written back at eviction or flush time.
func (p *Pool) Unpin(f *Frame, dirty bool) { f.sh.unpin(f, dirty, false) }

// UnpinCold is Unpin for a page the caller is done with for good — a heap
// page an insert just filled: when the last pin goes, the frame goes to the
// least recently used end of its shard's list, so the next eviction takes it.
func (p *Pool) UnpinCold(f *Frame, dirty bool) { f.sh.unpin(f, dirty, true) }

// unpin releases one pin; the last puts the frame on the LRU list, at the
// cold end if cold, else at the hot end.
func (s *shard) unpin(f *Frame, dirty, cold bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f.pins <= 0 {
		panic(fmt.Sprintf("buffer: unpin of unpinned frame %d/%d", f.file, f.page))
	}
	if dirty {
		f.dirty.Store(true)
	}
	f.pins--
	switch {
	case f.pins > 0:
	case cold:
		s.pushBack(f)
	default:
		s.pushFront(f)
	}
}

// sweepShare sets the window a dirty eviction cleans: the victim and the
// cap/sweepShare next-coldest frames of the shard's LRU list.
const sweepShare = 16

// evictOne drops the least recently used unpinned frame of the shard. A
// dirty victim is written back together with every dirty frame of its
// window, in (file, page) order: one sorted sweep where one random write
// per evicted page would go, and the cold neighbours stay resident, clean.
// It fails when every frame is pinned. On a write-back error the frames
// not yet written stay resident, dirty, and on the LRU list — the pool
// remains consistent and no page is lost, so the caller can retry or the
// DB can be reopened. The victim's frame goes on the free list.
func (s *shard) evictOne(disk *sim.Disk, cap int) error {
	f := s.lru.prev
	if f == &s.lru {
		return fmt.Errorf("buffer: pool exhausted: all %d frames pinned", cap)
	}
	s.stats.Evictions++
	if f.dirty.Load() {
		s.stats.DirtyEvicts++
		dirty := s.sweep[:0]
		for g, w := f, cap/sweepShare; g != &s.lru && w >= 0; g, w = g.prev, w-1 {
			if g.dirty.Load() {
				dirty = append(dirty, g)
			}
		}
		s.sweep = dirty
		n, err := writeBack(disk, dirty, "evicting")
		s.stats.Swept += uint64(n)
		if err != nil {
			return err
		}
	}
	s.unlink(f)
	delete(s.frames, frameKey{f.file, f.page})
	s.release(f)
	return nil
}

// writeBack writes the dirty frames in (file, page) order, so the write-back
// is as sequential as the set allows, and marks each clean once it is on
// disk. It returns how many it wrote; on an error the rest stay dirty and
// the error names the page that failed.
func writeBack(disk *sim.Disk, dirty []*Frame, op string) (int, error) {
	slices.SortFunc(dirty, func(a, b *Frame) int {
		return cmp.Or(cmp.Compare(a.file, b.file), cmp.Compare(a.page, b.page))
	})
	for i, f := range dirty {
		if err := disk.WritePage(f.file, f.page, f.buf); err != nil {
			return i, fmt.Errorf("buffer: %s dirty page %d/%d: %w", op, f.file, f.page, err)
		}
		f.dirty.Store(false)
	}
	return len(dirty), nil
}

// makeRoom ensures at least n more frames can be installed in the shard.
func (s *shard) makeRoom(disk *sim.Disk, cap, n int) error {
	for len(s.frames)+n > cap {
		if err := s.evictOne(disk, cap); err != nil {
			return err
		}
	}
	return nil
}

// install maps (file, page) to a frame from take. Caller holds the shard
// mutex.
func (s *shard) install(f *Frame, file sim.FileID, page sim.PageNo) {
	f.file, f.page = file, page
	s.frames[frameKey{file, page}] = f
}

// Get pins and returns the frame for (file, page), reading it from disk on
// a miss.
func (p *Pool) Get(file sim.FileID, page sim.PageNo) (*Frame, error) {
	s := p.shardOf(file)
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.frames[frameKey{file, page}]; ok {
		s.stats.Hits++
		s.pin(f)
		return f, nil
	}
	s.stats.Misses++
	if err := s.makeRoom(p.disk, p.shardCap(), 1); err != nil {
		return nil, err
	}
	f := s.take()
	if err := p.disk.ReadPage(file, page, f.buf); err != nil {
		s.release(f)
		return nil, fmt.Errorf("buffer: reading page %d/%d: %w", file, page, err)
	}
	s.install(f, file, page)
	s.pin(f)
	return f, nil
}

// FullRun asks GetForScan for as long a run as the pool allows: the run of a
// sequential scan, which will read every page that follows.
const FullRun = math.MaxInt

// GetForScan behaves like Get but, on a miss, reads ahead: it issues one
// chained read of up to run pages starting at page, clipped at the
// configured read-ahead length, the end of the file and the first resident
// page (run ≤ 1 reads page alone). The extra pages are installed unpinned so
// the caller's following Gets hit the pool.
func (p *Pool) GetForScan(file sim.FileID, page sim.PageNo, run int) (*Frame, error) {
	s := p.shardOf(file)
	cap := p.shardCap()
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.frames[frameKey{file, page}]; ok {
		s.stats.Hits++
		s.pin(f)
		return f, nil
	}
	s.stats.Misses++
	run = min(run, p.ReadAhead(), cap/2)
	if run < 1 {
		run = 1
	}
	total, err := p.disk.NumPages(file)
	if err != nil {
		return nil, err
	}
	if page >= total {
		return nil, fmt.Errorf("buffer: scan read past end of file %d: page %d of %d", file, page, total)
	}
	if rem := int(total - page); run > rem {
		run = rem
	}
	// Clip the run at the first already-resident page: chained reads must
	// not clobber a dirty resident copy.
	n := 1
	for n < run {
		if _, ok := s.frames[frameKey{file, page + sim.PageNo(n)}]; ok {
			break
		}
		n++
	}
	if err := s.makeRoom(p.disk, cap, n); err != nil {
		// Fall back to a single-page fetch when the pool is too full
		// of pinned frames for the whole run.
		if err2 := s.makeRoom(p.disk, cap, 1); err2 != nil {
			return nil, err2
		}
		n = 1
	}
	frs, bufs := s.run[:0], s.bufs[:0]
	for range n {
		f := s.take()
		frs, bufs = append(frs, f), append(bufs, f.buf)
	}
	s.run, s.bufs = frs, bufs
	if n == 1 {
		if err = p.disk.ReadPage(file, page, bufs[0]); err != nil {
			err = fmt.Errorf("buffer: reading page %d/%d: %w", file, page, err)
		}
	} else if err = p.disk.ReadRun(file, page, bufs); err != nil {
		err = fmt.Errorf("buffer: chained read of pages %d/[%d,%d): %w",
			file, page, page+sim.PageNo(n), err)
	}
	if err != nil {
		for _, f := range frs {
			s.release(f)
		}
		return nil, err
	}
	for i, f := range frs {
		s.install(f, file, page+sim.PageNo(i))
		if i > 0 {
			s.pushFront(f)
		}
	}
	s.pin(frs[0])
	return frs[0], nil
}

// NewPage allocates a fresh page in the file and returns its pinned,
// zeroed, dirty frame. The page is not read from disk. It makes room first,
// so a pool whose frames are all pinned fails without growing the file.
func (p *Pool) NewPage(file sim.FileID) (*Frame, error) {
	s := p.shardOf(file)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.makeRoom(p.disk, p.shardCap(), 1); err != nil {
		return nil, err
	}
	page, err := p.disk.Allocate(file)
	if err != nil {
		return nil, fmt.Errorf("buffer: allocating page in file %d: %w", file, err)
	}
	f := s.take()
	clear(f.buf)
	s.install(f, file, page)
	f.dirty.Store(true)
	s.pin(f)
	return f, nil
}

// flushFileLocked writes back the dirty resident pages of one file in one
// shard, in page order. Caller holds the shard mutex.
func (s *shard) flushFileLocked(disk *sim.Disk, file sim.FileID) error {
	return s.flushLocked(disk, func(f *Frame) bool { return f.file == file })
}

// flushLocked writes back the shard's dirty frames that match, ordered by
// (file, page). Caller holds the shard mutex.
func (s *shard) flushLocked(disk *sim.Disk, match func(*Frame) bool) error {
	var dirty []*Frame
	for _, f := range s.frames {
		if f.dirty.Load() && match(f) {
			dirty = append(dirty, f)
		}
	}
	_, err := writeBack(disk, dirty, "flushing")
	return err
}

// FlushFile writes back every dirty resident page of the file, in page
// order so the write-back is as sequential as the residency allows. Frames
// stay resident and clean. All shards are visited, so a flush is correct
// even for a file whose frames predate a placement change.
func (p *Pool) FlushFile(file sim.FileID) error {
	for _, s := range p.allShards() {
		s.mu.Lock()
		err := s.flushFileLocked(p.disk, file)
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// FlushAll writes back every dirty resident page, shard by shard, ordered
// by (file, page) within each shard.
func (p *Pool) FlushAll() error {
	for _, s := range p.allShards() {
		s.mu.Lock()
		err := s.flushLocked(p.disk, func(*Frame) bool { return true })
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// discard drops a resident, unpinned frame onto the free list without
// write-back. Caller holds the shard mutex.
func (s *shard) discard(k frameKey, f *Frame) {
	s.unlink(f)
	delete(s.frames, k)
	s.release(f)
}

// discardFile drops the file's frames from one shard without write-back.
// Pinned frames are a caller bug. Caller holds the shard mutex.
func (s *shard) discardFile(file sim.FileID, op string) {
	for k, f := range s.frames {
		if k.file != file {
			continue
		}
		if f.pins > 0 {
			panic(fmt.Sprintf("buffer: %s %d with pinned frame %d", op, file, f.page))
		}
		s.discard(k, f)
	}
}

// DropFile discards every resident frame of the file (without write-back;
// the pages are about to vanish) and drops the file on disk. Any pinned
// frame of the file is a caller bug and panics.
func (p *Pool) DropFile(file sim.FileID) error {
	for _, s := range p.allShards() {
		s.mu.Lock()
		s.discardFile(file, "DropFile")
		s.mu.Unlock()
	}
	return p.disk.DropFile(file)
}

// Invalidate discards the resident frames of the file without write-back
// and without dropping the file on disk. It is used by recovery tests to
// simulate losing volatile state.
func (p *Pool) Invalidate(file sim.FileID) {
	for _, s := range p.allShards() {
		s.mu.Lock()
		s.discardFile(file, "Invalidate")
		s.mu.Unlock()
	}
}

// InvalidateAll discards every unpinned resident frame without write-back.
func (p *Pool) InvalidateAll() {
	for _, s := range p.allShards() {
		s.mu.Lock()
		for k, f := range s.frames {
			if f.pins > 0 {
				panic(fmt.Sprintf("buffer: InvalidateAll with pinned frame %d/%d", f.file, f.page))
			}
			s.discard(k, f)
		}
		s.mu.Unlock()
	}
}

// Relocate places a file on a device, first flushing every dirty frame the
// file has resident in ANY shard — including the target shard: the move has
// to leave the on-disk image complete, or the rebalancer's copy pass (and a
// crash right after the move) would see stale pages. Frames in other shards
// are additionally discarded, so the file's next access faults into the
// correct shard. Callers place files between statements (no pins
// outstanding).
func (p *Pool) Relocate(file sim.FileID, dev int) error {
	target := p.shardFor(dev)
	for _, s := range p.allShards() {
		s.mu.Lock()
		err := s.flushFileLocked(p.disk, file)
		if err == nil && s != target {
			s.discardFile(file, "Relocate")
		}
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return p.disk.PlaceFile(file, dev)
}
