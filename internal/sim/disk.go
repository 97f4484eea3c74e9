// Package sim provides a deterministic, page-granular simulated disk with an
// explicit I/O cost model and a simulated clock.
//
// The bulk-delete paper (Gärtner et al., ICDE 2001) measures its algorithms
// on a 1997-era SCSI disk (Seagate Medialist Pro, 7200 rpm) through Solaris
// direct I/O, so every algorithmic difference it reports is ultimately a
// difference in the I/O pattern: random probes versus sequential leaf-level
// passes versus chained multi-page reads, all under a small, fixed buffer
// budget. This package substitutes that hardware with a model that prices
// exactly those patterns:
//
//   - a random page access costs Seek + Rotation + Transfer,
//   - an access to the physical successor of the previously accessed page
//     costs Transfer only,
//   - a chained run of n contiguous pages costs one positioning charge
//     (Seek + Rotation) plus n Transfers,
//   - CPU work (comparisons, per-record processing) is priced with small
//     per-unit charges so in-memory work is not free.
//
// The clock is fully deterministic: the same sequence of operations always
// produces the same simulated elapsed time, which makes the paper's
// experiments reproducible to the nanosecond and testable in unit tests.
package sim

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// PageSize is the size of every disk page in bytes. The paper uses 4096-byte
// pages for both tables and indices; so do we.
const PageSize = 4096

// PageNo identifies a page within a file, starting at 0.
type PageNo uint32

// InvalidPage is a sentinel page number that never refers to a real page.
const InvalidPage = PageNo(0xFFFFFFFF)

// FileID identifies a file on the simulated disk.
type FileID uint32

// CostModel holds the per-operation charges of the simulated disk and CPU.
// All fields are durations added to the simulated clock.
type CostModel struct {
	// Seek is the average positioning (arm movement) cost paid by a jump
	// of unknown distance — an access to a different file than the
	// previous one. Jumps within the same file use the distance-dependent
	// curve below when SeekSpan is set.
	Seek time.Duration
	// SeekMin is the settle time of the shortest arm movement. When
	// SeekSpan > 0, a same-file jump of d pages costs
	//
	//	SeekMin + (SeekMax − SeekMin) · sqrt(d / SeekSpan)
	//
	// the classic square-root seek curve; a jump across 1 % of the disk
	// costs ~10 % of a full stroke, not the average seek. SeekMax is
	// derived as 2·Seek − SeekMin (so the average over random distances
	// stays Seek).
	SeekMin time.Duration
	// SeekSpan is the disk size in pages used to normalize seek
	// distances (0 disables the curve; all jumps pay Seek).
	SeekSpan PageNo
	// Rotation is the average rotational latency (half a revolution),
	// paid together with Seek.
	Rotation time.Duration
	// TransferPage is the media transfer time for one page.
	TransferPage time.Duration
	// NearDistance, when positive, enables a cheaper tier for short
	// jumps: an access within NearDistance pages of the previous one (in
	// either direction, excluding the exact successor) stays on the same
	// cylinder and pays only Rotation + TransferPage — no arm seek. This
	// matters for skip-sequential patterns such as deleting from a
	// clustered table with a sorted victim list (the paper's
	// Experiment 5) and for LRU write-back trailing a scan.
	NearDistance PageNo
	// CPUCompare is the charge for one key comparison performed by a
	// sort or search. Charged via ChargeCompares.
	CPUCompare time.Duration
	// CPURecord is the charge for processing one record or index entry
	// (copying, probing a hash table, predicate evaluation). Charged via
	// ChargeRecords.
	CPURecord time.Duration
}

// DefaultCostModel returns charges calibrated to the paper's testbed: a
// 7200 rpm disk (half rotation 4.17 ms) with an 8.5 ms average seek, and a
// 333 MHz CPU (about 2 µs of bookkeeping per record, 150 ns per comparison).
//
// TransferPage is the *effective* per-page cost of the prototype's 4 KB
// direct I/O, not the drive's nominal media rate: the paper's sort/merge
// bulk delete moves ≈225k pages in ≈25 minutes (Figure 7), i.e. ≈6.7 ms per
// page overall; with the positioning charges of this model that implies an
// effective sequential page cost of ≈4 ms (≈1 MB/s). Solaris direct I/O
// bypasses all OS caching and read-ahead, so the drive's 10 MB/s sustained
// rate was never reachable at 4 KB request size. Calibrating to the
// effective rate reproduces both the paper's absolute magnitudes and —
// because random accesses still cost ≈6× a sequential one — its
// random-versus-sequential tradeoffs.
func DefaultCostModel() CostModel {
	return CostModel{
		Seek:         8500 * time.Microsecond,
		SeekMin:      1500 * time.Microsecond,
		SeekSpan:     1 << 20, // 4 GB disk, in 4 KB pages
		Rotation:     4170 * time.Microsecond,
		TransferPage: 4000 * time.Microsecond,
		NearDistance: 128, // 512 KB ≈ a couple of tracks
		CPUCompare:   150 * time.Nanosecond,
		CPURecord:    2 * time.Microsecond,
	}
}

// Stats counts the physical operations performed by the disk since creation
// (or the last ResetStats).
type Stats struct {
	Reads       uint64 // pages read
	Writes      uint64 // pages written
	RandomOps   uint64 // operations that paid the full positioning charge
	NearOps     uint64 // short jumps that paid rotation only (same cylinder)
	SeqOps      uint64 // operations that paid transfer only
	ChainedRuns uint64 // multi-page runs issued via ReadRun/WriteRun
	Allocated   uint64 // pages allocated across all files
	Compares    uint64 // comparisons charged
	Records     uint64 // records charged

	// Fault-injection counters (see fault.go). Faulted operations are not
	// counted as Reads/Writes — the transfer never happened.
	FaultsInjected uint64 // injected errors returned, crash trip included
	Crashes        uint64 // crash faults tripped (once per installed plan)
}

type file struct {
	pages   [][]byte // nil: allocated, never written (reads as zeros)
	dropped bool
}

// read copies page p into buf.
func (f *file) read(p PageNo, buf []byte) {
	if f.pages[p] == nil {
		clear(buf)
		return
	}
	copy(buf, f.pages[p])
}

// platter returns page p's stored bytes for a write, making them on the
// page's first write.
func (f *file) platter(p PageNo) []byte {
	if f.pages[p] == nil {
		f.pages[p] = make([]byte, PageSize)
	}
	return f.pages[p]
}

// Disk is a simulated disk array: a set of files made of fixed-size pages
// spread over one or more devices (spindles), plus the simulated clock. All
// methods are safe for concurrent use; each device keeps its own arm
// position and busy time, while the global clock accumulates every charge
// (it is the *sum* of device time — with a single device, exactly the
// elapsed time; with several, the serial-equivalent work. Wall-clock
// makespan of a parallel schedule is computed by internal/core from
// per-device busy deltas).
type Disk struct {
	mu       sync.Mutex
	cm       CostModel
	files    map[FileID]*file
	nextFile FileID
	clock    time.Duration
	devs     []*device
	fileDev  map[FileID]int
	stats    Stats

	// Fault injection (see fault.go). ioSeq numbers every attempted page
	// I/O; readSeq/writeSeq number them per class.
	fault    *FaultPlan
	ioSeq    uint64
	readSeq  uint64
	writeSeq uint64
}

// NewDisk creates an empty simulated disk with the given cost model and a
// single device.
func NewDisk(cm CostModel) *Disk {
	return &Disk{
		cm:      cm,
		files:   make(map[FileID]*file),
		devs:    []*device{{}},
		fileDev: make(map[FileID]int),
	}
}

// CreateFile adds a new empty file on device 0 and returns its ID.
func (d *Disk) CreateFile() FileID {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.nextFile
	d.nextFile++
	d.files[id] = &file{}
	return id
}

// DropFile releases a file and all its pages. Dropping a file is a metadata
// operation and costs no simulated time, mirroring the cheap "discard a
// whole partition / drop an index" operations the paper discusses.
func (d *Disk) DropFile(id FileID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, err := d.fileLocked(id)
	if err != nil {
		return err
	}
	f.pages = nil
	f.dropped = true
	return nil
}

// TruncateFile releases every page of the file past the first keep pages.
// Like DropFile, deallocation is a metadata operation: it costs no simulated
// time. Range-partitioned bulk deletes use it to drop a whole partition's
// data pages without scanning them.
func (d *Disk) TruncateFile(id FileID, keep PageNo) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, err := d.fileLocked(id)
	if err != nil {
		return err
	}
	if int(keep) < len(f.pages) {
		f.pages = f.pages[:keep]
	}
	return nil
}

func (d *Disk) fileLocked(id FileID) (*file, error) {
	f, ok := d.files[id]
	if !ok || f.dropped {
		return nil, fmt.Errorf("sim: file %d does not exist", id)
	}
	return f, nil
}

// Allocate appends a zeroed page to the file and returns its page number.
// Allocation itself is free; the first write to the page pays I/O cost.
// The page takes no memory until that write.
func (d *Disk) Allocate(id FileID) (PageNo, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, err := d.fileLocked(id)
	if err != nil {
		return 0, err
	}
	if len(f.pages) >= int(InvalidPage) {
		return 0, fmt.Errorf("sim: file %d is full", id)
	}
	f.pages = append(f.pages, nil)
	d.stats.Allocated++
	return PageNo(len(f.pages) - 1), nil
}

// NumPages reports how many pages the file currently holds.
func (d *Disk) NumPages(id FileID) (PageNo, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, err := d.fileLocked(id)
	if err != nil {
		return 0, err
	}
	return PageNo(len(f.pages)), nil
}

// positionLocked charges the head-positioning cost for an access to (id, p)
// on the file's device, records the device's new head position, and returns
// the device so the caller can charge transfers to it. Caller holds d.mu.
func (d *Disk) positionLocked(id FileID, p PageNo) *device {
	dev := d.devs[d.fileDev[id]]
	charge, kind := d.cm.Seek+d.cm.Rotation, randomJump
	if dev.hasLast && dev.lastFile == id {
		charge, kind = d.cm.jump(dev.lastPage, p)
	}
	switch kind {
	case seqJump:
		dev.stats.SeqOps++
		d.stats.SeqOps++
	case nearJump:
		dev.stats.NearOps++
		d.stats.NearOps++
	default:
		dev.stats.RandomOps++
		d.stats.RandomOps++
	}
	d.clock += charge
	dev.busy += charge
	dev.lastFile, dev.lastPage, dev.hasLast = id, p, true
	return dev
}

// jumpKind is the tier of a head movement, as Stats counts it.
type jumpKind int

const (
	seqJump jumpKind = iota
	nearJump
	randomJump
)

// jump prices an access to page to of a file right after one to page from
// of the same file. The successor pays transfer only. A short jump on the
// same cylinder pays no arm seek: a short forward skip waits only for the
// sectors to pass under the head while a short backward skip waits almost
// a full revolution — half a rotation on average. A longer jump pays a
// seek on the square-root curve (the average Seek without one) plus the
// rotation.
func (cm CostModel) jump(from, to PageNo) (time.Duration, jumpKind) {
	dist := absDist(from, to)
	switch {
	case to == from+1:
		return 0, seqJump
	case cm.NearDistance > 0 && dist <= cm.NearDistance:
		return cm.Rotation / 2, nearJump
	case cm.SeekSpan > 0:
		return cm.seekFor(dist) + cm.Rotation, randomJump
	}
	return cm.Seek + cm.Rotation, randomJump
}

// Skip is the positioning charge for an access gap pages past the previous
// one in the same file, as the disk makes it — what a planner prices a
// forward skip at.
func (cm CostModel) Skip(gap PageNo) time.Duration {
	charge, _ := cm.jump(0, gap)
	return charge
}

// Position is the positioning charge for an access to page to of a file
// right after one to page from of the same file, as the disk makes it, and
// whether it pays a seek (a RandomOp in Stats).
func (cm CostModel) Position(from, to PageNo) (time.Duration, bool) {
	charge, kind := cm.jump(from, to)
	return charge, kind == randomJump
}

// seekFor prices an arm movement of dist pages with the square-root curve:
// SeekMin + (SeekMax − SeekMin)·sqrt(dist/SeekSpan), with SeekMax chosen as
// 2·Seek − SeekMin so the configured Seek remains the average over random
// distances (E[sqrt(U)] = 2/3 ≈ the random-jump expectation with locality).
func (cm CostModel) seekFor(dist PageNo) time.Duration {
	if dist > cm.SeekSpan {
		dist = cm.SeekSpan
	}
	seekMax := 2*cm.Seek - cm.SeekMin
	if seekMax < cm.SeekMin {
		seekMax = cm.SeekMin
	}
	frac := math.Sqrt(float64(dist) / float64(cm.SeekSpan))
	return cm.SeekMin + time.Duration(float64(seekMax-cm.SeekMin)*frac)
}

func absDist(a, b PageNo) PageNo {
	if a > b {
		return a - b
	}
	return b - a
}

// ReadPage copies page p of the file into buf, which must be PageSize long.
func (d *Disk) ReadPage(id FileID, p PageNo, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("sim: read buffer must be %d bytes, got %d", PageSize, len(buf))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	f, err := d.fileLocked(id)
	if err != nil {
		return err
	}
	if int(p) >= len(f.pages) {
		return fmt.Errorf("sim: read past end of file %d: page %d of %d", id, p, len(f.pages))
	}
	if err := d.faultLocked(opRead, id, p, nil, nil); err != nil {
		return err
	}
	dev := d.positionLocked(id, p)
	d.clock += d.cm.TransferPage
	dev.busy += d.cm.TransferPage
	dev.stats.Reads++
	d.stats.Reads++
	f.read(p, buf)
	return nil
}

// WritePage stores data (PageSize bytes) as page p of the file.
func (d *Disk) WritePage(id FileID, p PageNo, data []byte) error {
	if len(data) != PageSize {
		return fmt.Errorf("sim: write buffer must be %d bytes, got %d", PageSize, len(data))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	f, err := d.fileLocked(id)
	if err != nil {
		return err
	}
	if int(p) >= len(f.pages) {
		return fmt.Errorf("sim: write past end of file %d: page %d of %d", id, p, len(f.pages))
	}
	dst := f.platter(p)
	if err := d.faultLocked(opWrite, id, p, data, dst); err != nil {
		return err
	}
	dev := d.positionLocked(id, p)
	d.clock += d.cm.TransferPage
	dev.busy += d.cm.TransferPage
	dev.stats.Writes++
	d.stats.Writes++
	copy(dst, data)
	return nil
}

// ReadRun reads len(bufs) consecutive pages starting at p with a single
// positioning charge (chained I/O). Each buffer must be PageSize long.
func (d *Disk) ReadRun(id FileID, p PageNo, bufs [][]byte) error {
	if len(bufs) == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	f, err := d.fileLocked(id)
	if err != nil {
		return err
	}
	if int(p)+len(bufs) > len(f.pages) {
		return fmt.Errorf("sim: chained read past end of file %d: pages [%d,%d) of %d",
			id, p, int(p)+len(bufs), len(f.pages))
	}
	dev := d.positionLocked(id, p)
	dev.stats.ChainedRuns++
	d.stats.ChainedRuns++
	for i, buf := range bufs {
		if len(buf) != PageSize {
			return fmt.Errorf("sim: read buffer %d must be %d bytes, got %d", i, PageSize, len(buf))
		}
		// Each page of the run occupies its own I/O ordinal, so a crash
		// can land mid-run; earlier pages of the run were transferred.
		if err := d.faultLocked(opRead, id, p+PageNo(i), nil, nil); err != nil {
			return err
		}
		d.clock += d.cm.TransferPage
		dev.busy += d.cm.TransferPage
		dev.stats.Reads++
		d.stats.Reads++
		f.read(p+PageNo(i), buf)
	}
	dev.lastPage = p + PageNo(len(bufs)) - 1
	return nil
}

// WriteRun writes len(data) consecutive pages starting at p with a single
// positioning charge (chained I/O).
func (d *Disk) WriteRun(id FileID, p PageNo, data [][]byte) error {
	if len(data) == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	f, err := d.fileLocked(id)
	if err != nil {
		return err
	}
	if int(p)+len(data) > len(f.pages) {
		return fmt.Errorf("sim: chained write past end of file %d: pages [%d,%d) of %d",
			id, p, int(p)+len(data), len(f.pages))
	}
	dev := d.positionLocked(id, p)
	dev.stats.ChainedRuns++
	d.stats.ChainedRuns++
	for i, buf := range data {
		if len(buf) != PageSize {
			return fmt.Errorf("sim: write buffer %d must be %d bytes, got %d", i, PageSize, len(buf))
		}
		// Pages before the crash point persisted; the crashing page may
		// persist a torn prefix (see faultLocked); later pages are lost.
		dst := f.platter(p + PageNo(i))
		if err := d.faultLocked(opWrite, id, p+PageNo(i), buf, dst); err != nil {
			return err
		}
		d.clock += d.cm.TransferPage
		dev.busy += d.cm.TransferPage
		dev.stats.Writes++
		d.stats.Writes++
		copy(dst, buf)
	}
	dev.lastPage = p + PageNo(len(data)) - 1
	return nil
}

// ChargeCompares adds n key-comparison CPU charges to the clock.
func (d *Disk) ChargeCompares(n int) {
	if n <= 0 {
		return
	}
	d.mu.Lock()
	d.clock += time.Duration(n) * d.cm.CPUCompare
	d.stats.Compares += uint64(n)
	d.mu.Unlock()
}

// ChargeRecords adds n per-record CPU charges to the clock.
func (d *Disk) ChargeRecords(n int) {
	if n <= 0 {
		return
	}
	d.mu.Lock()
	d.clock += time.Duration(n) * d.cm.CPURecord
	d.stats.Records += uint64(n)
	d.mu.Unlock()
}

// Clock returns the simulated elapsed time.
func (d *Disk) Clock() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.clock
}

// Stats returns a snapshot of the operation counters.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the operation counters, global and per-device (the
// clock and per-device busy times keep running).
func (d *Disk) ResetStats() {
	d.mu.Lock()
	d.stats = Stats{}
	for _, dev := range d.devs {
		dev.stats = Stats{}
	}
	d.mu.Unlock()
}

// CostModelInUse returns the disk's cost model.
func (d *Disk) CostModelInUse() CostModel { return d.cm }
