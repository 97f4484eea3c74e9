// Package wal implements the write-ahead log that makes bulk deletes
// restartable.
//
// The paper's recovery scheme (§3.2) is unusual and is reproduced here
// faithfully: a bulk delete that was interrupted by a crash is *finished
// during recovery* — rolled forward — "instead of rolling it back as done
// during traditional recovery". To support that, the bulk deleter
//
//   - materializes its victim list to stable storage before touching any
//     structure ("the results of the join variants ... should be
//     materialized to stable storage"),
//   - writes a checkpoint record whenever it finishes a structure (table
//     or index) and periodically within one ("a checkpoint could be
//     established at any time ... additionally the last processed RID or
//     key-value can be stored in the log"), and
//   - relies on the clustered order of the victim list: because both the
//     victim list and the structures are processed in physical order, "the
//     already processed values can easily be recognized" and re-applying a
//     prefix is idempotent.
//
// The log itself is a byte stream packed into pages of a dedicated file on
// the simulated disk; appends are buffered and Flush forces full pages out
// sequentially. Recovery reads back only what was flushed — exactly what a
// crash would leave behind. Once nothing in the log is live any more, the
// owner restarts it in place (Restart): the file is truncated to zero pages
// and the next record opens a new generation at offset 0.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"bulkdel/internal/sim"
)

// LSN is a log sequence number: the byte offset of a record in the log.
type LSN uint64

// Type identifies a log record kind.
type Type uint8

// Log record types. The A/B fields of Record carry type-specific values.
const (
	// TBegin marks the start of a transaction.
	TBegin Type = iota + 1
	// TCommit marks a committed transaction.
	TCommit
	// TAbort marks an aborted transaction.
	TAbort
	// TBulkStart marks the start of a bulk delete: A = table file,
	// B = victim-list file (already materialized and sorted).
	TBulkStart
	// TStructStart marks the start of processing one structure:
	// A = structure file, B = kind (0 heap, 1 index).
	TStructStart
	// TCheckpoint records progress inside a structure: A = structure
	// file, B = number of victim rows already applied to it. All dirty
	// pages with smaller LSNs are flushed before the record is written.
	TCheckpoint
	// TStructDone marks a structure as fully processed: A = structure file.
	TStructDone
	// TBulkEnd marks the bulk delete as complete.
	TBulkEnd
	// TMaterialized records that an intermediate victim list (a join
	// result in the paper's terms) has been written to stable storage:
	// A = the structure it feeds (0 for the global RID list), B = the
	// row file holding it. Recovery reads these lists instead of
	// re-deriving them from (already modified) structures.
	TMaterialized
	// TNote is a free-form marker used by tests and tools.
	TNote
	// TMoveStart marks the start of a file migration by the rebalancer:
	// A = file being moved, B = destination device. The source copy stays
	// intact (and the catalog keeps naming it) until TMoveDone is logged,
	// so a crash between the two recovers by redoing the move.
	TMoveStart
	// TMoveDone marks the migration of A as complete on device B.
	TMoveDone
	// TLSMPut logs a put into an LSM table's memtable: A = key, B = seq,
	// payload = [1B name length][table name][record minus its key field].
	// Replayed into the memtable when seq is newer than the manifest's
	// flushed horizon.
	TLSMPut
	// TLSMDel logs a point delete on an LSM table: A = key, B = seq,
	// payload = [1B name length][table name].
	TLSMDel
	// TLSMRangeDel logs a range delete on an LSM table: A = lo key,
	// B = hi key, payload = [1B name length][table name][8B seq].
	TLSMRangeDel
)

func (t Type) String() string {
	switch t {
	case TBegin:
		return "begin"
	case TCommit:
		return "commit"
	case TAbort:
		return "abort"
	case TBulkStart:
		return "bulk-start"
	case TStructStart:
		return "struct-start"
	case TCheckpoint:
		return "checkpoint"
	case TStructDone:
		return "struct-done"
	case TBulkEnd:
		return "bulk-end"
	case TMaterialized:
		return "materialized"
	case TNote:
		return "note"
	case TMoveStart:
		return "move-start"
	case TMoveDone:
		return "move-done"
	case TLSMPut:
		return "lsm-put"
	case TLSMDel:
		return "lsm-del"
	case TLSMRangeDel:
		return "lsm-range-del"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Record is one log entry.
type Record struct {
	LSN     LSN
	Type    Type
	Gen     uint32 // log generation that wrote the record
	TxID    uint64
	A, B    uint64
	Payload []byte
}

// record wire format:
//
//	[1B type][4B gen][8B txID][8B A][8B B][2B payload len][4B crc][payload]
//
// gen is the log generation: it starts at 1 and is bumped every time the
// log is reopened after a crash or restarted in place, so a torn tail
// overwritten by a new generation can never resurrect records of an old
// one — generations are nondecreasing along the stream and the recovery
// scan stops when they go backwards. crc is CRC-32C over the header (crc field zeroed) and the
// payload; it rejects torn records whether the tear landed inside the
// header, inside the payload, or left a misaligned remnant of an earlier
// flush image of the same page.
const recHeaderSize = 1 + 4 + 8 + 8 + 8 + 2 + 4

const crcOff = recHeaderSize - 4

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// recCRC computes the checksum of an encoded record: the header with its
// crc field zeroed, followed by the payload.
func recCRC(hdr []byte, payload []byte) uint32 {
	c := crc32.Update(0, crcTable, hdr[:crcOff])
	c = crc32.Update(c, crcTable, []byte{0, 0, 0, 0})
	return crc32.Update(c, crcTable, payload)
}

// Log is an append-only write-ahead log. It is safe for concurrent use: a
// single mutex orders appends, so records from concurrent bulk-delete
// passes are funneled through one serialized appender and the stream stays
// a valid totally-ordered log (the relative order of records from
// *different* structures is scheduling-dependent, but each structure's own
// start → checkpoint → done sequence is program-ordered by its goroutine,
// which is all the §3.2 roll-forward protocol needs).
type Log struct {
	mu    sync.Mutex
	disk  *sim.Disk
	file  sim.FileID
	gen   uint32 // generation stamped on appended records
	buf   []byte // unflushed bytes (tail of the stream)
	off   uint64 // stream offset of buf[0]
	pages sim.PageNo
	// open holds the records that keep the log live whatever the rest of
	// the engine has made durable: a bulk delete's bulk-start until its
	// bulk-end, and a file move's move-start until its move-done.
	open map[opener]bool

	// Appender-queue counters, maintained under mu (see QueueStats).
	appends      uint64
	appendBytes  uint64
	flushes      uint64
	flushPages   uint64
	flushBytes   uint64
	queuePeak    int
	appendWaitNS int64 // real time blocked on the appender mutex
	restarts     uint64

	// OnAppend/OnFlush, when set, observe the appender queue: OnAppend
	// fires after every accepted record with the record size, the queued
	// (unflushed) bytes after the append, and the *real* time the caller
	// spent blocked on the appender mutex; OnFlush fires after every flush
	// that wrote pages. Set them once right after Create/Open, before
	// statements run; they are read without synchronization afterwards and
	// invoked outside the appender mutex.
	OnAppend func(bytes, queued int, waited time.Duration)
	OnFlush  func(bytes, pages int)
}

// QueueStats is a snapshot of the appender-queue counters: cumulative
// appends/flushes, bytes and pages moved, the current and peak unflushed
// queue depth in bytes, in-place restarts, and total real time spent
// blocked on the appender mutex. The counters never rewind, restarts
// included, so FlushBytes is what statements meter as durable WAL bytes.
// The wait figure is wall-clock (the appender serializes concurrent
// statements), so it is the one nondeterministic field.
type QueueStats struct {
	Appends      uint64
	AppendBytes  uint64
	Flushes      uint64
	FlushPages   uint64
	FlushBytes   uint64
	Queued       int
	QueuePeak    int
	Restarts     uint64
	AppendWaitNS int64
}

// QueueStats returns the appender-queue counters.
func (l *Log) QueueStats() QueueStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return QueueStats{
		Appends:      l.appends,
		AppendBytes:  l.appendBytes,
		Flushes:      l.flushes,
		FlushPages:   l.flushPages,
		FlushBytes:   l.flushBytes,
		Queued:       len(l.buf),
		QueuePeak:    l.queuePeak,
		Restarts:     l.restarts,
		AppendWaitNS: l.appendWaitNS,
	}
}

// Create makes a fresh, empty log on its own file.
func Create(disk *sim.Disk) *Log {
	return &Log{disk: disk, file: disk.CreateFile(), gen: 1}
}

// opener names a record that keeps the log live until its closing record:
// the record type that opened it and the transaction (bulk delete) or file
// (move) it is about.
type opener struct {
	t  Type
	id uint64
}

// note tracks the records that open and close a live span; mu held (or the
// Log not yet shared).
func (l *Log) note(t Type, txID, a uint64) {
	if l.open == nil {
		l.open = make(map[opener]bool)
	}
	switch t {
	case TBulkStart:
		l.open[opener{TBulkStart, txID}] = true
	case TBulkEnd:
		delete(l.open, opener{TBulkStart, txID})
	case TMoveStart:
		l.open[opener{TMoveStart, a}] = true
	case TMoveDone:
		delete(l.open, opener{TMoveStart, a})
	}
}

// FileID returns the log's file.
func (l *Log) FileID() sim.FileID { return l.file }

// Generation returns the generation stamped on records this Log appends.
func (l *Log) Generation() uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gen
}

// Append adds a record and returns its LSN. The record is durable only
// after the next Flush.
func (l *Log) Append(t Type, txID, a, b uint64, payload []byte) (LSN, error) {
	if len(payload) > 0xFFFF {
		return 0, fmt.Errorf("wal: payload %d bytes exceeds limit", len(payload))
	}
	t0 := time.Now()
	l.mu.Lock()
	waited := time.Since(t0)
	lsn := LSN(l.off + uint64(len(l.buf)))
	var hdr [recHeaderSize]byte
	hdr[0] = byte(t)
	binary.LittleEndian.PutUint32(hdr[1:], l.gen)
	binary.LittleEndian.PutUint64(hdr[5:], txID)
	binary.LittleEndian.PutUint64(hdr[13:], a)
	binary.LittleEndian.PutUint64(hdr[21:], b)
	binary.LittleEndian.PutUint16(hdr[29:], uint16(len(payload)))
	binary.LittleEndian.PutUint32(hdr[crcOff:], recCRC(hdr[:], payload))
	l.buf = append(l.buf, hdr[:]...)
	l.buf = append(l.buf, payload...)
	l.note(t, txID, a)
	rec := recHeaderSize + len(payload)
	queued := len(l.buf)
	l.appends++
	l.appendBytes += uint64(rec)
	l.appendWaitNS += waited.Nanoseconds()
	if queued > l.queuePeak {
		l.queuePeak = queued
	}
	hook := l.OnAppend
	l.mu.Unlock()
	if hook != nil {
		hook(rec, queued, waited)
	}
	return lsn, nil
}

// Flush forces every appended record to disk.
func (l *Log) Flush() error {
	l.mu.Lock()
	flushed, pages, err := l.flushLocked()
	hook := l.OnFlush
	l.mu.Unlock()
	if err == nil && pages > 0 && hook != nil {
		hook(flushed, pages)
	}
	return err
}

// flushLocked does the write with mu held, returning the record bytes made
// durable and the pages written.
func (l *Log) flushLocked() (flushedBytes, pagesWritten int, err error) {
	if len(l.buf) == 0 {
		return 0, 0, nil
	}
	// Write out whole pages covering the buffered stream tail. The first
	// buffered byte may sit mid-page: that page is rewritten.
	startPage := sim.PageNo(l.off / sim.PageSize)
	endOff := l.off + uint64(len(l.buf))
	endPage := sim.PageNo((endOff + sim.PageSize - 1) / sim.PageSize)
	for l.pages < endPage {
		if _, err := l.disk.Allocate(l.file); err != nil {
			return 0, 0, err
		}
		l.pages++
	}
	// Assemble page images. The partial first page keeps its stream
	// prefix — but we only ever rewrite the page that contains l.off,
	// whose prefix bytes were already flushed; read them back.
	var pages [][]byte
	inPageOff := int(l.off % sim.PageSize)
	first := make([]byte, sim.PageSize)
	if inPageOff > 0 {
		if err := l.disk.ReadPage(l.file, startPage, first); err != nil {
			return 0, 0, err
		}
		// Zero everything past the flushed prefix so the rewritten page
		// never carries stale bytes of an earlier flush image beyond the
		// new content — those could otherwise parse as records after the
		// next crash.
		for i := inPageOff; i < sim.PageSize; i++ {
			first[i] = 0
		}
	}
	src := l.buf
	copy(first[inPageOff:], src)
	consumed := sim.PageSize - inPageOff
	if consumed > len(src) {
		consumed = len(src)
	}
	src = src[consumed:]
	pages = append(pages, first)
	for len(src) > 0 {
		pg := make([]byte, sim.PageSize)
		n := copy(pg, src)
		src = src[n:]
		pages = append(pages, pg)
	}
	if err := l.disk.WriteRun(l.file, startPage, pages); err != nil {
		return 0, 0, err
	}
	flushedBytes = len(l.buf)
	pagesWritten = len(pages)
	l.off = endOff
	l.buf = l.buf[:0]
	l.flushes++
	l.flushPages += uint64(pagesWritten)
	l.flushBytes += uint64(flushedBytes)
	return flushedBytes, pagesWritten, nil
}

// Restart empties the log in place when nothing in it is live: no bulk
// delete or file move it holds is still open, and dead — called under the
// appender mutex, so no record can slip in between the check and the
// truncation — reports that the caller has made every other record's effect
// durable elsewhere. The file is truncated to zero pages, buffered records
// are discarded unwritten, and the generation is bumped, so the next record
// starts a new stream at offset 0 (QueueStats counts the restarts). An
// empty log is left alone.
func (l *Log) Restart(dead func() bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.open) > 0 || (l.off == 0 && len(l.buf) == 0) || !dead() {
		return nil
	}
	if err := l.disk.TruncateFile(l.file, 0); err != nil {
		return err
	}
	l.gen++
	l.buf, l.off, l.pages = l.buf[:0], 0, 0
	l.restarts++
	return nil
}

// readStream reads every page of a log file into one byte stream.
func readStream(disk *sim.Disk, file sim.FileID, n sim.PageNo) ([]byte, error) {
	stream := make([]byte, 0, int(n)*sim.PageSize)
	buf := make([]byte, sim.PageSize)
	for p := sim.PageNo(0); p < n; p++ {
		if err := disk.ReadPage(file, p, buf); err != nil {
			return nil, err
		}
		stream = append(stream, buf...)
	}
	return stream, nil
}

// parseStream walks a log byte stream and returns the valid record prefix,
// the offset of the first byte past it, and the highest generation seen —
// the shared scan of Open (recovery) and DurableRecords (online abort).
func parseStream(stream []byte) (recs []Record, off uint64, maxGen uint32) {
	for {
		if int(off)+recHeaderSize > len(stream) {
			break
		}
		t := Type(stream[off])
		if t == 0 || t > TLSMRangeDel {
			break // end of valid records (zero fill or torn tail)
		}
		gen := binary.LittleEndian.Uint32(stream[off+1:])
		if gen == 0 || gen < maxGen {
			// Generations are nondecreasing along the stream; a smaller
			// one is a stale remnant of a previous log generation that a
			// later, shorter tail happened not to overwrite. Do not
			// resurrect it.
			break
		}
		txID := binary.LittleEndian.Uint64(stream[off+5:])
		a := binary.LittleEndian.Uint64(stream[off+13:])
		b := binary.LittleEndian.Uint64(stream[off+21:])
		plen := int(binary.LittleEndian.Uint16(stream[off+29:]))
		if int(off)+recHeaderSize+plen > len(stream) {
			break // torn record
		}
		hdr := stream[off : off+recHeaderSize]
		payload := stream[off+recHeaderSize : off+recHeaderSize+uint64(plen)]
		if binary.LittleEndian.Uint32(hdr[crcOff:]) != recCRC(hdr, payload) {
			break // torn or corrupt record (tear in header or payload)
		}
		recs = append(recs, Record{
			LSN:     LSN(off),
			Type:    t,
			Gen:     gen,
			TxID:    txID,
			A:       a,
			B:       b,
			Payload: append([]byte(nil), payload...),
		})
		maxGen = gen
		off += recHeaderSize + uint64(plen)
	}
	return recs, off, maxGen
}

// Open attaches to an existing log file and returns every durable record —
// the recovery scan. The returned Log appends after the recovered tail.
func Open(disk *sim.Disk, file sim.FileID) (*Log, []Record, error) {
	n, err := disk.NumPages(file)
	if err != nil {
		return nil, nil, err
	}
	stream, err := readStream(disk, file, n)
	if err != nil {
		return nil, nil, err
	}
	recs, off, maxGen := parseStream(stream)
	// The new incarnation writes a strictly larger generation, so records
	// it appends over a torn tail can never be confused with what the old
	// incarnation left behind.
	l := &Log{disk: disk, file: file, gen: maxGen + 1, off: off, pages: n}
	for _, r := range recs {
		l.note(r.Type, r.TxID, r.A)
	}
	return l, recs, nil
}

// DurableRecords flushes buffered appends and re-reads the log's own file,
// returning every durable record — the recovery scan run online, for the
// abort-to-consistency replay of a cancelled statement. Unlike Open it
// neither mints a new Log nor bumps the generation: the caller keeps
// appending to this one, and replay records continue the same stream.
func (l *Log) DurableRecords() ([]Record, error) {
	if err := l.Flush(); err != nil {
		return nil, err
	}
	l.mu.Lock()
	disk, file, n := l.disk, l.file, l.pages
	l.mu.Unlock()
	stream, err := readStream(disk, file, n)
	if err != nil {
		return nil, err
	}
	recs, _, _ := parseStream(stream)
	return recs, nil
}

// BulkState summarizes the recovery-relevant state of one interrupted bulk
// delete, distilled from the log by AnalyzeBulk.
type BulkState struct {
	TxID       uint64
	Table      uint64 // table heap file
	VictimFile uint64 // materialized victim list
	// Done lists structures fully processed (TStructDone seen).
	Done map[uint64]bool
	// Active maps every structure with a TStructStart but no TStructDone
	// to its latest checkpointed victim-row count. A serial statement has
	// at most one active structure; a parallel one may have been
	// interrupted with several index passes mid-flight.
	Active map[uint64]uint64
	// Finished reports whether TBulkEnd was reached (nothing to redo).
	Finished bool
	// Materialized maps a structure file to the row file holding its
	// victim list (key 0 = the global sorted RID list).
	Materialized map[uint64]uint64
}

// ProgressOf returns the checkpointed progress of a structure that was
// in-flight at the crash, and whether it was in-flight at all.
func (st *BulkState) ProgressOf(file uint64) (uint64, bool) {
	if st.Active == nil {
		return 0, false
	}
	p, ok := st.Active[file]
	return p, ok
}

// ClearActive forgets a structure's in-flight state — recovery uses it
// when the structure was rebuilt from scratch, so checkpointed progress
// into the damaged incarnation must not be skipped.
func (st *BulkState) ClearActive(file uint64) {
	delete(st.Active, file)
}

// AnalyzeBulk scans recovered records and returns the state of the most
// recent bulk delete, or ok=false when the log holds none. It is the
// single-statement view of AnalyzeBulks, kept for callers that only care
// about the last statement.
func AnalyzeBulk(recs []Record) (BulkState, bool) {
	sts := AnalyzeBulks(recs)
	if len(sts) == 0 {
		return BulkState{}, false
	}
	return sts[len(sts)-1], true
}

// AnalyzeBulks scans recovered records and returns the state of every bulk
// delete in the log, in TBulkStart order. Concurrent statements interleave
// their records through the shared ordered appender, so each record is
// routed to its statement by TxID; a crash can leave several statements
// unfinished at once, and recovery must roll each of them forward.
func AnalyzeBulks(recs []Record) []BulkState {
	byTx := make(map[uint64]*BulkState)
	var order []uint64
	for _, r := range recs {
		if r.Type == TBulkStart {
			if _, ok := byTx[r.TxID]; !ok {
				order = append(order, r.TxID)
			}
			byTx[r.TxID] = &BulkState{
				TxID:         r.TxID,
				Table:        r.A,
				VictimFile:   r.B,
				Done:         make(map[uint64]bool),
				Active:       make(map[uint64]uint64),
				Materialized: make(map[uint64]uint64),
			}
			continue
		}
		st, ok := byTx[r.TxID]
		if !ok {
			continue
		}
		switch r.Type {
		case TMaterialized:
			st.Materialized[r.A] = r.B
		case TStructStart:
			st.Active[r.A] = 0
		case TCheckpoint:
			if _, ok := st.Active[r.A]; ok {
				st.Active[r.A] = r.B
			}
		case TStructDone:
			st.Done[r.A] = true
			delete(st.Active, r.A)
		case TBulkEnd:
			st.Finished = true
		}
	}
	out := make([]BulkState, 0, len(order))
	for _, tx := range order {
		out = append(out, *byTx[tx])
	}
	return out
}

// CountCommits returns the number of TCommit records among recovered
// records. Recovery fast-forwards the MVCC epoch clock by it: epochs are
// volatile (no durable structure stores one), but the clock must never
// rewind across a restart or a new delete could commit at an epoch an
// earlier incarnation already handed to snapshots. The catalog's persisted
// epoch plus the commit count of the log written since is a safe upper
// bound on the epochs ever given out.
func CountCommits(recs []Record) uint64 {
	var n uint64
	for _, r := range recs {
		if r.Type == TCommit {
			n++
		}
	}
	return n
}

// Move is one file migration distilled from the log: file A headed to
// device To, with Done reporting whether TMoveDone made it out.
type Move struct {
	TxID uint64
	File uint64
	To   uint64
	Done bool
}

// AnalyzeMoves scans recovered records and returns every file migration in
// the log, in TMoveStart order. Recovery redoes the unfinished ones: the
// move protocol flushes the file before TMoveStart and never frees the
// source until TMoveDone, so redoing a move is idempotent.
func AnalyzeMoves(recs []Record) []Move {
	var out []Move
	for _, r := range recs {
		switch r.Type {
		case TMoveStart:
			out = append(out, Move{TxID: r.TxID, File: r.A, To: r.B})
		case TMoveDone:
			for i := len(out) - 1; i >= 0; i-- {
				if out[i].File == r.A && !out[i].Done {
					out[i].Done = true
					break
				}
			}
		}
	}
	return out
}
