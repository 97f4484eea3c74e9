// Package cc implements the concurrency-control machinery of the paper's
// §3: coarse table locking, per-index online/offline states, side-files,
// and the index processing order.
//
// The paper's scheme: the bulk deleter takes an exclusive lock on the base
// table and switches every index offline. As soon as the table and all
// *unique* indexes are processed (and the deletion committed), the table
// lock is released and the unique indexes come back online; the remaining
// indexes stay offline while deletions are propagated to them. Updates by
// concurrent transactions reach an offline index through its side-file, one
// of the two mechanisms the paper borrows from online index construction
// (Mohan & Narang): the index accumulates the updates in a queue, and the
// bulk deleter applies the queue after processing the index, quiescing
// appends for the final batch before bringing it online. (The other, direct
// propagation, installs entries in the offline tree under page latches; the
// B-link trees here take none, so it is not offered.)
//
// Unique indexes must be processed first: while a unique index is offline
// no uniqueness check can be enforced ("trying to ensure the uniqueness
// constraint while the unique index is off-line can lead to
// inconsistencies").
package cc

import (
	"fmt"
	"sync"
	"time"

	"bulkdel/internal/record"
)

// IndexState is the availability of an index.
type IndexState int32

const (
	// Online means the index is usable as an access path and directly
	// updatable.
	Online IndexState = iota
	// Offline means the index is being bulk-processed; updates go through
	// its side-file.
	Offline
)

func (s IndexState) String() string {
	switch s {
	case Online:
		return "online"
	case Offline:
		return "offline"
	default:
		return fmt.Sprintf("IndexState(%d)", int32(s))
	}
}

// TableLock is the coarse lock the bulk deleter takes on the base table.
// The paper argues lock escalation would force this anyway: "database
// systems employing lock escalation would switch to an exclusive lock on
// the base table".
//
// It is one state machine over four modes (Mode): acquire is the only
// place a caller waits, on the one admits predicate, and release is the
// only way out. A condition variable rather than a sync.RWMutex lets the
// Manager observe contention and lets an acquisition carry a deadline.
// Like sync.RWMutex, a waiting writer blocks new readers, so bulk deletes
// cannot be starved by a stream of scans. The zero value is ready to use.
type TableLock struct {
	mu       sync.Mutex
	cond     *sync.Cond
	readers  int  // Shared holders
	writer   bool // an Exclusive or Structural holder
	writersW int  // Exclusive and Structural acquirers waiting; gives writers preference

	// MVCC snapshot readers. A bulk delete's Exclusive lock admits them
	// (visibility filtering makes that safe); only a Structural pass —
	// which rewrites physical structure and invalidates RIDs — excludes
	// them. structural marks the current writer as structural; structW
	// counts waiting structural acquirers so new snapshot readers queue
	// behind one instead of starving it.
	sreaders   int
	structural bool
	structW    int

	// Introspection state: who holds and who waits, by statement ID
	// (owner 0 = anonymous — the table's DML read paths, which don't run
	// under a statement). Maintained under mu; snapshot via info().
	writerOwner  uint64
	readerOwners map[uint64]int
	waiters      []LockWaiter
	waiterSeq    uint64
}

// LockWaiter is one blocked acquisition, in arrival order.
type LockWaiter struct {
	Owner uint64
	Mode  Mode
	// tok identifies this queue entry uniquely so a departing waiter
	// (timeout) removes exactly its own entry, never a same-owner twin's.
	tok uint64
}

// admits reports whether mode can be granted now; mu must be held.
//
// Snapshot does not wait for a plain Exclusive holder: a bulk delete and
// any number of snapshot readers coexist. It waits while a Structural pass
// holds the lock, or while one is queued and could actually acquire it (no
// plain-exclusive holder in the way): while a plain delete still holds the
// lock the structural waiter cannot get in regardless of readers, so
// holding them back then would wait out the whole delete for nothing.
func (l *TableLock) admits(mode Mode) bool {
	switch mode {
	case Shared:
		return !l.writer && l.writersW == 0
	case Exclusive:
		return !l.writer && l.readers == 0
	case Structural:
		return !l.writer && l.readers == 0 && l.sreaders == 0
	default: // Snapshot
		return !(l.writer && l.structural) && (l.writer || l.structW == 0)
	}
}

// acquire takes mode for owner, waiting until admits(mode) or the deadline
// (zero = none). It reports whether the lock was granted, whether the
// caller had to wait, the real time it waited (on the timed-out path too —
// a partial wait is still contention) and the exclusive holder observed
// when the wait began (0 = anonymous holder or readers). A waiting
// Exclusive or Structural acquirer counts in writersW, a Structural one
// also in structW, for as long as it waits; a timed-out waiter leaves the
// lock as it found it.
func (l *TableLock) acquire(owner uint64, mode Mode, deadline time.Time) (ok, blocked bool, waited time.Duration, holder uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cond == nil {
		l.cond = sync.NewCond(&l.mu)
	}
	if !l.admits(mode) {
		blocked, holder = true, l.writerOwner
		start := time.Now()
		l.waiterSeq++
		tok := l.waiterSeq
		l.waiters = append(l.waiters, LockWaiter{Owner: owner, Mode: mode, tok: tok})
		l.queue(mode, 1)
		if !deadline.IsZero() {
			// cond.Wait has no deadline; one timer broadcast bounds the wait.
			t := time.AfterFunc(time.Until(deadline), func() {
				l.mu.Lock()
				l.cond.Broadcast()
				l.mu.Unlock()
			})
			defer t.Stop()
		}
		for !l.admits(mode) && (deadline.IsZero() || time.Now().Before(deadline)) {
			l.cond.Wait()
		}
		l.queue(mode, -1)
		for i := range l.waiters {
			if l.waiters[i].tok == tok {
				l.waiters = append(l.waiters[:i], l.waiters[i+1:]...)
				break
			}
		}
		waited = time.Since(start)
		if !l.admits(mode) {
			// Timed out. A waiter that held others back (a reader behind a
			// waiting writer) may be waiting only on us; let it go.
			l.cond.Broadcast()
			return false, true, waited, holder
		}
	}
	switch mode {
	case Shared:
		l.readers++
		if l.readerOwners == nil {
			l.readerOwners = make(map[uint64]int)
		}
		l.readerOwners[owner]++
	case Snapshot:
		l.sreaders++
	default:
		l.writer, l.structural, l.writerOwner = true, mode == Structural, owner
	}
	return true, blocked, waited, holder
}

// queue counts a waiting writer in or out of the preference counters.
func (l *TableLock) queue(mode Mode, d int) {
	if mode == Exclusive || mode == Structural {
		l.writersW += d
	}
	if mode == Structural {
		l.structW += d
	}
}

// release gives back what acquire(owner, mode) granted.
func (l *TableLock) release(owner uint64, mode Mode) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch mode {
	case Shared:
		l.readers--
		if n := l.readerOwners[owner]; n <= 1 {
			delete(l.readerOwners, owner)
		} else {
			l.readerOwners[owner] = n - 1
		}
	case Snapshot:
		l.sreaders--
	default:
		l.writer, l.structural, l.writerOwner = false, false, 0
	}
	l.cond.Broadcast()
}

// Lock takes mode anonymously and without a deadline — the table's own
// read and update paths, which run under no statement — and reports
// whether it had to wait.
func (l *TableLock) Lock(mode Mode) (blocked bool) {
	_, blocked, _, _ = l.acquire(0, mode, time.Time{})
	return blocked
}

// Unlock releases an anonymous Lock.
func (l *TableLock) Unlock(mode Mode) { l.release(0, mode) }

// OpKind distinguishes side-file operations.
type OpKind uint8

const (
	// OpInsert adds an index entry.
	OpInsert OpKind = iota
	// OpDelete removes an index entry.
	OpDelete
)

func (k OpKind) String() string {
	if k == OpInsert {
		return "insert"
	}
	return "delete"
}

// Op is one deferred index maintenance operation.
type Op struct {
	Kind OpKind
	Key  []byte
	RID  record.RID
}

// SideFile queues index updates made by concurrent transactions while the
// index is offline. It is safe for concurrent use.
type SideFile struct {
	mu       sync.Mutex
	ops      []Op
	quiesced bool
}

// ErrQuiesced is returned by Append after Quiesce: the bulk deleter is
// applying the final batch and the updater must wait for the index to come
// back online (and then update it directly).
var ErrQuiesced = fmt.Errorf("cc: side-file is quiesced")

// Append queues an operation. The key is copied.
func (s *SideFile) Append(op Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.quiesced {
		return ErrQuiesced
	}
	op.Key = append([]byte(nil), op.Key...)
	s.ops = append(s.ops, op)
	return nil
}

// Len returns the number of queued operations.
func (s *SideFile) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ops)
}

// Drain removes and returns up to max queued operations (all when max <= 0).
// The bulk deleter calls Drain repeatedly while appends continue, then
// Quiesce for the final batch.
func (s *SideFile) Drain(max int) []Op {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.ops)
	if max > 0 && max < n {
		n = max
	}
	out := s.ops[:n:n]
	s.ops = append([]Op(nil), s.ops[n:]...)
	return out
}

// Quiesce blocks further appends and returns the remaining operations.
func (s *SideFile) Quiesce() []Op {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.quiesced = true
	out := s.ops
	s.ops = nil
	return out
}

// Reopen lifts the quiesce (after the index is back online).
func (s *SideFile) Reopen() {
	s.mu.Lock()
	s.quiesced = false
	s.mu.Unlock()
}

// IndexInfo describes an index for ordering decisions.
type IndexInfo struct {
	Name string
	// Unique indexes must be processed before the table lock is released.
	Unique bool
	// Priority ranks application-critical indexes (higher = earlier):
	// "indices which are critical for the performance of applications can
	// be processed first while the processing of non-critical indices can
	// be delayed".
	Priority int
}

// ProcessingOrder returns the order in which indexes should be bulk
// processed: unique indexes first (required for consistency), then by
// descending priority, ties broken by position for determinism.
func ProcessingOrder(indexes []IndexInfo) []int {
	order := make([]int, len(indexes))
	for i := range order {
		order[i] = i
	}
	// Stable selection sort keeps it dependency-free and obvious.
	less := func(a, b int) bool {
		ia, ib := indexes[a], indexes[b]
		if ia.Unique != ib.Unique {
			return ia.Unique
		}
		if ia.Priority != ib.Priority {
			return ia.Priority > ib.Priority
		}
		return a < b
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && less(order[j], order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// Gate is the one owner of an index tree (§3.1). Online, it admits readers
// and one updater at a time, never both; offline, the bulk pass owns the
// tree and updaters queue in the side-file. It is safe for concurrent use.
type Gate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	state    IndexState
	side     *SideFile
	readers  int  // readers inside the tree
	writing  bool // an updater inside the tree
	writersW int  // updaters waiting to enter; holds new readers back
}

// NewGate returns an online gate with an empty side-file.
func NewGate() *Gate {
	g := &Gate{state: Online, side: &SideFile{}}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// State returns the current availability.
func (g *Gate) State() IndexState {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.state
}

// SideFile returns the gate's side-file.
func (g *Gate) SideFile() *SideFile { return g.side }

// TakeOffline switches the index offline for bulk processing, then waits
// until every reader and updater inside the tree has left: from its return
// the caller owns the tree.
func (g *Gate) TakeOffline() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.state = Offline
	g.wait(func() bool { return g.readers == 0 && !g.writing })
}

// BringOnline switches the index back online, reopens its side-file, and
// wakes everyone waiting for it.
func (g *Gate) BringOnline() {
	g.mu.Lock()
	g.state = Online
	g.side.Reopen()
	g.cond.Broadcast()
	g.mu.Unlock()
}

// WaitOnline blocks until the index is online.
func (g *Gate) WaitOnline() {
	g.mu.Lock()
	g.wait(func() bool { return g.state == Online })
	g.mu.Unlock()
}

// TryRead enters the tree as a reader if the index is online, waiting out
// an updater's one mutation, and reports whether it did. A snapshot reader
// refused here reads the heap instead. ExitRead retires a true result.
func (g *Gate) TryRead() bool { return g.enterRead(false) }

// Read enters the tree as a reader, waiting for the index to come online.
// ExitRead retires it.
func (g *Gate) Read() { g.enterRead(true) }

func (g *Gate) enterRead(wait bool) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.wait(func() bool {
		return (g.state == Offline && !wait) || (g.state == Online && !g.writing && g.writersW == 0)
	})
	if g.state == Offline {
		return false
	}
	g.readers++
	return true
}

// ExitRead leaves the tree after TryRead or Read.
func (g *Gate) ExitRead() {
	g.mu.Lock()
	g.readers--
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Update is an updater's one index mutation. Offline, op is queued in the
// side-file — the state check and the append are one step, so an op can
// never land in a side-file BringOnline has already reopened. Otherwise
// apply runs with the gate held exclusively: online, or once the index is
// back online when the side-file is quiesced (the bulk pass is replaying
// its final batch).
func (g *Gate) Update(op Op, apply func() error) error {
	g.mu.Lock()
	if g.state == Offline {
		if err := g.side.Append(op); err != ErrQuiesced {
			g.mu.Unlock()
			return err
		}
	}
	g.writersW++
	g.wait(func() bool { return g.state == Online && !g.writing && g.readers == 0 })
	g.writersW--
	g.writing = true
	g.mu.Unlock()
	err := apply()
	g.mu.Lock()
	g.writing = false
	g.cond.Broadcast()
	g.mu.Unlock()
	return err
}

// wait blocks until ok holds; g.mu is held. It is the gate's one wait.
func (g *Gate) wait(ok func() bool) {
	for !ok() {
		g.cond.Wait()
	}
}
