// DB-level lock manager: one TableLock per table, acquired in a global
// deterministic order so concurrent statements cannot deadlock.
//
// The paper's §3 protocol is per-statement (exclusive table lock, offline
// indexes, side-files); nothing in it prevents two statements from locking
// overlapping FK footprints in opposite orders. The classical fix applies:
// every statement computes its full lock footprint up front — the target
// table plus every table its cascades can reach, plus the RESTRICT
// children it must probe — and acquires the locks sorted by table name.
// Two statements then always collide on the *first* table their footprints
// share, so the wait-for graph is acyclic.
package cc

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// ErrLockTimeout is returned (wrapped) by Manager.Acquire when the
// footprint could not be acquired within its deadline. The failing statement
// is the protocol's timeout victim: ordered acquisition keeps the wait graph
// acyclic, so backing off the timed-out statement (and retrying it later)
// always lets the blocking holder finish.
var ErrLockTimeout = errors.New("cc: lock wait timeout")

// Mode is the strength of a table-lock claim.
type Mode int

const (
	// Shared admits concurrent readers (FK RESTRICT probes, scans).
	Shared Mode = iota
	// Exclusive is the bulk-delete lock. MVCC snapshot readers are still
	// admitted under it — epoch visibility filters what they see.
	Exclusive
	// Structural is Exclusive plus draining MVCC snapshot readers: taken
	// by passes that rewrite physical structure (offline index rebuilds
	// via bulk update, repartitioning, rebalancing), where RIDs and page
	// contents change and visibility filtering cannot protect a reader.
	Structural
	// Snapshot is an MVCC snapshot read: admitted beside every mode but
	// Structural. It is taken by the table's read paths, never claimed by
	// a statement footprint.
	Snapshot
)

func (m Mode) String() string {
	switch m {
	case Shared:
		return "shared"
	case Exclusive:
		return "exclusive"
	case Structural:
		return "structural"
	case Snapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Claim names one table a statement must lock and how strongly.
type Claim struct {
	Table string
	Mode  Mode
}

// Manager owns the per-table locks of one database. Statements acquire
// their footprint through Acquire; a table's own read and update paths take
// Lock(name) anonymously.
type Manager struct {
	mu    sync.Mutex
	locks map[string]*TableLock

	// OnWait, when set, is invoked after any managed acquisition that had
	// to block, with the table name and the real (not simulated) time the
	// statement spent waiting. Set it once at DB open, before statements
	// run; it is read without synchronization afterwards.
	OnWait func(table string, waited time.Duration)

	// OnLock, when set, is invoked after every managed acquisition —
	// blocked or not — with the full event (owner, mode, wait, observed
	// holder). Same discipline as OnWait: set once at open.
	OnLock func(LockEvent)
}

// LockEvent describes one managed lock acquisition for the OnLock hook.
type LockEvent struct {
	Table   string
	Owner   uint64 // acquiring statement ID (0 = anonymous)
	Mode    Mode
	Blocked bool
	Waited  time.Duration // real blocked time; zero unless Blocked
	Holder  uint64        // exclusive holder observed when the wait began
}

// NewManager returns an empty manager.
func NewManager() *Manager {
	return &Manager{locks: make(map[string]*TableLock)}
}

// Lock returns the lock for a table, creating it on first use. The same
// *TableLock is returned for the life of the manager, so a table's
// DML-path locks and the manager's ordered statement locks always
// contend on one object.
func (m *Manager) Lock(table string) *TableLock {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.locks[table]
	if !ok {
		l = &TableLock{}
		m.locks[table] = l
	}
	return l
}

// heldLock is one acquired entry of a Held set.
type heldLock struct {
	table    string
	mode     Mode
	lock     *TableLock
	released bool
}

// Held is a set of acquired table locks. Release methods are idempotent
// and safe for concurrent use (the §3.1 early release fires from the
// statement executor while the statement's defer still owns ReleaseAll).
type Held struct {
	mu        sync.Mutex
	owner     uint64
	waitTotal time.Duration
	locks     []heldLock
}

// WaitTotal returns the real time the acquisition spent blocked, summed
// over the footprint's locks.
func (h *Held) WaitTotal() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.waitTotal
}

// Acquire takes a statement's whole lock footprint: it deduplicates the
// claims (the stronger mode wins for the same table), sorts them by table
// name, and acquires each lock in that order. The deterministic order is
// the deadlock-freedom argument: all statements acquire along the same
// global sequence. No more than d of real time is spent blocked in total
// (d <= 0 = no deadline); on expiry every lock already acquired is
// released and a wrapped ErrLockTimeout is returned. OnWait sees every
// blocked wait, the timed-out partial one included (it was real
// contention); OnLock fires only for granted locks.
func (m *Manager) Acquire(owner uint64, claims []Claim, d time.Duration) (*Held, error) {
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	modes := make(map[string]Mode, len(claims))
	for _, c := range claims {
		if cur, ok := modes[c.Table]; !ok || c.Mode > cur {
			modes[c.Table] = c.Mode
		}
	}
	names := make([]string, 0, len(modes))
	for n := range modes {
		names = append(names, n)
	}
	sort.Strings(names)

	h := &Held{owner: owner, locks: make([]heldLock, 0, len(names))}
	for _, n := range names {
		l, mode := m.Lock(n), modes[n]
		ok, blocked, waited, holder := l.acquire(owner, mode, deadline)
		if blocked {
			h.waitTotal += waited
			if m.OnWait != nil {
				m.OnWait(n, waited)
			}
		}
		if !ok {
			h.ReleaseAll()
			return nil, fmt.Errorf("%w: table %s after %v (holder stmt %d)",
				ErrLockTimeout, n, waited.Round(time.Microsecond), holder)
		}
		if m.OnLock != nil {
			m.OnLock(LockEvent{Table: n, Owner: owner, Mode: mode,
				Blocked: blocked, Waited: waited, Holder: holder})
		}
		h.locks = append(h.locks, heldLock{table: n, mode: mode, lock: l})
	}
	return h, nil
}

// ReleaseTable releases the named table's lock if this set still holds it.
// This is the §3.1 early release: the statement drops its exclusive table
// lock as soon as the heap and the unique indexes are durable, while the
// remaining locks of the footprint stay held until ReleaseAll.
func (h *Held) ReleaseTable(table string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.locks {
		if h.locks[i].table == table {
			h.release(i)
		}
	}
}

// ReleaseAll releases every lock still held, in reverse acquisition order.
func (h *Held) ReleaseAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := len(h.locks) - 1; i >= 0; i-- {
		h.release(i)
	}
}

// release gives back entry i unless it is already released; h.mu must be
// held.
func (h *Held) release(i int) {
	if e := &h.locks[i]; !e.released {
		e.released = true
		e.lock.release(h.owner, e.mode)
	}
}

// Holds reports whether the set still holds a lock on the table, and in
// which mode.
func (h *Held) Holds(table string) (Mode, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.locks {
		if h.locks[i].table == table && !h.locks[i].released {
			return h.locks[i].mode, true
		}
	}
	return 0, false
}
