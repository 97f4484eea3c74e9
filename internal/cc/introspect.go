// Lock-manager introspection: point-in-time snapshots of who holds and who
// waits on every table lock, for DB.Inspect and the stress tool's live
// view.
//
// Each table's snapshot is internally consistent (taken under that lock's
// mutex); the set of tables is collected under the manager mutex first, so
// the graph as a whole is "consistent enough" for monitoring: a statement
// releasing between two table snapshots can appear in neither or both, but
// a single table never shows torn state (e.g. a writer and its waiter
// entry at once).
package cc

import (
	"fmt"
	"sort"
	"strings"
)

// TableLockInfo is a snapshot of one table's lock state.
type TableLockInfo struct {
	Table string
	// Exclusive reports an exclusive holder; HolderWriter is its statement
	// ID (0 = anonymous).
	Exclusive    bool
	HolderWriter uint64
	// Readers counts shared holders (anonymous included); ReaderOwners
	// lists the statement IDs among them, sorted.
	Readers      int
	ReaderOwners []uint64
	// SnapshotReaders counts MVCC snapshot readers — admitted even under
	// an exclusive (bulk-delete) holder, excluded only by Structural.
	SnapshotReaders int
	// Structural marks an exclusive holder that also drains snapshot
	// readers (repartition, rebalance, bulk update).
	Structural bool
	// WritersWaiting is the writer-preference state: new readers are held
	// back while it is nonzero.
	WritersWaiting int
	// Waiters is the blocked-acquisition queue in arrival order.
	Waiters []LockWaiter
}

// String renders one who-holds / who-waits line.
func (i TableLockInfo) String() string {
	var b strings.Builder
	b.WriteString(i.Table + ":")
	mode := "exclusive"
	if i.Structural {
		mode = "structural"
	}
	switch {
	case i.Exclusive && i.HolderWriter != 0:
		fmt.Fprintf(&b, " %s stmt=%d", mode, i.HolderWriter)
	case i.Exclusive:
		fmt.Fprintf(&b, " %s stmt=anon", mode)
	case i.Readers > 0:
		fmt.Fprintf(&b, " shared readers=%d", i.Readers)
		if len(i.ReaderOwners) > 0 {
			b.WriteString(" stmts=[")
			for j, o := range i.ReaderOwners {
				if j > 0 {
					b.WriteString(" ")
				}
				fmt.Fprintf(&b, "%d", o)
			}
			b.WriteString("]")
		}
	default:
		b.WriteString(" free")
	}
	if i.SnapshotReaders > 0 {
		fmt.Fprintf(&b, " snapshot-readers=%d", i.SnapshotReaders)
	}
	if i.WritersWaiting > 0 {
		fmt.Fprintf(&b, " writers-waiting=%d", i.WritersWaiting)
	}
	if len(i.Waiters) > 0 {
		b.WriteString(" waiters=[")
		for j, w := range i.Waiters {
			if j > 0 {
				b.WriteString(", ")
			}
			if w.Owner != 0 {
				fmt.Fprintf(&b, "stmt %d %s", w.Owner, w.Mode)
			} else {
				fmt.Fprintf(&b, "anon %s", w.Mode)
			}
		}
		b.WriteString("]")
	}
	return b.String()
}

// info snapshots the lock under its mutex.
func (l *TableLock) info(table string) TableLockInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	in := TableLockInfo{
		Table:           table,
		Exclusive:       l.writer,
		Structural:      l.structural,
		HolderWriter:    l.writerOwner,
		Readers:         l.readers,
		SnapshotReaders: l.sreaders,
		WritersWaiting:  l.writersW,
	}
	for o := range l.readerOwners {
		if o != 0 {
			in.ReaderOwners = append(in.ReaderOwners, o)
		}
	}
	sort.Slice(in.ReaderOwners, func(i, j int) bool { return in.ReaderOwners[i] < in.ReaderOwners[j] })
	in.Waiters = append([]LockWaiter(nil), l.waiters...)
	return in
}

// WaitGraph is the manager-wide lock snapshot, table-name sorted.
type WaitGraph struct {
	Tables []TableLockInfo
}

// WaitGraph snapshots every table lock the manager has handed out.
func (m *Manager) WaitGraph() WaitGraph {
	type ent struct {
		name string
		l    *TableLock
	}
	m.mu.Lock()
	ents := make([]ent, 0, len(m.locks))
	for n, l := range m.locks {
		ents = append(ents, ent{n, l})
	}
	m.mu.Unlock()
	sort.Slice(ents, func(i, j int) bool { return ents[i].name < ents[j].name })
	g := WaitGraph{Tables: make([]TableLockInfo, 0, len(ents))}
	for _, e := range ents {
		g.Tables = append(g.Tables, e.l.info(e.name))
	}
	return g
}

// Idle reports whether no lock in the graph is held, waited on, or
// reserved by writer preference — the state a database must be in after
// every statement (including cancelled and aborted ones) has finished.
func (g WaitGraph) Idle() bool {
	for _, t := range g.Tables {
		if t.Exclusive || t.Readers > 0 || t.SnapshotReaders > 0 || t.WritersWaiting > 0 || len(t.Waiters) > 0 {
			return false
		}
	}
	return true
}

// Blocked returns only the tables with a nonempty waiter queue.
func (g WaitGraph) Blocked() []TableLockInfo {
	var out []TableLockInfo
	for _, t := range g.Tables {
		if len(t.Waiters) > 0 {
			out = append(out, t)
		}
	}
	return out
}

// String renders the graph one table per line (empty for an idle manager).
func (g WaitGraph) String() string {
	var b strings.Builder
	for _, t := range g.Tables {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	return b.String()
}
