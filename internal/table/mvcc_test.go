package table

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"bulkdel/internal/cc"
	"bulkdel/internal/record"
)

// Unit tests for the volatile version store, exercised directly: retain →
// commit/abort visibility, horizon-driven pruning, birth stamping, and the
// index-reader/bulk-delete exclusion handshake. The integration behaviour
// (full read paths during a parked delete) lives in the root package's
// reads-during-delete smoke test.

func TestMVCCPendingVersionVisibleToAllSnapshots(t *testing.T) {
	clock := cc.NewEpochClock()
	m := NewMVCC(clock)
	rid := record.RID{Page: 3, Slot: 1}
	tok := m.NewToken()
	m.Retain(tok, rid, []byte{1, 2, 3})
	// Advance the clock well past the retain: pending versions (epoch 0)
	// stay visible to every snapshot until their delete commits.
	clock.Commit()
	clock.Commit()
	for _, s := range []uint64{0, 1, 2} {
		rec, ok := m.VisibleVersion(rid, s)
		if !ok || len(rec) != 3 {
			t.Fatalf("pending version invisible to snapshot %d (ok=%v rec=%v)", s, ok, rec)
		}
	}
	if m.LiveVersions() != 1 {
		t.Fatalf("live versions = %d, want 1", m.LiveVersions())
	}
}

func TestMVCCCommitStampsVisibilityBoundary(t *testing.T) {
	clock := cc.NewEpochClock()
	m := NewMVCC(clock)
	rid := record.RID{Page: 0, Slot: 4}
	sOld := clock.Snapshot() // epoch 0, opened before the delete commits
	tok := m.NewToken()
	m.Retain(tok, rid, []byte{9})
	e := m.CommitToken(tok)
	if e != 1 {
		t.Fatalf("commit epoch = %d, want 1", e)
	}
	if _, ok := m.VisibleVersion(rid, sOld); !ok {
		t.Fatal("snapshot older than the delete lost the retained version")
	}
	sNew := clock.Snapshot() // epoch 1: the delete already committed
	if _, ok := m.VisibleVersion(rid, sNew); ok {
		t.Fatal("snapshot opened after the commit still sees the deleted row")
	}
	clock.Release(sOld)
	clock.Release(sNew)
}

func TestMVCCAbortDiscardsPendingVersion(t *testing.T) {
	m := NewMVCC(cc.NewEpochClock())
	rid := record.RID{Page: 1, Slot: 0}
	tok := m.NewToken()
	m.Retain(tok, rid, []byte{7})
	m.AbortToken(tok)
	if _, ok := m.VisibleVersion(rid, 0); ok {
		t.Fatal("aborted retain still visible")
	}
	if m.LiveVersions() != 0 {
		t.Fatalf("live versions = %d after abort, want 0", m.LiveVersions())
	}
}

func TestMVCCPruneRespectsSnapshotHorizon(t *testing.T) {
	clock := cc.NewEpochClock()
	m := NewMVCC(clock)
	rid := record.RID{Page: 2, Slot: 2}
	s := clock.Snapshot()
	tok := m.NewToken()
	m.Retain(tok, rid, []byte{5})
	m.CommitToken(tok) // prunes internally, but the open snapshot pins it
	if m.LiveVersions() != 1 {
		t.Fatal("committed version pruned while a predating snapshot is open")
	}
	m.Prune()
	if m.LiveVersions() != 1 {
		t.Fatal("explicit prune dropped a version the open snapshot still needs")
	}
	clock.Release(s)
	m.Prune()
	if m.LiveVersions() != 0 {
		t.Fatalf("live versions = %d after the last snapshot closed, want 0", m.LiveVersions())
	}
}

func TestMVCCBirthFiltersYoungRows(t *testing.T) {
	clock := cc.NewEpochClock()
	m := NewMVCC(clock)
	rid := record.RID{Page: 0, Slot: 0}
	// Before any commit the clock is at 0 and births are implicit.
	m.RecordBirth(rid)
	if !m.BirthVisible(rid, 0) {
		t.Fatal("epoch-0 birth invisible to the epoch-0 snapshot")
	}
	clock.Commit() // clock → 1
	m.RecordBirth(rid)
	if m.BirthVisible(rid, 0) {
		t.Fatal("row born at epoch 1 visible to an epoch-0 snapshot")
	}
	if !m.BirthVisible(rid, 1) {
		t.Fatal("row born at epoch 1 invisible to an epoch-1 snapshot")
	}
}

// The index trees are safe for snapshot readers only while no bulk delete
// is mid-statement: BeginDelete drains readers before gates go offline,
// and TryEnterIndexRead diverts late readers to the heap-scan fallback.
func TestMVCCIndexReadersExcludeBulkDelete(t *testing.T) {
	m := NewMVCC(cc.NewEpochClock())
	if !m.TryEnterIndexRead() {
		t.Fatal("index read refused on an idle table")
	}
	started := make(chan struct{})
	entered := make(chan struct{})
	go func() {
		close(started)
		m.BeginDelete()
		close(entered)
	}()
	<-started
	select {
	case <-entered:
		t.Fatal("BeginDelete proceeded over an open index reader")
	case <-time.After(50 * time.Millisecond):
	}
	m.ExitIndexRead()
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("BeginDelete never admitted after the reader drained")
	}
	if m.TryEnterIndexRead() {
		t.Fatal("index read admitted while a bulk delete is in flight")
	}
	m.EndDelete()
	if !m.TryEnterIndexRead() {
		t.Fatal("index read refused after the delete retired")
	}
	m.ExitIndexRead()
}

func TestMVCCRetainedBytesAccounting(t *testing.T) {
	clock := cc.NewEpochClock()
	m := NewMVCC(clock)
	s := clock.Snapshot()

	tok := m.NewToken()
	m.Retain(tok, record.RID{Page: 0, Slot: 0}, make([]byte, 64))
	m.Retain(tok, record.RID{Page: 0, Slot: 1}, make([]byte, 64))
	if got := m.RetainedBytes(); got != 128 {
		t.Fatalf("retained bytes = %d after two 64-byte retains, want 128", got)
	}
	m.CommitToken(tok) // pinned by the open snapshot, so nothing drops yet
	if got := m.RetainedBytes(); got != 128 {
		t.Fatalf("retained bytes = %d with the snapshot still open, want 128", got)
	}

	// An aborted single-row retain gives its bytes straight back.
	tok2 := m.NewToken()
	m.Retain(tok2, record.RID{Page: 1, Slot: 0}, make([]byte, 32))
	m.AbortToken(tok2)
	if got := m.RetainedBytes(); got != 128 {
		t.Fatalf("retained bytes = %d after abort, want 128", got)
	}

	// Closing the last snapshot lets pruning reclaim everything.
	clock.Release(s)
	m.Prune()
	if got := m.RetainedBytes(); got != 0 {
		t.Fatalf("retained bytes = %d after the horizon passed, want 0", got)
	}

	// Reset zeroes the footprint wholesale.
	tok3 := m.NewToken()
	m.Retain(tok3, record.RID{Page: 2, Slot: 0}, make([]byte, 16))
	m.Reset()
	if got := m.RetainedBytes(); got != 0 {
		t.Fatalf("retained bytes = %d after Reset, want 0", got)
	}
}

// lookupAt collects what SnapshotLookup emits for lo ≤ field ≤ hi at s.
func lookupAt(t *testing.T, tbl *Table, field int, lo, hi int64, s uint64) (got map[record.RID][]int64, usedIndex bool) {
	t.Helper()
	got = make(map[record.RID][]int64)
	usedIndex, err := tbl.SnapshotLookup(field, lo, hi, s, func(rid record.RID, row []int64) error {
		if _, dup := got[rid]; dup {
			t.Errorf("%v emitted twice", rid)
		}
		got[rid] = row
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, usedIndex
}

// has reports whether a fresh read finds a row with field = v.
func has(t *testing.T, tbl *Table, field int, v int64) bool {
	t.Helper()
	got, _ := lookupAt(t, tbl, field, v, v, tbl.MVCC.Clock.Current())
	return len(got) > 0
}

// TestSnapshotLookupArmsAgree: the index arm and the scan arm of the one read
// function return the same rows under the same RIDs as a map model, for point
// and range predicates, at a snapshot taken before a committed delete (the
// victims live on as retained versions) and at one taken after it. Every
// emitted RID resolves through SnapshotRow to the emitted row.
func TestSnapshotLookupArmsAgree(t *testing.T) {
	tbl := newTestTable(t, 300) // field0 = i (IA), field1 = 2i (IB), field2 = i%97 (no index)
	clock := tbl.MVCC.Clock
	model := make(map[record.RID][]int64)
	if err := tbl.Heap.Scan(func(rid record.RID, rec []byte) error {
		row, err := tbl.Schema.Decode(rec)
		model[rid] = row
		return err
	}); err != nil {
		t.Fatal(err)
	}
	before := clock.Snapshot() // pins the versions the delete retains
	defer clock.Release(before)
	survivors := make(map[record.RID][]int64)
	for rid, row := range model {
		if row[0] >= 40 && row[0] < 60 {
			if err := tbl.DeleteRow(rid); err != nil {
				t.Fatal(err)
			}
		} else {
			survivors[rid] = row
		}
	}
	after := clock.Snapshot()
	defer clock.Release(after)
	if tbl.MVCC.LiveVersions() != 20 {
		t.Fatalf("%d versions retained, want the 20 victims", tbl.MVCC.LiveVersions())
	}

	preds := []struct {
		field  int
		lo, hi int64
	}{
		{0, 45, 45}, {0, 123, 123}, {0, 9999, 9999}, // victim, survivor, absent
		{1, 246, 246}, {1, 247, 247}, {1, 90, 90}, // present, absent, victim
		{2, 96, 96}, {2, 45, 45}, // unindexed: a scan on either arm
		{0, 30, 70}, {0, 250, math.MaxInt64}, {0, math.MinInt64, 41}, {0, 70, 30},
		{1, 80, 121}, {2, 10, 12},
	}
	snaps := []struct {
		name string
		s    uint64
		want map[record.RID][]int64
	}{{"before", before, model}, {"after", after, survivors}}
	for _, forceScan := range []bool{false, true} {
		if forceScan {
			tbl.MVCC.BeginDelete() // as while a bulk delete is in flight
			defer tbl.MVCC.EndDelete()
		}
		for _, sn := range snaps {
			for _, p := range preds {
				want := make(map[record.RID][]int64)
				for rid, row := range sn.want {
					if p.lo <= row[p.field] && row[p.field] <= p.hi {
						want[rid] = row
					}
				}
				got, usedIndex := lookupAt(t, tbl, p.field, p.lo, p.hi, sn.s)
				name := fmt.Sprintf("scan=%v %s field %d in [%d, %d]", forceScan, sn.name, p.field, p.lo, p.hi)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: %d rows, model has %d:\n got %v\nwant %v", name, len(got), len(want), got, want)
				}
				if wantIndex := p.lo > p.hi || (!forceScan && p.field != 2); usedIndex != wantIndex {
					t.Errorf("%s: usedIndex = %v, want %v", name, usedIndex, wantIndex)
				}
				for rid, row := range got {
					if r, ok, err := tbl.SnapshotRow(rid, sn.s); err != nil || !ok || !reflect.DeepEqual(r, row) {
						t.Errorf("%s: SnapshotRow(%v) = %v, %v, %v; emitted %v", name, rid, r, ok, err, row)
					}
				}
			}
		}
	}
}
