package cc

import (
	"testing"
	"time"
)

func TestEpochClockSnapshotLifecycle(t *testing.T) {
	c := NewEpochClock()
	if e := c.Current(); e != 0 {
		t.Fatalf("fresh clock at epoch %d, want 0", e)
	}
	s0 := c.Snapshot()
	if s0 != 0 {
		t.Fatalf("first snapshot at %d, want 0", s0)
	}
	if e := c.Commit(); e != 1 {
		t.Fatalf("first commit returned %d, want 1", e)
	}
	s1 := c.Snapshot()
	if s1 != 1 {
		t.Fatalf("post-commit snapshot at %d, want 1", s1)
	}
	if n := c.ActiveSnapshots(); n != 2 {
		t.Fatalf("%d active snapshots, want 2", n)
	}
	if min, ok := c.Horizon(); !ok || min != 0 {
		t.Fatalf("horizon (%d, %v), want (0, true)", min, ok)
	}
	c.Release(s0)
	if min, ok := c.Horizon(); !ok || min != 1 {
		t.Fatalf("horizon after releasing the older reader: (%d, %v), want (1, true)", min, ok)
	}
	c.Release(s1)
	if _, ok := c.Horizon(); ok {
		t.Fatal("horizon still open with no readers")
	}
	if n := c.ActiveSnapshots(); n != 0 {
		t.Fatalf("%d active snapshots after full release, want 0", n)
	}
}

// Two readers at the same epoch are reference-counted: releasing one must
// not retire the other's snapshot.
func TestEpochClockSharedSnapshotRefcount(t *testing.T) {
	c := NewEpochClock()
	a, b := c.Snapshot(), c.Snapshot()
	c.Release(a)
	if _, ok := c.Horizon(); !ok {
		t.Fatal("releasing one of two same-epoch readers closed the horizon")
	}
	c.Release(b)
	if _, ok := c.Horizon(); ok {
		t.Fatal("horizon still open after both releases")
	}
}

// Recovery fast-forwards the clock from the catalog floor and then again
// from the WAL commit count; the second call may compute a smaller value
// and must never rewind (a rewind would hand out an epoch old snapshots
// already judged against).
func TestEpochClockSetCurrentNeverRewinds(t *testing.T) {
	c := NewEpochClock()
	c.SetCurrent(5)
	if e := c.Current(); e != 5 {
		t.Fatalf("fast-forward to 5 left the clock at %d", e)
	}
	c.SetCurrent(3)
	if e := c.Current(); e != 5 {
		t.Fatalf("SetCurrent(3) rewound the clock to %d", e)
	}
	if e := c.Commit(); e != 6 {
		t.Fatalf("commit after fast-forward returned %d, want 6", e)
	}
}

// The tentpole contract: a plain exclusive holder (a bulk delete) admits
// snapshot readers without blocking them.
func TestSnapshotReadAdmittedUnderExclusive(t *testing.T) {
	var l TableLock
	l.Lock(Exclusive)
	got := make(chan bool, 1)
	go func() { got <- l.Lock(Snapshot) }()
	select {
	case blocked := <-got:
		if blocked {
			t.Fatal("snapshot read reported blocking under a plain exclusive holder")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("snapshot read queued behind the exclusive lock")
	}
	l.Unlock(Snapshot)
	l.Unlock(Exclusive)
}

// A structural pass both drains open snapshot readers and holds new ones
// back while it waits, so it cannot be starved by a read stream.
func TestSnapshotReadersDrainForStructuralPass(t *testing.T) {
	var l TableLock
	if blocked := l.Lock(Snapshot); blocked {
		t.Fatal("uncontended snapshot read blocked")
	}
	acquired := make(chan struct{})
	go func() {
		l.acquire(7, Structural, time.Time{})
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("structural lock acquired over an open snapshot reader")
	case <-time.After(50 * time.Millisecond):
	}
	second := make(chan bool, 1)
	go func() { second <- l.Lock(Snapshot) }()
	select {
	case <-second:
		t.Fatal("new snapshot reader admitted past a waiting structural pass")
	case <-time.After(50 * time.Millisecond):
	}

	l.Unlock(Snapshot) // drain: the structural pass gets the lock
	<-acquired
	l.release(7, Structural) // and once it is done, the queued reader proceeds
	if blocked := <-second; !blocked {
		t.Fatal("reader queued behind a structural pass did not report blocking")
	}
	l.Unlock(Snapshot)
}

// A structural statement queued behind a plain bulk delete's exclusive
// lock cannot acquire until the delete finishes no matter what readers
// do, so its presence in the queue must not make new snapshot reads wait
// out the whole delete. Only once the delete releases does the queued
// structural pass hold new readers back (the anti-starvation behaviour
// of the previous test).
func TestSnapshotReadAdmittedPastStructuralWaiterBehindPlainDelete(t *testing.T) {
	var l TableLock
	l.Lock(Exclusive) // the plain bulk delete
	structAcq := make(chan struct{})
	go func() {
		l.acquire(7, Structural, time.Time{})
		close(structAcq)
	}()
	for { // wait for the structural statement to queue
		l.mu.Lock()
		queued := l.structW > 0
		l.mu.Unlock()
		if queued {
			break
		}
		time.Sleep(time.Millisecond)
	}

	got := make(chan bool, 1)
	go func() { got <- l.Lock(Snapshot) }()
	select {
	case blocked := <-got:
		if blocked {
			t.Fatal("snapshot read reported blocking under a plain exclusive holder")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("snapshot read waited out a plain delete because a structural pass was queued behind it")
	}

	// The delete releases: the structural waiter now has priority — the
	// open reader drains, new readers queue behind it.
	l.Unlock(Exclusive)
	second := make(chan bool, 1)
	go func() { second <- l.Lock(Snapshot) }()
	select {
	case <-structAcq:
		t.Fatal("structural lock acquired over an open snapshot reader")
	case <-second:
		t.Fatal("new snapshot reader admitted past the waiting structural pass after the delete released")
	case <-time.After(50 * time.Millisecond):
	}
	l.Unlock(Snapshot)
	<-structAcq
	l.release(7, Structural)
	if blocked := <-second; !blocked {
		t.Fatal("reader queued behind the structural pass did not report blocking")
	}
	l.Unlock(Snapshot)
}
