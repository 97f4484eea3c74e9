package cc

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestTimeoutWaiterLeavesQueueByIdentity is the regression test for the
// departed-waiter cleanup: when two indistinguishable exclusive waiters
// (same owner) block on the same lock and one times out, the timed-out one
// must remove exactly its own queue entry. Before the token-identity fix a
// timed-out waiter could take its twin's entry with it, leaving the twin
// invisible to introspection — and, once granted, the lock state claimed a
// holder the waiter queue never knew about.
func TestTimeoutWaiterLeavesQueueByIdentity(t *testing.T) {
	var l TableLock
	l.Lock(Exclusive)

	// Twin A blocks without a deadline; twin B times out quickly. Both are
	// anonymous (owner 0), so only token identity can tell them apart.
	started := make(chan struct{})
	granted := make(chan struct{})
	go func() {
		close(started)
		l.Lock(Exclusive)
		close(granted)
	}()
	<-started
	deadline := time.Now().Add(time.Second)
	for {
		if len(l.info("T").Waiters) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("twin A never joined the waiter queue")
		}
		time.Sleep(time.Millisecond)
	}

	if ok, _, _, _ := l.acquire(0, Exclusive, time.Now().Add(5*time.Millisecond)); ok {
		t.Fatal("twin B acquired a lock an exclusive holder still owns")
	}
	// B is gone; A must still be queued.
	if got := len(l.info("T").Waiters); got != 1 {
		t.Fatalf("after twin B timed out, waiter queue has %d entries, want 1 (twin A)", got)
	}

	l.Unlock(Exclusive)
	select {
	case <-granted:
	case <-time.After(time.Second):
		t.Fatal("twin A was never granted the lock after release")
	}
	if got := len(l.info("T").Waiters); got != 0 {
		t.Fatalf("after the grant, waiter queue has %d entries, want 0", got)
	}
	l.Unlock(Exclusive)
}

// TestSharedTimeoutRespectsWriterPreference exercises a Shared acquire:
// a reader with a budget gives up while a writer holds the lock, reports its
// partial wait, and leaves no queue entry behind.
func TestSharedTimeoutRespectsWriterPreference(t *testing.T) {
	var l TableLock
	l.Lock(Exclusive)
	ok, blocked, waited, holder := l.acquire(7, Shared, time.Now().Add(3*time.Millisecond))
	if ok || !blocked {
		t.Fatalf("shared acquire under an exclusive holder: ok=%v blocked=%v", ok, blocked)
	}
	if waited <= 0 {
		t.Fatalf("timed-out reader reported no wait time")
	}
	_ = holder
	if got := len(l.info("T").Waiters); got != 0 {
		t.Fatalf("timed-out reader left %d queue entries", got)
	}
	l.Unlock(Exclusive)
	ok, _, _, _ = l.acquire(7, Shared, time.Now().Add(time.Second))
	if !ok {
		t.Fatal("free lock refused a shared acquisition")
	}
	l.release(7, Shared)
}

// TestAcquireOrderedTimeoutReleasesPartialFootprint verifies the manager's
// whole-footprint deadline: when the second lock of a sorted footprint times
// out, the first — already acquired — must be released, and the error must
// unwrap to ErrLockTimeout.
func TestAcquireOrderedTimeoutReleasesPartialFootprint(t *testing.T) {
	m := NewManager()
	blocker := m.Lock("B")
	blocker.Lock(Exclusive)

	claims := []Claim{{Table: "A", Mode: Exclusive}, {Table: "B", Mode: Exclusive}}
	h, err := m.Acquire(9, claims, 5*time.Millisecond)
	if err == nil {
		h.ReleaseAll()
		t.Fatal("footprint acquisition succeeded past an exclusive holder")
	}
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("error %v does not unwrap to ErrLockTimeout", err)
	}
	// A must have been released on the way out: a fresh exclusive
	// acquisition succeeds immediately.
	if !tryLock(m.Lock("A"), Exclusive) {
		t.Fatal("lock A leaked from the timed-out footprint")
	}
	m.Lock("A").Unlock(Exclusive)
	blocker.Unlock(Exclusive)

	// And with the holder gone the same footprint acquires cleanly.
	h, err = m.Acquire(9, claims, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	h.ReleaseAll()
	if !m.WaitGraph().Idle() {
		t.Fatalf("wait graph not idle after release:\n%s", m.WaitGraph())
	}
}

// TestWaitGraphIdle pins the Idle predicate: free locks (even ones that
// were handed out before) are idle; any holder, waiter, or writer
// reservation is not.
func TestWaitGraphIdle(t *testing.T) {
	m := NewManager()
	if !m.WaitGraph().Idle() {
		t.Fatal("empty manager not idle")
	}
	l := m.Lock("T")
	if !m.WaitGraph().Idle() {
		t.Fatal("free handed-out lock not idle")
	}
	l.Lock(Shared)
	if m.WaitGraph().Idle() {
		t.Fatal("held shared lock reported idle")
	}
	l.Unlock(Shared)
	l.Lock(Exclusive)
	if m.WaitGraph().Idle() {
		t.Fatal("held exclusive lock reported idle")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); l.Lock(Shared); l.Unlock(Shared) }()
	l.Unlock(Exclusive)
	wg.Wait()
	if !m.WaitGraph().Idle() {
		t.Fatal("fully released lock not idle")
	}
}
