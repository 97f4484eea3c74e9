package cc

import (
	"sync"
	"testing"
	"time"
)

// hold acquires a footprint with no deadline, which cannot fail.
func hold(m *Manager, owner uint64, claims ...Claim) *Held {
	h, err := m.Acquire(owner, claims, 0)
	if err != nil {
		panic(err)
	}
	return h
}

// lockWithin takes the exclusive lock anonymously, giving up after d.
func lockWithin(l *TableLock, d time.Duration) bool {
	ok, _, _, _ := l.acquire(0, Exclusive, time.Now().Add(d))
	return ok
}

func TestLockExclusiveTimeout(t *testing.T) {
	var l TableLock

	// Uncontended: acquires immediately.
	if !lockWithin(&l, time.Second) {
		t.Fatal("uncontended timeout-acquire failed")
	}
	l.Unlock(Exclusive)

	// Held shared: the attempt must give up and leave the lock untouched.
	l.Lock(Shared)
	if lockWithin(&l, 10*time.Millisecond) {
		t.Fatal("acquired exclusive over a shared holder")
	}
	// The failed attempt must not leave a phantom waiting writer that
	// blocks new readers forever.
	done := make(chan struct{})
	go func() {
		l.Lock(Shared)
		l.Unlock(Shared)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("failed timeout-acquire still blocks readers")
	}
	l.Unlock(Shared)

	// Held exclusive: same story.
	l.Lock(Exclusive)
	if lockWithin(&l, 10*time.Millisecond) {
		t.Fatal("acquired exclusive over an exclusive holder")
	}
	l.Unlock(Exclusive)

	// After release the timed acquire succeeds and the lock still works.
	if !lockWithin(&l, time.Second) {
		t.Fatal("timeout-acquire after release failed")
	}
	l.Unlock(Exclusive)
	l.Lock(Exclusive)
	l.Unlock(Exclusive)
}

func TestLockExclusiveTimeoutWakesOnRelease(t *testing.T) {
	var l TableLock
	l.Lock(Exclusive)
	got := make(chan bool, 1)
	go func() { got <- lockWithin(&l, 5*time.Second) }()
	time.Sleep(20 * time.Millisecond) // let the waiter park
	l.Unlock(Exclusive)
	select {
	case ok := <-got:
		if !ok {
			t.Fatal("waiter timed out although the lock was released in time")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never woke after release")
	}
	l.Unlock(Exclusive)
}

// TestAcquireOrderedOppositeClaims is the unit-level deadlock regression:
// two statements name the same two tables in opposite textual orders —
// the shape that deadlocks under naive as-written acquisition. Because
// Acquire sorts the footprint, both goroutines collide on the
// first shared table and the pair must always finish.
func TestAcquireOrderedOppositeClaims(t *testing.T) {
	m := NewManager()
	const iters = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for i := 0; i < iters; i++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				h := hold(m, 0, Claim{Table: "parent", Mode: Exclusive}, Claim{Table: "child", Mode: Exclusive})
				h.ReleaseAll()
			}()
			go func() {
				defer wg.Done()
				h := hold(m, 0, Claim{Table: "child", Mode: Exclusive}, Claim{Table: "parent", Mode: Exclusive})
				h.ReleaseAll()
			}()
			wg.Wait()
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("opposite-order acquisitions deadlocked")
	}
}

func TestAcquireOrderedDedup(t *testing.T) {
	m := NewManager()
	h := hold(m, 0,
		Claim{Table: "b", Mode: Shared},
		Claim{Table: "a", Mode: Shared},
		Claim{Table: "b", Mode: Exclusive}, // exclusive must win the dedup
		Claim{Table: "a", Mode: Shared},    // duplicate shared claim collapses
	)
	if g := m.WaitGraph(); len(g.Tables) != 2 || g.Tables[0].Table != "a" || g.Tables[1].Table != "b" ||
		g.Tables[0].Readers != 1 {
		t.Fatalf("footprint = %s, want a (one reader) and b", g)
	}
	if mode, ok := h.Holds("a"); !ok || mode != Shared {
		t.Fatalf("a held as %v,%v, want shared", mode, ok)
	}
	if mode, ok := h.Holds("b"); !ok || mode != Exclusive {
		t.Fatalf("b held as %v,%v, want exclusive", mode, ok)
	}
	// b is exclusively held: a second shared claim on it must block, so a
	// try-lock through the manager's shared *TableLock instance fails.
	if tryLock(m.Lock("b"), Exclusive) {
		t.Fatal("manager returned a lock instance the Held set is not holding")
	}
	h.ReleaseAll()
	if _, ok := h.Holds("b"); ok {
		t.Fatal("Holds reports b after ReleaseAll")
	}
}

func TestReleaseTableIdempotent(t *testing.T) {
	m := NewManager()
	h := hold(m, 0, Claim{Table: "t", Mode: Exclusive}, Claim{Table: "u", Mode: Shared})
	// The §3.1 early release fires once from the executor and possibly
	// again from the statement's own defer; double release must not
	// corrupt the lock, and ReleaseAll afterwards must only release u.
	h.ReleaseTable("t")
	h.ReleaseTable("t")
	if _, ok := h.Holds("t"); ok {
		t.Fatal("t still reported held after release")
	}
	if mode, ok := h.Holds("u"); !ok || mode != Shared {
		t.Fatal("early release of t dropped u")
	}
	// t is free again: an independent statement can take it immediately.
	if !tryLock(m.Lock("t"), Exclusive) {
		t.Fatal("t not reacquirable after early release")
	}
	m.Lock("t").Unlock(Exclusive)
	h.ReleaseAll()
	h.ReleaseAll() // idempotent too
	if !tryLock(m.Lock("u"), Exclusive) {
		t.Fatal("u not reacquirable after ReleaseAll")
	}
	m.Lock("u").Unlock(Exclusive)
}

func TestManagerOnWait(t *testing.T) {
	m := NewManager()
	var mu sync.Mutex
	waits := make(map[string]int)
	m.OnWait = func(table string, _ time.Duration) {
		mu.Lock()
		waits[table]++
		mu.Unlock()
	}

	// Uncontended acquisition must not report a wait.
	h := hold(m, 0, Claim{Table: "q", Mode: Exclusive})
	mu.Lock()
	if len(waits) != 0 {
		t.Fatalf("uncontended acquisition reported waits: %v", waits)
	}
	mu.Unlock()

	// A second statement blocking on q must report one.
	released := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		h.ReleaseAll()
		close(released)
	}()
	h2 := hold(m, 0, Claim{Table: "q", Mode: Exclusive})
	<-released
	h2.ReleaseAll()
	mu.Lock()
	defer mu.Unlock()
	if waits["q"] != 1 {
		t.Fatalf("waits = %v, want q:1", waits)
	}
}
