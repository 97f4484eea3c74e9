package cc

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWaitGraphOwnerAttribution checks that the snapshot names the writer,
// the shared readers, and the blocked waiter with their statement IDs.
func TestWaitGraphOwnerAttribution(t *testing.T) {
	m := NewManager()

	// Statement 7 holds A exclusive; statement 9 holds B shared.
	h7 := hold(m, 7, Claim{Table: "A", Mode: Exclusive})
	h9 := hold(m, 9, Claim{Table: "B", Mode: Shared})

	g := m.WaitGraph()
	if len(g.Tables) != 2 {
		t.Fatalf("wait graph has %d tables, want 2", len(g.Tables))
	}
	a, b := g.Tables[0], g.Tables[1]
	if a.Table != "A" || b.Table != "B" {
		t.Fatalf("tables not name-sorted: %q, %q", a.Table, b.Table)
	}
	if !a.Exclusive || a.HolderWriter != 7 {
		t.Fatalf("A: got %+v, want exclusive holder 7", a)
	}
	if b.Exclusive || b.Readers != 1 || len(b.ReaderOwners) != 1 || b.ReaderOwners[0] != 9 {
		t.Fatalf("B: got %+v, want one shared reader, stmt 9", b)
	}

	// Statement 11 blocks on A; once it appears in the queue the blocked
	// part of the graph must name both sides.
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		close(started)
		h := hold(m, 11, Claim{Table: "A", Mode: Exclusive})
		h.ReleaseAll()
		close(done)
	}()
	<-started
	deadline := time.Now().Add(5 * time.Second)
	var dump string
	for {
		dump = blockedDump(m)
		if dump != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never appeared in the blocked dump")
		}
		time.Sleep(time.Millisecond)
	}
	if !strings.Contains(dump, "A: exclusive stmt=7") || !strings.Contains(dump, "stmt 11 exclusive") {
		t.Fatalf("blocked dump misses holder or waiter:\n%s", dump)
	}

	h7.ReleaseAll()
	<-done
	h9.ReleaseAll()

	// Idle again: nothing blocked, everything free.
	if d := blockedDump(m); d != "" {
		t.Fatalf("idle manager still reports blocked statements:\n%s", d)
	}
	for _, ti := range m.WaitGraph().Tables {
		if ti.Exclusive || ti.Readers != 0 || len(ti.Waiters) != 0 {
			t.Fatalf("lock %s not free after release: %+v", ti.Table, ti)
		}
	}
}

// TestWaitGraphConsistencyUnderRace hammers the manager from writer,
// reader, snapshot-reader and wait-graph goroutines; under -race this
// checks the wait-graph path is safe, and every graph must be internally
// consistent (never an exclusive holder and readers, or a structural
// holder and snapshot readers, on the same table at once).
func TestWaitGraphConsistencyUnderRace(t *testing.T) {
	m := NewManager()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(owner uint64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mode := Exclusive
				if owner == 1 {
					mode = Structural
				}
				h := hold(m, owner, Claim{Table: "T", Mode: mode})
				h.ReleaseAll()
			}
		}(uint64(w + 1))
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(owner uint64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h := hold(m, owner, Claim{Table: "T", Mode: Shared})
				h.ReleaseAll()
			}
		}(uint64(w + 10))
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := m.Lock("T")
			for {
				select {
				case <-stop:
					return
				default:
				}
				l.Lock(Snapshot)
				l.Unlock(Snapshot)
			}
		}()
	}

	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		g := m.WaitGraph()
		for _, ti := range g.Tables {
			if ti.Exclusive && ti.Readers > 0 {
				t.Errorf("torn snapshot: exclusive holder and %d readers at once: %+v", ti.Readers, ti)
			}
			if ti.Structural && ti.SnapshotReaders > 0 {
				t.Errorf("torn snapshot: structural holder and %d snapshot readers at once: %+v", ti.SnapshotReaders, ti)
			}
		}
		_ = g.String()
		_ = blockedDump(m)
	}
	close(stop)
	wg.Wait()
}

// TestOnLockHook checks the grant hook fires for every acquisition with
// the owner, mode, and — when blocked — the holder that made it wait.
func TestOnLockHook(t *testing.T) {
	m := NewManager()
	var mu sync.Mutex
	var events []LockEvent
	m.OnLock = func(ev LockEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}

	h1 := hold(m, 1, Claim{Table: "A", Mode: Exclusive}, Claim{Table: "B", Mode: Shared})
	mu.Lock()
	if len(events) != 2 {
		t.Fatalf("got %d lock events, want 2", len(events))
	}
	if events[0].Table != "A" || events[0].Owner != 1 || events[0].Mode != Exclusive || events[0].Blocked {
		t.Fatalf("first event wrong: %+v", events[0])
	}
	if events[1].Table != "B" || events[1].Mode != Shared {
		t.Fatalf("second event wrong: %+v", events[1])
	}
	mu.Unlock()

	// Statement 2 must block on A and, once granted, report holder 1.
	done := make(chan struct{})
	go func() {
		h := hold(m, 2, Claim{Table: "A", Mode: Exclusive})
		h.ReleaseAll()
		close(done)
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter park
	h1.ReleaseAll()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked statement never acquired")
	}
	mu.Lock()
	defer mu.Unlock()
	last := events[len(events)-1]
	if last.Owner != 2 || !last.Blocked || last.Holder != 1 {
		t.Fatalf("blocked grant event wrong: %+v (want owner 2 blocked by holder 1)", last)
	}
	if last.Waited <= 0 {
		t.Fatalf("blocked grant reports no wait time: %+v", last)
	}
}

// TestHeldWaitTotal checks the per-statement wait accumulator: zero when
// uncontended, positive after a blocked acquisition.
func TestHeldWaitTotal(t *testing.T) {
	m := NewManager()
	h1 := hold(m, 1, Claim{Table: "T", Mode: Exclusive})
	if h1.WaitTotal() != 0 {
		t.Fatalf("uncontended statement reports wait %v", h1.WaitTotal())
	}
	if w := m.WaitGraph().Tables[0].HolderWriter; w != 1 {
		t.Fatalf("holder = %d, want 1", w)
	}

	got := make(chan time.Duration, 1)
	go func() {
		h := hold(m, 2, Claim{Table: "T", Mode: Exclusive})
		got <- h.WaitTotal()
		h.ReleaseAll()
	}()
	time.Sleep(20 * time.Millisecond)
	h1.ReleaseAll()
	select {
	case w := <-got:
		if w <= 0 {
			t.Fatalf("blocked statement reports wait %v, want > 0", w)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked statement never acquired")
	}
}

// blockedDump renders the contended part of the wait graph.
func blockedDump(m *Manager) string {
	var b strings.Builder
	for _, t := range m.WaitGraph().Blocked() {
		b.WriteString(t.String() + "\n")
	}
	return b.String()
}
