package cc

import (
	"strings"
	"sync"
	"testing"
	"time"

	"bulkdel/internal/record"
)

func rid(i int) record.RID { return record.RID{Page: 1, Slot: uint16(i)} }

// tryLock takes mode anonymously only if the lock admits it at once.
func tryLock(l *TableLock, mode Mode) bool {
	ok, _, _, _ := l.acquire(0, mode, time.Now())
	return ok
}

// waitFor polls the lock's state until cond holds.
func waitFor(t *testing.T, l *TableLock, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		done := cond()
		l.mu.Unlock()
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTableLockExclusion(t *testing.T) {
	var l TableLock
	l.Lock(Exclusive)
	if tryLock(&l, Exclusive) {
		t.Fatal("second exclusive lock acquired")
	}
	l.Unlock(Exclusive)
	if !tryLock(&l, Exclusive) {
		t.Fatal("lock not released")
	}
	l.Unlock(Exclusive)

	// Shared locks coexist, exclusive waits.
	l.Lock(Shared)
	l.Lock(Shared)
	acquired := make(chan struct{})
	go func() {
		l.Lock(Exclusive)
		close(acquired)
		l.Unlock(Exclusive)
	}()
	select {
	case <-acquired:
		t.Fatal("exclusive acquired while shared held")
	default:
	}
	l.Unlock(Shared)
	l.Unlock(Shared)
	<-acquired
}

// TestTableLockModes is the admission table: each mode against each holder
// state, admitted at once or blocked. A blocked attempt under a deadline
// times out with nothing granted, a positive wait, and the waiter queue and
// the writer-preference counters exactly as it found them.
func TestTableLockModes(t *testing.T) {
	// Each state sets up a fresh lock and returns its teardown.
	states := []struct {
		name  string
		setup func(t *testing.T, l *TableLock) func()
	}{
		{"free", func(*testing.T, *TableLock) func() { return func() {} }},
		{"shared", holdMode(Shared)},
		{"snapshot", holdMode(Snapshot)},
		{"exclusive", holdMode(Exclusive)},
		{"structural", holdMode(Structural)},
		{"structural-queued-behind-exclusive", func(t *testing.T, l *TableLock) func() {
			l.Lock(Exclusive)
			granted := make(chan struct{})
			go func() {
				l.acquire(7, Structural, time.Time{})
				close(granted)
			}()
			waitFor(t, l, "the structural waiter", func() bool { return l.structW == 1 })
			return func() {
				l.Unlock(Exclusive)
				<-granted
				l.release(7, Structural)
			}
		}},
	}
	// admitted[mode][state], states in the order above.
	admitted := map[Mode][]bool{
		Shared:     {true, true, true, false, false, false},
		Exclusive:  {true, false, true, false, false, false},
		Structural: {true, false, false, false, false, false},
		Snapshot:   {true, true, true, true, false, true},
	}
	for _, mode := range []Mode{Shared, Exclusive, Structural, Snapshot} {
		for si, st := range states {
			t.Run(mode.String()+"/"+st.name, func(t *testing.T) {
				var l TableLock
				teardown := st.setup(t, &l)
				defer teardown()
				l.mu.Lock()
				waiters, writersW, structW := len(l.waiters), l.writersW, l.structW
				l.mu.Unlock()

				ok, blocked, waited, _ := l.acquire(5, mode, time.Now().Add(5*time.Millisecond))
				if want := admitted[mode][si]; want {
					if !ok || blocked {
						t.Fatalf("ok=%v blocked=%v, want admitted at once", ok, blocked)
					}
					l.release(5, mode)
					return
				}
				if ok || !blocked || waited <= 0 {
					t.Fatalf("ok=%v blocked=%v waited=%v, want a timed-out wait", ok, blocked, waited)
				}
				l.mu.Lock()
				defer l.mu.Unlock()
				if len(l.waiters) != waiters || l.writersW != writersW || l.structW != structW {
					t.Fatalf("timed-out %s left waiters=%d writersW=%d structW=%d, want %d/%d/%d",
						mode, len(l.waiters), l.writersW, l.structW, waiters, writersW, structW)
				}
			})
		}
	}
}

// holdMode is a TestTableLockModes state: one anonymous holder of mode.
func holdMode(mode Mode) func(*testing.T, *TableLock) func() {
	return func(_ *testing.T, l *TableLock) func() {
		l.Lock(mode)
		return func() { l.Unlock(mode) }
	}
}

// TestStructuralTimeoutWakesQueuedReaders: a Structural acquisition waiting
// on a shared holder holds new snapshot readers and new shared readers back.
// When it times out it must wake them; otherwise they would sleep until some
// unrelated release.
func TestStructuralTimeoutWakesQueuedReaders(t *testing.T) {
	var l TableLock
	l.Lock(Shared)
	structDone := make(chan bool, 1)
	go func() {
		ok, _, _, _ := l.acquire(7, Structural, time.Now().Add(300*time.Millisecond))
		structDone <- ok
	}()
	waitFor(t, &l, "the structural waiter", func() bool { return l.structW == 1 })

	snap := make(chan bool, 1)
	shared := make(chan bool, 1)
	go func() { snap <- l.Lock(Snapshot) }()
	go func() { shared <- l.Lock(Shared) }()
	waitFor(t, &l, "both readers to queue", func() bool { return len(l.waiters) == 3 })
	if s := l.info("T").String(); !strings.Contains(s, "anon snapshot") || !strings.Contains(s, "stmt 7 structural") {
		t.Fatalf("wait graph misses a waiter: %s", s)
	}

	if ok := <-structDone; ok {
		t.Fatal("structural lock acquired over a shared holder")
	}
	for name, ch := range map[string]chan bool{"snapshot": snap, "shared": shared} {
		select {
		case blocked := <-ch:
			if !blocked {
				t.Fatalf("%s reader queued behind the structural waiter did not report blocking", name)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s reader not woken when the structural waiter timed out", name)
		}
	}
	l.Unlock(Snapshot)
	l.Unlock(Shared)
	l.Unlock(Shared)
	if in := l.info("T"); in.Readers != 0 || in.SnapshotReaders != 0 || in.WritersWaiting != 0 || len(in.Waiters) != 0 || l.structW != 0 {
		t.Fatalf("lock not idle: %+v structW=%d", in, l.structW)
	}
}

func TestSideFileAppendDrain(t *testing.T) {
	var s SideFile
	for i := 0; i < 10; i++ {
		kind := OpInsert
		if i%2 == 1 {
			kind = OpDelete
		}
		if err := s.Append(Op{Kind: kind, Key: []byte{byte(i)}, RID: rid(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 10 {
		t.Fatalf("len = %d", s.Len())
	}
	batch := s.Drain(4)
	if len(batch) != 4 || s.Len() != 6 {
		t.Fatalf("drain(4) = %d ops, %d left", len(batch), s.Len())
	}
	if batch[0].Key[0] != 0 || batch[3].Key[0] != 3 {
		t.Fatal("drain order wrong")
	}
	rest := s.Drain(0)
	if len(rest) != 6 || s.Len() != 0 {
		t.Fatalf("drain(0) = %d ops", len(rest))
	}
}

func TestSideFileKeyCopied(t *testing.T) {
	var s SideFile
	k := []byte{1, 2, 3}
	if err := s.Append(Op{Kind: OpInsert, Key: k, RID: rid(0)}); err != nil {
		t.Fatal(err)
	}
	k[0] = 99
	ops := s.Drain(0)
	if ops[0].Key[0] != 1 {
		t.Fatal("side-file aliased the caller's key")
	}
}

func TestSideFileQuiesce(t *testing.T) {
	var s SideFile
	if err := s.Append(Op{Kind: OpInsert, Key: []byte{1}, RID: rid(1)}); err != nil {
		t.Fatal(err)
	}
	final := s.Quiesce()
	if len(final) != 1 {
		t.Fatalf("quiesce returned %d ops", len(final))
	}
	if err := s.Append(Op{Kind: OpInsert, Key: []byte{2}, RID: rid(2)}); err != ErrQuiesced {
		t.Fatalf("append after quiesce: %v", err)
	}
	s.Reopen()
	if err := s.Append(Op{Kind: OpInsert, Key: []byte{3}, RID: rid(3)}); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

func TestSideFileConcurrentAppends(t *testing.T) {
	var s SideFile
	var wg sync.WaitGroup
	const writers, per = 8, 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = s.Append(Op{Kind: OpInsert, Key: []byte{byte(w)}, RID: rid(i)})
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != writers*per {
		t.Fatalf("len = %d, want %d", s.Len(), writers*per)
	}
}

func TestProcessingOrderUniqueFirst(t *testing.T) {
	idx := []IndexInfo{
		{Name: "IB", Unique: false, Priority: 5},
		{Name: "IA", Unique: true, Priority: 0},
		{Name: "IC", Unique: false, Priority: 9},
		{Name: "ID", Unique: true, Priority: 1},
	}
	order := ProcessingOrder(idx)
	names := make([]string, len(order))
	for i, o := range order {
		names[i] = idx[o].Name
	}
	// Unique first (by priority desc: ID then IA), then by priority desc.
	want := []string{"ID", "IA", "IC", "IB"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("order = %v, want %v", names, want)
		}
	}
}

func TestProcessingOrderStable(t *testing.T) {
	idx := []IndexInfo{
		{Name: "A"}, {Name: "B"}, {Name: "C"},
	}
	order := ProcessingOrder(idx)
	for i, o := range order {
		if o != i {
			t.Fatalf("equal indexes reordered: %v", order)
		}
	}
	if len(ProcessingOrder(nil)) != 0 {
		t.Fatal("empty input")
	}
}

func TestGateStates(t *testing.T) {
	g := NewGate()
	if g.State() != Online {
		t.Fatal("new gate should be online")
	}
	g.TakeOffline()
	if g.State() != Offline {
		t.Fatal("gate not offline")
	}
	// Offline: updates go to the side-file; quiesce blocks them.
	if err := g.SideFile().Append(Op{Kind: OpDelete, Key: []byte{1}, RID: rid(1)}); err != nil {
		t.Fatal(err)
	}
	g.SideFile().Quiesce()
	if err := g.SideFile().Append(Op{Kind: OpDelete, Key: []byte{2}, RID: rid(2)}); err != ErrQuiesced {
		t.Fatal("append after quiesce should fail")
	}
	g.BringOnline()
	if g.State() != Online {
		t.Fatal("gate not back online")
	}
	// BringOnline reopens the side-file for the next bulk delete.
	if err := g.SideFile().Append(Op{Kind: OpDelete, Key: []byte{3}, RID: rid(3)}); err != nil {
		t.Fatal(err)
	}
}

func TestStrings(t *testing.T) {
	if Online.String() != "online" || Offline.String() != "offline" {
		t.Fatal("IndexState strings")
	}
	if OpInsert.String() != "insert" || OpDelete.String() != "delete" {
		t.Fatal("OpKind strings")
	}
	if IndexState(9).String() == "" {
		t.Fatal("unknown state string")
	}
	for m, want := range map[Mode]string{Shared: "shared", Exclusive: "exclusive",
		Structural: "structural", Snapshot: "snapshot", Mode(9): "Mode(9)"} {
		if got := m.String(); got != want {
			t.Fatalf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestGateWaitOnline(t *testing.T) {
	g := NewGate()
	g.TakeOffline()
	done := make(chan struct{})
	go func() {
		g.WaitOnline()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("WaitOnline returned while offline")
	default:
	}
	g.BringOnline()
	<-done // must wake up
	// Waiting on an online gate returns immediately.
	g.WaitOnline()
}

// returnsWithin reports whether done closes within d.
func returnsWithin(done <-chan struct{}, d time.Duration) bool {
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// TestGateTakeOfflineWaitsForReaders: TakeOffline returns only once the
// reader inside the tree has left; while offline a try-read is refused and
// BringOnline admits it again.
func TestGateTakeOfflineWaitsForReaders(t *testing.T) {
	g := NewGate()
	if !g.TryRead() {
		t.Fatal("read refused on an online gate")
	}
	offline := make(chan struct{})
	go func() {
		g.TakeOffline()
		close(offline)
	}()
	if returnsWithin(offline, 50*time.Millisecond) {
		t.Fatal("TakeOffline returned over a reader inside the tree")
	}
	if g.State() != Offline {
		t.Fatal("TakeOffline did not mark the gate offline before waiting")
	}
	g.ExitRead()
	if !returnsWithin(offline, 2*time.Second) {
		t.Fatal("TakeOffline never returned after the reader left")
	}
	if g.TryRead() {
		t.Fatal("try-read admitted while offline")
	}
	g.BringOnline()
	if !g.TryRead() {
		t.Fatal("try-read refused after BringOnline")
	}
	g.ExitRead()
}

// TestGateUpdate pins what updaters rely on: online, the op is applied with
// the gate held; offline, it is queued in the side-file in the same step as
// the state check; with the side-file quiesced the updater waits for the
// index to come online and applies the op then.
func TestGateUpdate(t *testing.T) {
	g := NewGate()
	applied := 0
	apply := func() error { applied++; return nil }
	if err := g.Update(Op{Kind: OpDelete, Key: []byte{1}, RID: rid(1)}, apply); err != nil || applied != 1 {
		t.Fatalf("online gate: err=%v applied=%d, want nil,1", err, applied)
	}
	g.TakeOffline()
	if err := g.Update(Op{Kind: OpDelete, Key: []byte{2}, RID: rid(2)}, apply); err != nil || applied != 1 {
		t.Fatalf("offline gate: err=%v applied=%d, want nil,1", err, applied)
	}
	if ops := g.SideFile().Quiesce(); len(ops) != 1 || ops[0].RID != rid(2) {
		t.Fatalf("side-file holds %v, want the one queued op", ops)
	}
	done := make(chan struct{})
	go func() {
		if err := g.Update(Op{Kind: OpDelete, Key: []byte{3}, RID: rid(3)}, apply); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	if returnsWithin(done, 50*time.Millisecond) {
		t.Fatal("update returned while the side-file is quiesced and the index offline")
	}
	g.BringOnline()
	if !returnsWithin(done, 2*time.Second) || applied != 2 {
		t.Fatalf("quiesced update: applied=%d after BringOnline, want 2", applied)
	}
}

// TestGateUpdaterExcludesReaders: a reader waits out an online updater's
// mutation, and Read (unlike TryRead) waits for an offline index.
func TestGateUpdaterExcludesReaders(t *testing.T) {
	g := NewGate()
	inside, release := make(chan struct{}), make(chan struct{})
	go g.Update(Op{Kind: OpInsert, Key: []byte{1}, RID: rid(1)}, func() error {
		close(inside)
		<-release
		return nil
	})
	<-inside
	read := make(chan struct{})
	go func() {
		if g.TryRead() {
			g.ExitRead()
		}
		close(read)
	}()
	if returnsWithin(read, 50*time.Millisecond) {
		t.Fatal("reader entered the tree beside an updater")
	}
	close(release)
	if !returnsWithin(read, 2*time.Second) {
		t.Fatal("reader never entered after the updater left")
	}
	g.TakeOffline()
	read = make(chan struct{})
	go func() {
		g.Read()
		g.ExitRead()
		close(read)
	}()
	if returnsWithin(read, 50*time.Millisecond) {
		t.Fatal("Read entered an offline tree")
	}
	g.BringOnline()
	if !returnsWithin(read, 2*time.Second) {
		t.Fatal("Read never entered after BringOnline")
	}
}
