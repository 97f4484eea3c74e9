package obs

import (
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bulkdel/internal/buffer"
	"bulkdel/internal/sim"
)

func TestSnapshotSubAndAdd(t *testing.T) {
	a := Snapshot{
		Clock:    10 * time.Millisecond,
		Disk:     sim.Stats{Reads: 5, Writes: 2, RandomOps: 3, SeqOps: 4},
		Pool:     buffer.Stats{Hits: 10, Misses: 2},
		WALBytes: 100,
	}
	b := Snapshot{
		Clock:    25 * time.Millisecond,
		Disk:     sim.Stats{Reads: 9, Writes: 7, RandomOps: 4, SeqOps: 12},
		Pool:     buffer.Stats{Hits: 30, Misses: 3},
		WALBytes: 164,
	}
	d := b.Sub(a)
	if d.Elapsed != 15*time.Millisecond {
		t.Errorf("Elapsed = %v, want 15ms", d.Elapsed)
	}
	if d.Reads != 4 || d.Writes != 5 || d.Seeks != 1 || d.SeqOps != 8 {
		t.Errorf("disk delta = %+v", d)
	}
	if d.Hits != 20 || d.Misses != 1 {
		t.Errorf("pool delta hits=%d misses=%d", d.Hits, d.Misses)
	}
	if d.WALBytes != 64 {
		t.Errorf("WALBytes = %d, want 64", d.WALBytes)
	}

	var sum Delta
	sum.Add(d)
	sum.Add(d)
	if sum.Reads != 8 || sum.Elapsed != 30*time.Millisecond || sum.WALBytes != 128 {
		t.Errorf("Add: %+v", sum)
	}
}

func TestSnapshotSubSaturates(t *testing.T) {
	// A counter reset between snapshots must yield zero, not wrap.
	before := Snapshot{Clock: 5 * time.Millisecond, Disk: sim.Stats{Reads: 100}, WALBytes: 50}
	after := Snapshot{Clock: 2 * time.Millisecond, Disk: sim.Stats{Reads: 3}}
	d := after.Sub(before)
	if d.Reads != 0 || d.WALBytes != 0 || d.Elapsed != 0 {
		t.Errorf("saturating sub failed: %+v", d)
	}
}

func TestHitRatio(t *testing.T) {
	if hr := (Delta{}).HitRatio(); hr != -1 {
		t.Errorf("empty HitRatio = %v, want -1", hr)
	}
	if hr := (Delta{Hits: 3, Misses: 1}).HitRatio(); hr != 0.75 {
		t.Errorf("HitRatio = %v, want 0.75", hr)
	}
}

func TestFmtBytes(t *testing.T) {
	cases := map[uint64]string{
		0:       "0B",
		54:      "54B",
		2048:    "2.0KB",
		3 << 20: "3.0MB",
	}
	for n, want := range cases {
		if got := FmtBytes(n); got != want {
			t.Errorf("FmtBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

// diskSource builds a real disk+pool pair and a file with one page to read.
func diskSource(t *testing.T) (Source, *sim.Disk, *buffer.Pool, sim.FileID) {
	t.Helper()
	disk := sim.NewDisk(sim.DefaultCostModel())
	pool := buffer.New(disk, 64*sim.PageSize)
	id := disk.CreateFile()
	f, err := pool.NewPage(id)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(f, true)
	if err := pool.FlushFile(id); err != nil {
		t.Fatal(err)
	}
	return Source{Disk: disk, Pool: pool}, disk, pool, id
}

func TestCaptureAgainstRealCounters(t *testing.T) {
	src, disk, pool, id := diskSource(t)
	before := src.Capture()
	// One hit (the page is resident), then work the disk directly.
	f, err := pool.Get(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(f, false)
	buf := make([]byte, sim.PageSize)
	if err := disk.ReadPage(id, 0, buf); err != nil {
		t.Fatal(err)
	}
	d := src.Capture().Sub(before)
	if d.Reads != 1 {
		t.Errorf("Reads = %d, want 1", d.Reads)
	}
	if d.Hits != 1 || d.Misses != 0 {
		t.Errorf("pool hits=%d misses=%d, want 1/0", d.Hits, d.Misses)
	}
	if d.Elapsed <= 0 {
		t.Errorf("Elapsed = %v, want > 0", d.Elapsed)
	}
}

func TestTraceTree(t *testing.T) {
	src, disk, _, id := diskSource(t)
	tr := NewTrace("stmt", "test", src)
	p1 := tr.Root().Child("phase-1", "first")
	buf := make([]byte, sim.PageSize)
	if err := disk.ReadPage(id, 0, buf); err != nil {
		t.Fatal(err)
	}
	p1.Set("rows", "7")
	p1.Finish()
	p2 := tr.Root().Child("phase-2", "")
	sub := p2.Child("sub", "")
	sub.Finish()
	p2.Finish()
	tr.Finish()

	if got := tr.Find("phase-1").Delta().Reads; got != 1 {
		t.Errorf("phase-1 reads = %d, want 1", got)
	}
	if tr.Find("phase-2").Delta().Reads != 0 {
		t.Errorf("phase-2 charged reads it did not do")
	}
	if tr.Find("sub") == nil || tr.Find("missing") != nil {
		t.Errorf("Find misbehaves")
	}
	root := tr.Root()
	if root.End <= root.Start {
		t.Errorf("root span not closed: [%v, %v]", root.Start, root.End)
	}
	// Root covers at least the sum of its children's reads.
	if root.IO.Reads != 1 {
		t.Errorf("root reads = %d, want 1", root.IO.Reads)
	}

	out := tr.Format()
	for _, want := range []string{"stmt", "phase-1", "└─ sub", "rows=7", "reads=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
}

func TestTraceFinishClosesOpenDescendants(t *testing.T) {
	src, _, _, _ := diskSource(t)
	tr := NewTrace("stmt", "", src)
	open := tr.Root().Child("never-finished", "")
	tr.Finish()
	if open.End < open.Start {
		t.Errorf("descendant left open after trace Finish")
	}
	// Finishing again is a no-op.
	end := open.End
	open.Finish()
	if open.End != end {
		t.Errorf("double Finish changed End")
	}
}

func TestNilSpanSafety(t *testing.T) {
	var s *Span
	s.Finish()
	s.Set("k", "v")
	if c := s.Child("x", ""); c != nil {
		t.Errorf("nil.Child = %v, want nil", c)
	}
	if d := s.Delta(); d != (Delta{}) {
		t.Errorf("nil.Delta = %+v, want zero", d)
	}
	var tr *Trace
	tr.Finish()
	if tr.Find("x") != nil || tr.Format() != "" {
		t.Errorf("nil trace misbehaves")
	}
	if string(tr.RawJSON()) != "null" {
		t.Errorf("nil trace RawJSON = %s", tr.RawJSON())
	}
}

func TestTraceJSONStable(t *testing.T) {
	src, disk, _, id := diskSource(t)
	tr := NewTrace("stmt", "d", src)
	sp := tr.Root().Child("phase", "")
	buf := make([]byte, sim.PageSize)
	if err := disk.ReadPage(id, 0, buf); err != nil {
		t.Fatal(err)
	}
	sp.Finish()
	tr.Finish()
	a, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("JSON not stable across calls")
	}
	var decoded struct {
		Name     string `json:"name"`
		Children []struct {
			Name string `json:"name"`
			IO   struct {
				Reads uint64 `json:"reads"`
			} `json:"io"`
		} `json:"children"`
	}
	if err := json.Unmarshal(a, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, a)
	}
	if decoded.Name != "stmt" || len(decoded.Children) != 1 || decoded.Children[0].IO.Reads != 1 {
		t.Errorf("decoded = %+v", decoded)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pages_read")
	c.Add(3)
	r.Counter("pages_read").Add(2) // same counter by name
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	r.Gauge("capacity").Set(42)
	h := r.Histogram("latency")
	h.Observe(3 * time.Microsecond)
	h.Observe(500 * time.Microsecond)
	h.Observe(500 * time.Microsecond)

	snap := r.Snapshot()
	if len(snap.Counters) != 1 || snap.Counters[0].Name != "pages_read" || snap.Counters[0].Value != 5 {
		t.Errorf("counters = %+v", snap.Counters)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 42 {
		t.Errorf("gauges = %+v", snap.Gauges)
	}
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %+v", snap.Histograms)
	}
	hs := snap.Histograms[0]
	if hs.Count != 3 || hs.MinUS != 3 || hs.MaxUS != 500 {
		t.Errorf("histogram snapshot = %+v", hs)
	}
	if hs.SumUS != 1003 {
		t.Errorf("histogram sum = %v us", hs.SumUS)
	}
	var total uint64
	for _, b := range hs.Buckets {
		total += b.Count
	}
	if total != 3 {
		t.Errorf("bucket counts sum to %d, want 3", total)
	}
	if _, err := r.JSON(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zebra").Add(1)
	r.Counter("alpha").Add(1)
	r.Counter("mid").Add(1)
	snap := r.Snapshot()
	var names []string
	for _, c := range snap.Counters {
		names = append(names, c.Name)
	}
	if strings.Join(names, ",") != "alpha,mid,zebra" {
		t.Errorf("counters not name-sorted: %v", names)
	}
}

func TestObserverAggregates(t *testing.T) {
	src, disk, _, id := diskSource(t)
	o := NewObserver()
	for i := 0; i < 3; i++ {
		tr := NewTrace("bulk-delete", "", src)
		buf := make([]byte, sim.PageSize)
		if err := disk.ReadPage(id, 0, buf); err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		o.OnTrace(tr)
	}
	reg := o.Registry()
	if got := reg.Counter("statements_traced").Value(); got != 3 {
		t.Errorf("statements_traced = %d, want 3", got)
	}
	if got := reg.Counter("pages_read").Value(); got != 3 {
		t.Errorf("pages_read = %d, want 3", got)
	}
	if o.LastTrace() == nil || len(o.Traces()) != 3 {
		t.Errorf("trace ring: last=%v n=%d", o.LastTrace(), len(o.Traces()))
	}
}

func TestObserverRingBounded(t *testing.T) {
	src, _, _, _ := diskSource(t)
	o := NewObserver()
	for i := 0; i < maxKeptTraces+10; i++ {
		tr := NewTrace("s", "", src)
		tr.Finish()
		o.OnTrace(tr)
	}
	if n := len(o.Traces()); n != maxKeptTraces {
		t.Errorf("ring holds %d traces, want %d", n, maxKeptTraces)
	}
}

// TestConcurrentUse drives the registry, the observer, and span creation
// from many goroutines; run with -race to verify the locking.
func TestConcurrentUse(t *testing.T) {
	src, _, _, _ := diskSource(t)
	o := NewObserver()
	tr := NewTrace("stmt", "", src)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				o.Registry().Counter("c").Add(1)
				o.Registry().Histogram("h").Observe(time.Duration(i) * time.Microsecond)
				sp := tr.Root().Child("child", "")
				sp.Set("g", "x")
				sp.Finish()
				t2 := NewTrace("t", "", src)
				t2.Finish()
				o.OnTrace(t2)
			}
		}(g)
	}
	wg.Wait()
	tr.Finish()
	if got := o.Registry().Counter("c").Value(); got != 8*200 {
		t.Errorf("counter = %d, want %d", got, 8*200)
	}
	if len(tr.Root().Children) != 8*200 {
		t.Errorf("children = %d", len(tr.Root().Children))
	}
	if _, err := tr.JSON(); err != nil {
		t.Fatal(err)
	}
}

// TestGaugeSetMax verifies the atomic high-water-mark update: sequentially
// it never lowers the value, and concurrently no peak is lost to a
// read-then-set race (run with -race).
func TestGaugeSetMax(t *testing.T) {
	g := NewRegistry().Gauge("peak")
	g.SetMax(5)
	g.SetMax(3)
	if got := g.Value(); got != 5 {
		t.Fatalf("SetMax lowered the gauge to %d", got)
	}
	var wg sync.WaitGroup
	for i := int64(1); i <= 64; i++ {
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			g.SetMax(n)
		}(i)
	}
	wg.Wait()
	if got := g.Value(); got != 64 {
		t.Fatalf("concurrent SetMax peak = %d, want 64", got)
	}
}

// TestFinishedTraceReleasesItsDisk: a finished trace kept alive no longer
// reaches the disk (and pool) it measured, so a retained result does not pin
// its whole simulated database.
func TestFinishedTraceReleasesItsDisk(t *testing.T) {
	collected := make(chan struct{})
	tr := func() *Trace {
		disk := sim.NewDisk(sim.DefaultCostModel())
		runtime.SetFinalizer(disk, func(*sim.Disk) { close(collected) })
		tr := NewTrace("stmt", "", Source{Disk: disk, Pool: buffer.New(disk, 4*sim.PageSize)})
		tr.Root().Child("phase", "").Finish()
		tr.Finish()
		return tr
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(tr)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(tr)
	t.Fatal("a finished trace still reaches its disk")
}
