package sched

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"bulkdel/internal/sim"
)

// testDisk builds a disk array with n devices and one 32-page file per
// device, returning the disk and the per-device file IDs.
func testDisk(t *testing.T, n int) (*sim.Disk, []sim.FileID) {
	t.Helper()
	d := sim.NewDisk(sim.DefaultCostModel())
	d.ConfigureDevices(n)
	files := make([]sim.FileID, n)
	for i := range files {
		id, err := d.CreateFileOn(i)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = id
		for p := 0; p < 32; p++ {
			if _, err := d.Allocate(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d, files
}

// ioNode returns a node that reads `pages` random-ish pages of file on dev.
func ioNode(d *sim.Disk, label string, dev int, file sim.FileID, pages int) Node {
	return Node{
		Label:  label,
		Device: dev,
		Run: func() error {
			buf := make([]byte, sim.PageSize)
			for i := 0; i < pages; i++ {
				if err := d.ReadPage(file, sim.PageNo((i*7)%32), buf); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func TestExecuteDeterministicSchedule(t *testing.T) {
	run := func() *Schedule {
		d, files := testDisk(t, 4)
		nodes := []Node{
			ioNode(d, "a", 0, files[0], 20),
			ioNode(d, "b", 1, files[1], 10),
			ioNode(d, "c", 2, files[2], 30),
			ioNode(d, "d", 3, files[3], 5),
			ioNode(d, "e", 0, files[0], 8), // second node on device 0
		}
		sc, err := Execute(context.Background(), nil, d, 4, nodes)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	first := run()
	if first.Makespan <= 0 {
		t.Fatalf("makespan %v, want > 0", first.Makespan)
	}
	for i := 0; i < 5; i++ {
		again := run()
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("schedule differs across runs:\n%+v\n%+v", first, again)
		}
	}
	// Device exclusivity in the virtual schedule: the two device-0 nodes
	// must not overlap.
	a, e := first.Items[0], first.Items[4]
	if e.Start < a.Finish && a.Start < e.Finish {
		t.Fatalf("device-0 nodes overlap: %+v vs %+v", a, e)
	}
}

func TestExecuteParallelSpeedup(t *testing.T) {
	d, files := testDisk(t, 4)
	var nodes []Node
	for i := 0; i < 4; i++ {
		nodes = append(nodes, ioNode(d, "n", i, files[i], 25))
	}
	sc, err := Execute(context.Background(), nil, d, 4, nodes)
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	for _, it := range sc.Items {
		total += it.Duration
	}
	// Four equal nodes on four devices: the makespan must be far below the
	// serial sum (it equals the slowest node).
	if sc.Makespan*3 > total {
		t.Fatalf("makespan %v vs serial %v: no overlap achieved", sc.Makespan, total)
	}
}

func TestExecuteWorkerLimit(t *testing.T) {
	d, files := testDisk(t, 4)
	var running, peak atomic.Int32
	mk := func(dev int) Node {
		return Node{
			Label:  "n",
			Device: dev,
			Run: func() error {
				cur := running.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				buf := make([]byte, sim.PageSize)
				err := d.ReadPage(files[dev], 0, buf)
				running.Add(-1)
				return err
			},
		}
	}
	nodes := []Node{mk(0), mk(1), mk(2), mk(3)}
	if _, err := Execute(context.Background(), nil, d, 2, nodes); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("observed %d concurrent nodes, worker limit is 2", p)
	}
}

func TestExecuteError(t *testing.T) {
	d, files := testDisk(t, 2)
	boom := errors.New("boom")
	nodes := []Node{
		ioNode(d, "ok", 0, files[0], 3),
		{Label: "bad", Device: 1, Run: func() error { return boom }},
	}
	if _, err := Execute(context.Background(), nil, d, 2, nodes); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestPlanMath(t *testing.T) {
	nodes := []Node{
		{Label: "a", Device: 1},
		{Label: "b", Device: 2},
		{Label: "c", Device: 1},
	}
	durs := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 5 * time.Millisecond}
	sc := Plan(2, nodes, durs)
	if sc.Makespan != 20*time.Millisecond {
		t.Fatalf("makespan %v, want 20ms", sc.Makespan)
	}
	if sc.Items[2].Start != 10*time.Millisecond {
		t.Fatalf("node c start %v, want 10ms (device busy)", sc.Items[2].Start)
	}
	if len(sc.Critical) == 0 || sc.Critical[len(sc.Critical)-1] != 1 {
		t.Fatalf("critical path %v, want to end at node 1", sc.Critical)
	}
}

func TestPlanSerialWorker(t *testing.T) {
	nodes := []Node{
		{Label: "a", Device: 1},
		{Label: "b", Device: 2},
		{Label: "c", Device: 3},
	}
	durs := []time.Duration{10 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond}
	sc := Plan(1, nodes, durs)
	if sc.Makespan != 30*time.Millisecond {
		t.Fatalf("one worker must serialize: makespan %v, want 30ms", sc.Makespan)
	}
}
