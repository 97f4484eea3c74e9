// Package sched executes the independent nodes of a bulk-delete plan DAG
// concurrently over the devices of the simulated disk array, and computes
// a deterministic parallel schedule from what each node cost.
//
// The execution and the reported timing are deliberately decoupled:
//
//   - Execution is real concurrency. Nodes are grouped by the device whose
//     arm they own and each device's nodes run FIFO in plan order on its
//     own goroutine, with a global semaphore bounding the worker count.
//     Exactly one node touches a device (and its buffer-pool shard) at a
//     time, so every node's cost is measured exactly as the busy-time
//     delta of its device — no other goroutine can charge that device.
//
//   - Reported timing is a virtual schedule. Goroutine interleaving is
//     nondeterministic, but the measured per-node durations are not (the
//     device head state between same-device nodes follows plan order, and
//     the buffer-pool shard is private to the device). The makespan, the
//     per-node start/finish ordinals, and the critical path are therefore
//     computed offline by deterministic list scheduling of the measured
//     durations onto `workers` virtual workers under device exclusivity —
//     the same plan + seed always reports the same schedule, regardless of
//     how the goroutines actually interleaved.
//
// The nodes are mutually independent — the bulk-delete executor's per-index
// ⋈̸ passes form a plain fan-out — so only device exclusivity and the worker
// count order them.
package sched

import (
	"context"
	"sync"
	"time"

	"bulkdel/internal/sim"
)

// Node is one schedulable unit of work: a closure that, when run, performs
// I/O only against files placed on the given device (plus CPU charges,
// which land on the global clock and are accounted by the caller).
type Node struct {
	// Label identifies the node in the reported schedule (e.g. the index
	// name of a ⋈̸ pass).
	Label string
	// Device is the spindle whose arm the node owns while it runs.
	Device int
	// Run does the work. It is called at most once, from a scheduler
	// goroutine.
	Run func() error
}

// Item is one node's position in the computed schedule.
type Item struct {
	Label    string
	Device   int
	Worker   int           // virtual worker the node was placed on
	Start    time.Duration // virtual start, relative to the section start
	Finish   time.Duration
	Duration time.Duration // measured device busy time of the node
}

// Schedule reports the deterministic virtual schedule of one parallel
// section.
type Schedule struct {
	Workers  int
	Items    []Item // in plan (node) order
	Makespan time.Duration
	Critical []int // node indexes of one start-to-finish critical chain
	// AdmissionWait is the total *real* time this section's nodes spent
	// blocked on the DB-wide admission pool — contention from concurrent
	// statements, so zero for an uncontended run and nondeterministic
	// otherwise. It is measured, not part of the virtual schedule.
	AdmissionWait time.Duration
}

// Execute runs the nodes with at most `workers` concurrent goroutines (one
// per device at most — device exclusivity), measures each node's duration
// as its device's busy-time delta, and returns the deterministic virtual
// schedule. On error the first failing node's error (in plan order) is
// returned; nodes not yet started are skipped.
func Execute(disk *sim.Disk, workers int, nodes []Node) (*Schedule, error) {
	return ExecutePool(nil, disk, workers, nodes)
}

// ExecutePool is Execute under a shared admission pool: in addition to the
// statement-local `workers` semaphore, each node takes a pool slot (so
// concurrent statements split the DB-wide budget rather than each using
// their own) and the pool's per-device mutex (so device exclusivity — and
// the exactness of the busy-delta measurement — survives other statements
// running at the same time). A nil pool is plain Execute.
//
// Lock order is fixed everywhere: local slot, then pool slot, then device
// mutex. A node holding all three never waits on anything but its own
// I/O, so the layered acquisition cannot deadlock.
func ExecutePool(pool *Pool, disk *sim.Disk, workers int, nodes []Node) (*Schedule, error) {
	return ExecutePoolCtx(context.Background(), pool, disk, workers, nodes)
}

// ExecutePoolCtx is ExecutePool under an external cancellation signal: a
// DAG-node boundary is a cancel checkpoint, so when ctx is done no further
// node starts (nodes already running finish — their Run closures observe
// the same ctx at their own page-I/O checkpoints) and the section returns
// ctx.Err(). A node's own error still wins over the cancellation, since it
// is what forced the abort in the first place.
func ExecutePoolCtx(ctx context.Context, pool *Pool, disk *sim.Disk, workers int, nodes []Node) (*Schedule, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers < 1 {
		workers = 1
	}
	n := len(nodes)
	if n == 0 {
		return &Schedule{Workers: workers}, nil
	}

	// Group node indexes by device, preserving plan order: the per-device
	// FIFO makes the head state each node inherits deterministic.
	byDev := make(map[int][]int)
	var devOrder []int
	for i, nd := range nodes {
		if _, ok := byDev[nd.Device]; !ok {
			devOrder = append(devOrder, nd.Device)
		}
		byDev[nd.Device] = append(byDev[nd.Device], i)
	}

	var (
		sem      = make(chan struct{}, workers)
		errs     = make([]error, n)
		durs     = make([]time.Duration, n)
		admWaits = make([]time.Duration, n)
		abort    = make(chan struct{})
		abortMu  sync.Mutex
		closed   bool
		wg       sync.WaitGroup
	)
	abortAll := func() {
		abortMu.Lock()
		if !closed {
			closed = true
			close(abort)
		}
		abortMu.Unlock()
	}

	// Feed external cancellation into the internal abort channel; the
	// watcher exits with the section.
	sectionDone := make(chan struct{})
	defer close(sectionDone)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				abortAll()
			case <-sectionDone:
			}
		}()
	}

	for _, dev := range devOrder {
		queue := byDev[dev]
		wg.Add(1)
		go func(dev int, queue []int) {
			defer wg.Done()
			for _, i := range queue {
				nd := nodes[i]
				select {
				case sem <- struct{}{}:
				case <-abort:
					continue
				}
				if pool != nil {
					ok, waited := pool.acquire(abort)
					admWaits[i] = waited
					if !ok {
						<-sem
						continue
					}
				}
				var devMu *sync.Mutex
				if pool != nil {
					devMu = pool.deviceMu(dev)
					devMu.Lock()
				}
				busy0 := disk.DeviceBusy(dev)
				err := nd.Run()
				durs[i] = disk.DeviceBusy(dev) - busy0
				if devMu != nil {
					devMu.Unlock()
				}
				pool.release()
				<-sem
				if err != nil {
					errs[i] = err
					abortAll()
				}
			}
		}(dev, queue)
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc := Plan(workers, nodes, durs)
	for _, w := range admWaits {
		sc.AdmissionWait += w
	}
	return sc, nil
}

// Plan computes the deterministic virtual schedule: the nodes, in plan
// order, are list-scheduled onto `workers` virtual workers with device
// exclusivity (a device serves one node at a time). It is exported so tests
// (and the executor's serial mode) can schedule measured durations without
// re-running anything.
func Plan(workers int, nodes []Node, durs []time.Duration) *Schedule {
	if workers < 1 {
		workers = 1
	}
	n := len(nodes)
	sc := &Schedule{Workers: workers, Items: make([]Item, n)}
	workerFree := make([]time.Duration, workers)
	deviceFree := make(map[int]time.Duration)
	finish := make([]time.Duration, n)
	start := make([]time.Duration, n)
	assigned := make([]int, n)

	for i, nd := range nodes {
		ready := deviceFree[nd.Device]
		// Earliest-free virtual worker; ties broken by lowest index.
		w := 0
		for j := 1; j < workers; j++ {
			if workerFree[j] < workerFree[w] {
				w = j
			}
		}
		if workerFree[w] > ready {
			ready = workerFree[w]
		}
		start[i] = ready
		finish[i] = ready + durs[i]
		workerFree[w] = finish[i]
		deviceFree[nd.Device] = finish[i]
		assigned[i] = w
		sc.Items[i] = Item{
			Label:    nd.Label,
			Device:   nd.Device,
			Worker:   w,
			Start:    start[i],
			Finish:   finish[i],
			Duration: durs[i],
		}
		if finish[i] > sc.Makespan {
			sc.Makespan = finish[i]
		}
	}

	// Critical path: walk back from the last-finishing node through
	// whichever constraint (device or worker occupancy) forced each start
	// time, preferring the device, then the worker, with the lowest node
	// index breaking remaining ties.
	last := -1
	for i := 0; i < n; i++ {
		if last == -1 || finish[i] > finish[last] {
			last = i
		}
	}
	for cur := last; cur >= 0; {
		sc.Critical = append(sc.Critical, cur)
		next := -1
		pick := func(j int) {
			if finish[j] == start[cur] && next == -1 {
				next = j
			}
		}
		for j := 0; j < cur && next == -1; j++ {
			if nodes[j].Device == nodes[cur].Device {
				pick(j)
			}
		}
		for j := 0; j < cur && next == -1; j++ {
			if assigned[j] == assigned[cur] {
				pick(j)
			}
		}
		cur = next
	}
	// The walk built the chain finish-to-start; reverse it.
	for i, j := 0, len(sc.Critical)-1; i < j; i, j = i+1, j-1 {
		sc.Critical[i], sc.Critical[j] = sc.Critical[j], sc.Critical[i]
	}
	return sc
}
