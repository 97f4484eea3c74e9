// Package obs is the engine's observability layer: a metrics registry
// (counters, gauges, simulated-clock histograms), snapshot/diff arithmetic
// over the engine's physical counters, and a span tracer keyed to the
// simulated clock.
//
// The paper's entire argument is quantitative — the vertical ⋈̸ operator
// wins because it converts random per-record I/O into sequential leaf
// passes — so the engine needs to *attribute* I/O, cache behaviour, and WAL
// volume to individual plan phases, not just report global totals. obs does
// that without touching the hot paths: the simulated disk, the buffer pool,
// and the WAL already keep cheap global counters; obs snapshots them around
// arbitrary scopes and diffs the snapshots. Because every engine pass runs
// single-threaded within one statement, the diff of one span is exactly the
// work that span caused (concurrent updaters sharing the disk blur the
// attribution, which is inherent to counter-diffing and documented on
// Span.IO).
//
// Everything here is safe for concurrent use; the concurrent example
// exercises the registry and observer from multiple goroutines.
package obs

import (
	"fmt"
	"time"

	"bulkdel/internal/buffer"
	"bulkdel/internal/sim"
)

// Source names the counter providers a Snapshot reads. Any field may be
// nil/zero; the corresponding counters then stay zero.
type Source struct {
	Disk *sim.Disk
	Pool *buffer.Pool
	// WALBytes returns the bytes made durable in the write-ahead log so far:
	// a count that never rewinds, unlike the log's stream offset, which a
	// restart resets (nil when logging is off).
	WALBytes func() uint64
}

// Capture reads every counter at one instant.
func (s Source) Capture() Snapshot {
	var snap Snapshot
	if s.Disk != nil {
		snap.Clock = s.Disk.Clock()
		snap.Disk = s.Disk.Stats()
	}
	if s.Pool != nil {
		snap.Pool = s.Pool.Stats()
	}
	if s.WALBytes != nil {
		snap.WALBytes = s.WALBytes()
	}
	return snap
}

// Snapshot is a point-in-time capture of the engine's physical counters:
// the simulated clock, the disk operation counts, the buffer-pool counters,
// and the WAL volume.
type Snapshot struct {
	Clock    time.Duration
	Disk     sim.Stats
	Pool     buffer.Stats
	WALBytes uint64
}

// Sub returns the work done between the earlier snapshot b and s.
// Differences are saturating: a counter reset between the snapshots yields
// zero, not a wrapped huge value.
func (s Snapshot) Sub(b Snapshot) Delta {
	return Delta{
		Elapsed:     maxDur(s.Clock-b.Clock, 0),
		Reads:       satSub(s.Disk.Reads, b.Disk.Reads),
		Writes:      satSub(s.Disk.Writes, b.Disk.Writes),
		Seeks:       satSub(s.Disk.RandomOps, b.Disk.RandomOps),
		NearOps:     satSub(s.Disk.NearOps, b.Disk.NearOps),
		SeqOps:      satSub(s.Disk.SeqOps, b.Disk.SeqOps),
		ChainedRuns: satSub(s.Disk.ChainedRuns, b.Disk.ChainedRuns),
		Allocated:   satSub(s.Disk.Allocated, b.Disk.Allocated),
		Compares:    satSub(s.Disk.Compares, b.Disk.Compares),
		Records:     satSub(s.Disk.Records, b.Disk.Records),
		Hits:        satSub(s.Pool.Hits, b.Pool.Hits),
		Misses:      satSub(s.Pool.Misses, b.Pool.Misses),
		Evictions:   satSub(s.Pool.Evictions, b.Pool.Evictions),
		DirtyEvicts: satSub(s.Pool.DirtyEvicts, b.Pool.DirtyEvicts),
		Swept:       satSub(s.Pool.Swept, b.Pool.Swept),
		WALBytes:    satSub(s.WALBytes, b.WALBytes),
		Faults:      satSub(s.Disk.FaultsInjected, b.Disk.FaultsInjected),
	}
}

func satSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

func maxDur(a, b time.Duration) time.Duration {
	if a < b {
		return b
	}
	return a
}

// Delta is the work done between two snapshots, attributable to whatever
// ran in between.
type Delta struct {
	Elapsed     time.Duration // simulated time
	Reads       uint64        // pages read
	Writes      uint64        // pages written
	Seeks       uint64        // operations that paid the full positioning charge
	NearOps     uint64        // same-cylinder short jumps
	SeqOps      uint64        // successor accesses (transfer only)
	ChainedRuns uint64        // multi-page chained I/Os issued
	Allocated   uint64        // pages allocated
	Compares    uint64        // key comparisons charged
	Records     uint64        // per-record CPU charges
	Hits        uint64        // buffer-pool hits
	Misses      uint64        // buffer-pool misses
	Evictions   uint64        // frames evicted
	DirtyEvicts uint64        // evictions that wrote back
	Swept       uint64        // pages written by those evictions' sweeps
	WALBytes    uint64        // log bytes made durable
	Faults      uint64        // injected I/O faults tripped (crash tests)
}

// Add accumulates another delta into d.
func (d *Delta) Add(o Delta) {
	d.Elapsed += o.Elapsed
	d.Reads += o.Reads
	d.Writes += o.Writes
	d.Seeks += o.Seeks
	d.NearOps += o.NearOps
	d.SeqOps += o.SeqOps
	d.ChainedRuns += o.ChainedRuns
	d.Allocated += o.Allocated
	d.Compares += o.Compares
	d.Records += o.Records
	d.Hits += o.Hits
	d.Misses += o.Misses
	d.Evictions += o.Evictions
	d.DirtyEvicts += o.DirtyEvicts
	d.Swept += o.Swept
	d.WALBytes += o.WALBytes
	d.Faults += o.Faults
}

// HitRatio returns the buffer-pool hit ratio in [0,1], or -1 when the span
// touched the pool not at all.
func (d Delta) HitRatio() float64 {
	total := d.Hits + d.Misses
	if total == 0 {
		return -1
	}
	return float64(d.Hits) / float64(total)
}

// String renders the delta compactly for explain output.
func (d Delta) String() string {
	s := fmt.Sprintf("time=%v reads=%d writes=%d seeks=%d", d.Elapsed, d.Reads, d.Writes, d.Seeks)
	if hr := d.HitRatio(); hr >= 0 {
		s += fmt.Sprintf(" hit=%.1f%%", hr*100)
	}
	if d.WALBytes > 0 {
		s += fmt.Sprintf(" wal=%s", FmtBytes(d.WALBytes))
	}
	return s
}

// FmtBytes renders a byte count with a binary unit.
func FmtBytes(n uint64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
