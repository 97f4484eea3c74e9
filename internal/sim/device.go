// Multi-device (multi-spindle) support for the simulated disk.
//
// A Disk models an array of independent devices. Each device has its own
// arm: its own head position (so sequential/near/random tiers are judged
// against the last access *on that device*) and its own busy-time
// accumulator. Files are placed on devices explicitly (PlaceFile /
// CreateFileOn); unplaced files live on device 0, so a Disk configured with
// one device behaves exactly like the original single-spindle model.
//
// The global clock still accumulates every charge — it is the total device
// time, i.e. the elapsed time of a serial execution. The bulk-delete
// executor runs its passes one after another, measures each by the
// busy-time delta of the device it ran on, and computes the wall-clock
// makespan of a parallel plan by list-scheduling those durations onto
// virtual workers, one pass per device at a time; see planSchedule in
// internal/core.
package sim

import (
	"fmt"
	"sort"
	"time"
)

// device is one spindle of the simulated array: an independent arm position
// plus accumulated busy time and per-device operation counters.
type device struct {
	lastFile FileID
	lastPage PageNo
	hasLast  bool
	busy     time.Duration
	stats    Stats
}

// ConfigureDevices grows the array to n devices (numbered 0..n-1). Existing
// devices, their head positions, and their file placements are preserved;
// the array never shrinks, so placements can only become more spread out.
// n < 1 is a no-op.
func (d *Disk) ConfigureDevices(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.devs) < n {
		d.devs = append(d.devs, &device{})
	}
}

// NumDevices reports how many devices the array holds (at least 1).
func (d *Disk) NumDevices() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.devs)
}

// PlaceFile moves a file onto a device. Placement is a catalog operation —
// it costs no simulated time and does not move any pages; it only decides
// which arm future accesses of the file contend for.
func (d *Disk) PlaceFile(id FileID, dev int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.fileLocked(id); err != nil {
		return err
	}
	if dev < 0 || dev >= len(d.devs) {
		return fmt.Errorf("sim: device %d out of range (have %d)", dev, len(d.devs))
	}
	d.fileDev[id] = dev
	return nil
}

// CreateFileOn creates a new empty file placed on the given device.
func (d *Disk) CreateFileOn(dev int) (FileID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if dev < 0 || dev >= len(d.devs) {
		return 0, fmt.Errorf("sim: device %d out of range (have %d)", dev, len(d.devs))
	}
	id := d.nextFile
	d.nextFile++
	d.files[id] = &file{}
	d.fileDev[id] = dev
	return id, nil
}

// DeviceOf reports which device holds the file (0 for unplaced files).
func (d *Disk) DeviceOf(id FileID) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fileDev[id]
}

// DeviceBusy returns the accumulated busy time of one device: every
// positioning and transfer charge for accesses to files placed on it. CPU
// charges are not device work and land only on the global clock.
func (d *Disk) DeviceBusy(dev int) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	if dev < 0 || dev >= len(d.devs) {
		return 0
	}
	return d.devs[dev].busy
}

// DeviceStats returns a snapshot of one device's operation counters
// (Reads, Writes, positioning tiers, ChainedRuns; CPU and fault counters
// are global and stay zero here).
func (d *Disk) DeviceStats(dev int) Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	if dev < 0 || dev >= len(d.devs) {
		return Stats{}
	}
	return d.devs[dev].stats
}

// Placement describes one live file's location and size — the unit of the
// placement policy's and the layout CLI's view of the array.
type Placement struct {
	File   FileID
	Device int
	Pages  PageNo
}

// Placements returns every live (non-dropped) file's placement, sorted by
// file ID. Placement decisions and rebalance planning score devices from
// this snapshot.
func (d *Disk) Placements() []Placement {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Placement, 0, len(d.files))
	for id, f := range d.files {
		if f.dropped {
			continue
		}
		out = append(out, Placement{File: id, Device: d.fileDev[id], Pages: PageNo(len(f.pages))})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].File < out[j].File })
	return out
}
