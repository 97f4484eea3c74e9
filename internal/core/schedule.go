package core

import "time"

// Item is one pass's position in a parallel section's virtual schedule.
type Item struct {
	Label    string
	Device   int
	Worker   int           // virtual worker the pass was placed on
	Start    time.Duration // virtual start, relative to the section start
	Finish   time.Duration
	Duration time.Duration // measured device busy time of the pass
}

// Schedule is the deterministic virtual schedule of one parallel section:
// the passes of a phase, run one after another in plan order, placed by
// what each one cost on its own device.
type Schedule struct {
	Workers  int
	Items    []Item // in plan order
	Makespan time.Duration
	Critical []int // item indexes of one start-to-finish critical chain
}

// planSchedule list-schedules items, in plan order, onto `workers` virtual
// workers with device exclusivity (a device serves one pass at a time).
// Each item arrives with its Label, Device and Duration set; planSchedule
// fills in Worker, Start and Finish. The same durations always give the
// same schedule, so every parallel number is a function of the plan and
// the seed.
func planSchedule(workers int, items []Item) *Schedule {
	workers = max(workers, 1)
	sc := &Schedule{Workers: workers, Items: items}
	workerFree := make([]time.Duration, workers)
	deviceFree := make(map[int]time.Duration)

	for i := range items {
		it := &items[i]
		ready := deviceFree[it.Device]
		// Earliest-free virtual worker; ties broken by lowest index.
		w := 0
		for j := 1; j < workers; j++ {
			if workerFree[j] < workerFree[w] {
				w = j
			}
		}
		ready = max(ready, workerFree[w])
		it.Worker, it.Start, it.Finish = w, ready, ready+it.Duration
		workerFree[w], deviceFree[it.Device] = it.Finish, it.Finish
		sc.Makespan = max(sc.Makespan, it.Finish)
	}

	// Critical path: walk back from the last-finishing item through
	// whichever constraint (device or worker occupancy) forced each start
	// time, preferring the device, then the worker, with the lowest item
	// index breaking remaining ties.
	last := -1
	for i := range items {
		if last == -1 || items[i].Finish > items[last].Finish {
			last = i
		}
	}
	for cur := last; cur >= 0; {
		sc.Critical = append(sc.Critical, cur)
		next := -1
		for _, sameDevice := range []bool{true, false} {
			for j := 0; j < cur && next == -1; j++ {
				shares := items[j].Worker == items[cur].Worker
				if sameDevice {
					shares = items[j].Device == items[cur].Device
				}
				if shares && items[j].Finish == items[cur].Start {
					next = j
				}
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
