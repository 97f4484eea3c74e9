// Command bulkbench reproduces the evaluation of "Efficient Bulk Deletes in
// Relational Databases" (ICDE 2001): every figure and table of §4 plus the
// motivating Figure 1, on the simulated disk, printing the same series the
// paper plots (running times in minutes).
//
// Usage:
//
//	bulkbench -exp all                # everything (full scale: 1M rows)
//	bulkbench -exp exp1 -rows 100000  # Figure 7 at 1/10 scale
//	bulkbench -exp plans              # Figures 3/4/5 as explain output
//
// Experiments: fig1, exp1 (fig7), exp2 (fig8), exp3 (table1), exp4 (fig9),
// exp5 (fig10), plans (fig3/4/5), reorg (fig6 ablation), methods (sort vs
// hash ablation), parallel (DAG scheduler on a multi-device array),
// heapscale (partitioned heap across the array), all.
//
// -devices/-parallel run any experiment on a simulated disk array with
// parallel index passes; the parallel and heapscale experiments sweep the
// array width themselves. -check-parallel turns the parallel experiment
// into a smoke test: the run fails unless the scheduled makespan is never
// worse than the serial time. -check-heapscale does the same for the
// heapscale experiment, requiring the partitioned heap pass at 4 devices
// to beat the single-spindle run by at least 2.5x.
//
// At the paper's full scale (-rows 1000000) a complete -exp all run builds
// dozens of 512 MB databases and takes a while of real time; the simulated
// results at -rows 100000 show the same shapes in minutes.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bulkdel/internal/bench"
	"bulkdel/internal/obs"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: fig1, exp1..exp5, plans, reorg, methods, crossover, update, parallel, heapscale, lsm, all")
		rows     = flag.Int("rows", bench.FullScaleRows, "table size (paper: 1000000)")
		seed     = flag.Int64("seed", 1, "workload seed")
		devices  = flag.Int("devices", 0, "run on a simulated disk array this wide (0 = single spindle)")
		parallel = flag.Int("parallel", 0, "cap the bulk deletes' index-pass workers (needs -devices)")
		check    = flag.Bool("check-parallel", false, "fail unless the parallel experiment's makespan is never worse than serial (CI smoke)")
		checkHS  = flag.Bool("check-heapscale", false, "fail unless the heapscale experiment shows a 2.5x speedup at 4 devices (CI smoke)")
		checkLSM = flag.Bool("check-lsm", false, "fail unless the lsm experiment's tombstone cost is O(1) across selectivities (CI smoke)")
		quiet    = flag.Bool("q", false, "suppress per-run progress")
		jsonDir  = flag.String("json", "", "also write each experiment as BENCH_<id>.json into this directory (\".\" for cwd)")
		traceDir = flag.String("trace", "", "also write each experiment's statement span trees as a Chrome trace_event\nfile (BENCH_<id>_trace.json, open in chrome://tracing) into this directory")
		started  = time.Now()
	)
	flag.Parse()

	r := &bench.Runner{Rows: *rows, Seed: *seed, Devices: *devices, Parallel: *parallel}
	if !*quiet {
		r.Progress = func(line string) { fmt.Println(line) }
	}
	scale := float64(*rows) / float64(bench.FullScaleRows)
	fmt.Printf("bulkbench: %d rows (scale %.2gx, memory scaled accordingly), seed %d\n\n",
		*rows, scale, *seed)

	type runner struct {
		name string
		fn   func() (bench.Experiment, error)
	}
	all := []runner{
		{"fig1", r.Figure1},
		{"exp1", r.Experiment1},
		{"exp2", r.Experiment2},
		{"exp3", r.Experiment3},
		{"exp4", r.Experiment4},
		{"exp5", r.Experiment5},
		{"reorg", r.ReorgAblation},
		{"methods", r.MethodAblation},
		{"crossover", r.Crossover},
		{"update", r.UpdateAblation},
		{"parallel", r.ParallelScaling},
		{"heapscale", r.HeapScaling},
		{"lsm", r.LSMHeadToHead},
	}

	want := strings.ToLower(*exp)
	ran := 0
	if want == "plans" || want == "all" {
		out, err := bench.PlanGallery()
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
		ran++
	}
	for _, rr := range all {
		if want != "all" && want != rr.name {
			continue
		}
		e, err := rr.fn()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", rr.name, err))
		}
		fmt.Println()
		fmt.Println(e.Format())
		if *check && rr.name == "parallel" {
			if err := verifyParallel(e); err != nil {
				fatal(err)
			}
			fmt.Println("parallel check passed: makespan never worse than serial")
		}
		if *checkHS && rr.name == "heapscale" {
			if err := verifyHeapScale(e); err != nil {
				fatal(err)
			}
			fmt.Println("heapscale check passed: >= 2.5x speedup at 4 devices")
		}
		if *checkLSM && rr.name == "lsm" {
			if err := verifyLSM(e); err != nil {
				fatal(err)
			}
			fmt.Println("lsm check passed: tombstone cost is O(1) across selectivities")
		}
		if *jsonDir != "" {
			path, err := writeJSON(*jsonDir, e)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", rr.name, err))
			}
			fmt.Printf("wrote %s\n", path)
		}
		if *traceDir != "" {
			path, err := writeTrace(*traceDir, e)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", rr.name, err))
			}
			fmt.Printf("wrote %s\n", path)
		}
		ran++
	}
	if ran == 0 {
		fatal(fmt.Errorf("unknown experiment %q (want fig1, exp1..exp5, plans, reorg, methods, crossover, update, parallel, heapscale, lsm, all)", *exp))
	}
	if *check && want != "parallel" && want != "all" {
		fatal(fmt.Errorf("-check-parallel needs the parallel experiment (-exp parallel)"))
	}
	if *checkHS && want != "heapscale" && want != "all" {
		fatal(fmt.Errorf("-check-heapscale needs the heapscale experiment (-exp heapscale)"))
	}
	if *checkLSM && want != "lsm" && want != "all" {
		fatal(fmt.Errorf("-check-lsm needs the lsm experiment (-exp lsm)"))
	}
	fmt.Printf("done in %s of real time\n", time.Since(started).Round(time.Second))
}

// verifyParallel is the CI smoke assertion: at every array width the
// scheduled makespan must be at least as good as the serial time.
func verifyParallel(e bench.Experiment) error {
	pts := map[string][]bench.Point{}
	for _, s := range e.Series {
		pts[s.Label] = s.Points
	}
	ser, par := pts["serial"], pts["parallel"]
	if len(ser) == 0 || len(ser) != len(par) {
		return fmt.Errorf("parallel experiment lacks matching serial/parallel series")
	}
	for i := range ser {
		if par[i].Result.Makespan > ser[i].Result.Makespan {
			return fmt.Errorf("parallel makespan %v worse than serial %v at %s devices",
				par[i].Result.Makespan, ser[i].Result.Makespan, ser[i].X)
		}
	}
	return nil
}

// verifyHeapScale is the CI smoke assertion for the partitioned-heap
// experiment: splitting the heap across a 4-device array must cut the
// scheduled makespan of the heap-dominated delete to at most 1/2.5 of the
// single-spindle serial run.
func verifyHeapScale(e bench.Experiment) error {
	pts := map[string]map[string]bench.Point{}
	for _, s := range e.Series {
		m := map[string]bench.Point{}
		for _, p := range s.Points {
			m[p.X] = p
		}
		pts[s.Label] = m
	}
	base, ok := pts["serial"]["1"]
	if !ok {
		return fmt.Errorf("heapscale experiment lacks the serial single-spindle point")
	}
	par, ok := pts["parallel"]["4"]
	if !ok {
		return fmt.Errorf("heapscale experiment lacks the parallel 4-device point")
	}
	speedup := float64(base.Result.Makespan) / float64(par.Result.Makespan)
	if speedup < 2.5 {
		return fmt.Errorf("heapscale speedup at 4 devices is %.2fx (serial %v, parallel %v), want >= 2.5x",
			speedup, base.Result.Makespan, par.Result.Makespan)
	}
	return nil
}

// verifyLSM is the CI smoke assertion for the head-to-head: the tombstone
// series' statement I/O must be constant (and tiny) across selectivities —
// the O(1) foreground-cost claim — while the B-tree side's grows.
func verifyLSM(e bench.Experiment) error {
	var tomb, heap []bench.Point
	for _, s := range e.Series {
		switch s.Label {
		case "lsm tombstone":
			tomb = s.Points
		case "⋈̸ over B-trees (3 ix)":
			heap = s.Points
		}
	}
	if len(tomb) < 3 || len(heap) < 3 {
		return fmt.Errorf("lsm experiment lacks the tombstone and B-tree series")
	}
	first := tomb[0].Result.Disk.Reads + tomb[0].Result.Disk.Writes
	for _, p := range tomb {
		ios := p.Result.Disk.Reads + p.Result.Disk.Writes
		if ios != first {
			return fmt.Errorf("tombstone I/O varies with selectivity: %d at %s vs %d at %s",
				ios, p.X, first, tomb[0].X)
		}
		if ios > 8 {
			return fmt.Errorf("tombstone statement cost %d I/Os at %s, want O(1)", ios, p.X)
		}
	}
	if last, firstH := heap[len(heap)-1].Result, heap[0].Result; last.SimTime <= firstH.SimTime {
		return fmt.Errorf("B-tree side did not grow with selectivity (%v at %s, %v at %s)",
			firstH.SimTime, heap[0].X, last.SimTime, heap[len(heap)-1].X)
	}
	return nil
}

// writeJSON encodes the experiment as BENCH_<id>.json in dir; the file
// stem is the first field of the experiment ID ("exp1 (fig7)" → exp1).
func writeJSON(dir string, e bench.Experiment) (string, error) {
	stem := strings.Fields(e.ID)[0]
	j, err := e.JSON()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+stem+".json")
	return path, os.WriteFile(path, append(j, '\n'), 0o644)
}

// writeTrace encodes every run's statement span tree as one Chrome
// trace_event file: one thread per (series, point) run, so the whole
// experiment renders side by side in chrome://tracing.
func writeTrace(dir string, e bench.Experiment) (string, error) {
	stem := strings.Fields(e.ID)[0]
	var ct obs.ChromeTrace
	ct.SetProcessName(1, "bulkbench "+e.ID)
	tid := 0
	for _, s := range e.Series {
		for _, p := range s.Points {
			if p.Result.Trace == nil {
				continue
			}
			tid++
			ct.SetThreadName(1, tid, fmt.Sprintf("%s %s=%s", s.Label, e.XLabel, p.X))
			ct.AddSpanTree(1, tid, p.Result.Trace)
		}
	}
	j, err := ct.JSON()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+stem+"_trace.json")
	return path, os.WriteFile(path, append(j, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bulkbench:", err)
	os.Exit(1)
}
