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
// The experiments are the rows of bench.Specs (fig1, exp1 (fig7) … exp5
// (fig10), the ablations and extensions), plus plans (Figures 3/4/5) and
// all. A row that states a claim checks it on every run — the parallel
// makespan never worse than serial, the partitioned heap 2.5x faster at 4
// devices, the LSM tombstone's O(1) I/O. A failed check is reported on
// stderr once its experiment's table and files are written; the remaining
// experiments still run, and bulkbench exits non-zero at the end.
//
// -devices/-parallel run any experiment on a simulated disk array with
// parallel index passes; the parallel and heapscale experiments sweep the
// array width themselves.
//
// At the paper's full scale (-rows 1000000) a complete -exp all run builds
// dozens of 512 MB databases and takes a while of real time; the simulated
// results at -rows 100000 show the same shapes in minutes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"bulkdel/internal/bench"
	"bulkdel/internal/obs"
)

func main() {
	names := []string{"plans"}
	for _, s := range bench.Specs {
		names = append(names, s.Name())
	}
	names = append(names, "all")
	var (
		exp      = flag.String("exp", "all", "experiment: "+strings.Join(names, ", "))
		rows     = flag.Int("rows", bench.FullScaleRows, "table size (paper: 1000000)")
		seed     = flag.Int64("seed", 1, "workload seed")
		devices  = flag.Int("devices", 0, "run on a simulated disk array this wide (0 = single spindle)")
		parallel = flag.Int("parallel", 0, "cap the bulk deletes' index-pass workers (needs -devices)")
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

	want := strings.ToLower(*exp)
	if !slices.Contains(names, want) {
		fatal(fmt.Errorf("unknown experiment %q (want %s)", *exp, strings.Join(names, ", ")))
	}
	if want == "plans" || want == "all" {
		out, err := bench.PlanGallery()
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	}
	failed := 0
	for _, s := range bench.Specs {
		if want != "all" && want != s.Name() {
			continue
		}
		e, checkErr := r.Run(s)
		if checkErr != nil && !errors.Is(checkErr, bench.ErrCheck) {
			fatal(fmt.Errorf("%s: %w", s.Name(), checkErr))
		}
		fmt.Println()
		fmt.Println(e.Format())
		var err error
		if *jsonDir != "" {
			err = write(*jsonDir, "BENCH_"+s.Name()+".json", e.JSON)
		}
		if err == nil && *traceDir != "" {
			err = write(*traceDir, "BENCH_"+s.Name()+"_trace.json", func() ([]byte, error) { return chromeTrace(e) })
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", s.Name(), err))
		}
		if checkErr != nil {
			fmt.Fprintf(os.Stderr, "bulkbench: %s: %v\n", s.Name(), checkErr)
			failed++
		}
	}
	fmt.Printf("done in %s of real time\n", time.Since(started).Round(time.Second))
	if failed > 0 {
		fatal(fmt.Errorf("%d experiment check(s) failed", failed))
	}
}

// write encodes one output file into dir and names it on stdout.
func write(dir, name string, encode func() ([]byte, error)) error {
	j, err := encode()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, append(j, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// chromeTrace encodes every run's statement span tree as one Chrome
// trace_event file: one thread per (series, point) run, so the whole
// experiment renders side by side in chrome://tracing.
func chromeTrace(e bench.Experiment) ([]byte, error) {
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
	return ct.JSON()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bulkbench:", err)
	os.Exit(1)
}
