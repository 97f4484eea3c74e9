// Command benchmark is the repository's benchmark: four workloads that enter
// the engine at the wire or at the root API, checked against a shadow model,
// reporting end-to-end metrics (untraced run) and per-layer metrics (traced
// run) on both the wall clock and the simulated clock. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// stderr receives diagnostics; the smoke test silences it.
var stderr io.Writer = os.Stderr

// testCorrupt is set by the smoke test only; see config.corrupt.
var testCorrupt bool

func main() { os.Exit(realMain(os.Args[1:], os.Stdout)) }

func realMain(args []string, stdout io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "oltp_heap, bulk_heap, mixed_heap, lsm_tenant, or all (each in a fresh process)")
	seed := fs.Int64("seed", 1, "seed of the statement stream; with -runs N the runs use seed, seed+1, ...")
	seconds := fs.Float64("seconds", 10, "wall time to measure: whole rounds run until it has passed, never fewer than the counted prefix")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and span file (with -workload all: both)")
	scale := fs.Float64("scale", 1, "shrink rows and round sizes, for smoke tests")
	runs := fs.Int("runs", 1, "with -workload all: runs per workload, for a result set `compare` can judge spread on")
	outDir := fs.String("out", "out", "directory for result and span files")
	jsonPath := fs.String("json", "", "result-set file to write (default <out>/<workload>.trace<N>.json, or <out>/results.json for all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 || *scale <= 0 || *scale > 1 || *runs < 1 || *seconds < 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	if *name == "all" {
		path := *jsonPath
		if path == "" {
			path = filepath.Join(*outDir, "results.json")
		}
		return runAll(stdout, *seed, *seconds, *trace, *scale, *runs, *outDir, path)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cfg := &config{w: w.scaled(*scale), seed: *seed, seconds: *seconds, trace: *trace, scale: *scale, outDir: *outDir, corrupt: testCorrupt}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace == 1 {
		defs = perLayer
	}
	path := *jsonPath
	if path == "" {
		path = filepath.Join(*outDir, fmt.Sprintf("%s.trace%d.json", w.name, cfg.trace))
	}
	if err := writeResults(path, []runResult{*res}); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := res.print(stdout, defs); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// passes is how many times the untraced run sets a database up and measures
// it. The sandbox's speed wanders by a tenth and more over tens of seconds,
// whatever runs; three passes sample three moments instead of one.
const passes = 3

// runWorkload executes one run of one workload in this process. The traced
// run is described in trace.go. The untraced run makes three passes, each a
// fresh set-up, the counted prefix and a third of the timed window, and
// reports the median of the three for every metric but mem_sys_mb, which is
// read once, after the last pass.
func runWorkload(cfg *config) (*runResult, error) {
	var res *runResult
	if cfg.trace == 1 {
		var err error
		if res, err = tracedRun(cfg); err != nil {
			return nil, err
		}
	} else {
		res = &runResult{Workload: cfg.w.name, Samples: map[string]int{}}
		perPass := make(map[string][]float64, len(endToEnd))
		vals := make(map[string]float64, len(endToEnd))
		for pass := 0; pass < passes; pass++ {
			ph, err := runPhase(cfg, phaseOpts{depth: cfg.w.entry, seconds: cfg.seconds / passes, crash: pass == passes-1})
			if err != nil {
				return nil, err
			}
			res.Attempted += ph.attempted
			res.Failed += ph.failed
			for k, name := range kindNames {
				res.Samples[name] += len(ph.lat[k])
			}
			for name, v := range endToEndMetrics(cfg, ph) {
				perPass[name] = append(perPass[name], v)
				vals[name] = v
			}
		}
		for name, vs := range perPass {
			if name != "mem_sys_mb" {
				vals[name] = median(vs)
			}
		}
		if err := res.fill(endToEnd, vals); err != nil {
			return nil, err
		}
	}
	res.Seed, res.Trace, res.Seconds, res.Scale = cfg.seed, cfg.trace, cfg.seconds, cfg.scale
	res.Correct = res.Failed == 0
	return res, nil
}

// runAll runs every workload in a fresh process each — this binary again —
// so that no workload inherits another's heap, and collects the results.
func runAll(stdout io.Writer, seed int64, seconds float64, trace int, scale float64, runs int, outDir, path string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var all []runResult
	code := 0
	for run := 0; run < runs; run++ {
		for _, w := range workloads {
			for t := 0; t <= trace; t++ {
				res, err := runChild(self, stdout, w.name, seed+int64(run), seconds, t, scale, outDir)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
					code = 1
					continue
				}
				all = append(all, *res)
				if !res.Correct {
					code = 1
				}
			}
		}
	}
	if err := writeResults(path, all); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "results: %s\n", path)
	return code
}

// runChild runs one workload in a child process, passes its report through,
// and parses the result it wrote.
func runChild(self string, stdout io.Writer, name string, seed int64, seconds float64, trace int, scale float64, outDir string) (*runResult, error) {
	path := filepath.Join(outDir, fmt.Sprintf("%s.trace%d.json", name, trace))
	cmd := exec.Command(self,
		"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
		"-scale", strconv.FormatFloat(scale, 'g', -1, 64), "-out", outDir, "-json", path)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	_ = os.Remove(path) // a stale result must not pass for this run's
	runErr := cmd.Run() // waits for the child; a failed run still wrote its result
	set, err := readResults(path)
	if err != nil || len(set.Runs) != 1 {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result in %s: %v", path, err)
	}
	return &set.Runs[0], nil
}

func writeResults(path string, runs []runResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(resultSet{Runs: runs}); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func readResults(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}
