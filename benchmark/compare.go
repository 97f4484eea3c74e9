package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json `compare` needs: each end-to-end
// metric's direction and the bound by which it may worsen.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// findSpec locates BENCHMARK.json: beside the working directory when the
// command runs from the repository root, one level up from benchmark/.
func findSpec(path string) (*benchSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")}
	}
	var lastErr error
	for _, c := range candidates {
		data, err := os.ReadFile(c)
		if err != nil {
			lastErr = err
			continue
		}
		var spec benchSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", c, err)
		}
		return &spec, nil
	}
	return nil, lastErr
}

// loadSet reads one result set: a file, or every *.json file of a directory.
func loadSet(path string) ([]runResult, error) {
	paths := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(paths)
	}
	var runs []runResult
	for _, p := range paths {
		if strings.HasSuffix(p, ".trace.json") {
			continue // a span file, not a result set
		}
		set, err := readResults(p)
		if err != nil {
			return nil, err
		}
		runs = append(runs, set.Runs...)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return runs, nil
}

// quartiles follows Python's statistics.quantiles(xs, n=4), the definition
// the driver applies. Fewer than two values have no spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spreadOf is the distance between the first and third quartile as a share
// of the median.
func spreadOf(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// judge gives the verdict for one metric on one workload. worse is the
// share of A's median by which B is worse (negative: better); spread is the
// wider of the two sets' own run-to-run spreads.
func judge(worse, spread, bound float64) string {
	switch {
	case worse > bound && worse > spread:
		return "regressed"
	case spread > bound:
		return "unresolved"
	case -worse > spread:
		return "improved"
	}
	return "unchanged"
}

func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "path of BENCHMARK.json (default: ./ then ../)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare [-spec BENCHMARK.json] A B   (result-set files or directories; A is the base)")
		return 2
	}
	spec, err := findSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 2
	}
	a, err := loadSet(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 2
	}
	b, err := loadSet(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 2
	}
	return compareSets(stdout, spec, a, b)
}

// column collects one metric's values over the runs of one workload.
func column(runs []runResult, workload string, trace int, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		if r.Workload == workload && r.Trace == trace {
			if v, ok := r.Metrics[metric]; ok {
				xs = append(xs, v.Value)
			}
		}
	}
	return xs
}

// failRatio is failed over attempted, summed over a workload's runs.
func failRatio(runs []runResult, workload string) (float64, bool) {
	var attempted, failed int64
	for _, r := range runs {
		if r.Workload == workload {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	return ratio(float64(failed), float64(attempted)), attempted > 0
}

func compareSets(w io.Writer, spec *benchSpec, a, b []runResult) int {
	code := 0
	fmt.Fprintf(w, "%-11s %-34s %-6s %14s %14s  %-28s %8s %7s %8s  %s\n",
		"workload", "metric", "unit", "A median", "B median", "B/A (base)", "worse", "bound", "spread", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := column(a, wl.Name, 0, m.Name), column(b, wl.Name, 0, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			spread := spreadOf(xa)
			if s := spreadOf(xb); s > spread {
				spread = s
			}
			verdict := judge(worse, spread, m.Bound)
			if verdict == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%-11s %-34s %-6s %14.6g %14.6g  %-28s %+7.1f%% %6.1f%% %7.1f%%  %s\n",
				wl.Name, m.Name, m.Unit, ma, mb, fmt.Sprintf("%.3f of A=%.6g %s", ratio(mb, ma), ma, m.Unit),
				100*worse, 100*m.Bound, 100*spread, verdict)
		}
		fa, okA := failRatio(a, wl.Name)
		fb, okB := failRatio(b, wl.Name)
		if okA && okB {
			verdict := "unchanged"
			if fb > fa {
				verdict, code = "regressed", 1
			} else if fb < fa {
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-11s %-34s %-6s %14.6g %14.6g  %-28s %8s %7s %8s  %s\n",
				wl.Name, "fail_ratio", "ratio", fa, fb, "any rise regresses", "", "0 abs", "", verdict)
		}
		// Per-layer metrics carry no bound: both medians, for the reader.
		for _, m := range spec.PerLayer {
			xa, xb := column(a, wl.Name, 1, m.Name), column(b, wl.Name, 1, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			fmt.Fprintf(w, "%-11s %-34s %-6s %14.6g %14.6g  %-28s %8s %7s %8s  %s\n",
				wl.Name, m.Name, m.Unit, ma, mb, fmt.Sprintf("%.3f of A=%.6g %s", ratio(mb, ma), ma, m.Unit),
				"", "none", "", "per-layer")
		}
	}
	return code
}
