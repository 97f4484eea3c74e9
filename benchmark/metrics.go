package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported number. The units sim_s and sim_ms are
// seconds and milliseconds on the engine's simulated disk clock, which for
// one seed can repeat to the last digit; s, ms, us and ns are wall time. BENCHMARK.json at the repository
// root lists the same names, units and directions, and for each end-to-end
// metric the bound by which it may worsen; TestSpecMatchesCode keeps the
// two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd is what a user of the engine sees. Every workload reports every
// one of them; none is ever 0 (see README "Departures from ISSUE.md").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"fg_ops_per_s", "1/s", "higher"},
	{"point_p50_us", "us", "lower"},
	{"insert_mean_us", "us", "lower"},
	{"del_p50_ms", "ms", "lower"},
	{"del_sim_s", "sim_s", "lower"},
	{"sim_ms_per_op", "sim_ms", "lower"},
	{"space_amp", "ratio", "lower"},
	{"mem_sys_mb", "MB", "lower"},
}

// perLayer is what the traced run reports, one group per package of the
// engine. A layer that a workload leaves idle reports 0 there.
var perLayer = []metricDef{
	// internal/wire
	{"wire.self_us.point", "us", "lower"},
	{"wire.self_us.insert", "us", "lower"},
	{"wire.self_us.range", "us", "lower"},
	{"wire.req_bytes_per_op", "bytes", "lower"},
	{"wire.resp_bytes_per_op", "bytes", "lower"},
	{"wire.allocs_per_op", "count", "lower"},
	// internal/sql
	{"sql.parse_us.point", "us", "lower"},
	{"sql.parse_us.insert", "us", "lower"},
	{"sql.parse_us.range", "us", "lower"},
	{"sql.parse_us.delete_in", "us", "lower"},
	{"sql.parse_allocs_per_stmt", "count", "lower"},
	// internal/session
	{"session.self_us.point", "us", "lower"},
	{"session.self_us.insert", "us", "lower"},
	{"session.self_us.range", "us", "lower"},
	{"session.page_refs_per_row.point", "count", "lower"},
	// root bulkdel API
	{"api.us.point", "us", "lower"},
	{"api.us.insert", "us", "lower"},
	{"api.us.range", "us", "lower"},
	{"api.allocs.point", "count", "lower"},
	{"api.allocs.insert", "count", "lower"},
	// internal/core
	{"core.collect_sim_share", "ratio", "lower"},
	{"core.sort_sim_share", "ratio", "lower"},
	{"core.heap_pass_sim_share", "ratio", "lower"},
	{"core.index_pass_sim_share", "ratio", "lower"},
	{"core.wal_sim_share", "ratio", "lower"},
	{"core.wall_us_per_victim", "us", "lower"},
	{"core.sim_ms_per_victim", "sim_ms", "lower"},
	{"core.plan_est_over_actual", "ratio", "lower"},
	// internal/xsort
	{"xsort.mem_ns_per_row", "ns", "lower"},
	{"xsort.spill_ns_per_row", "ns", "lower"},
	{"xsort.spill_sim_ms_per_krow", "sim_ms", "lower"},
	// internal/btree
	{"btree.search_ns", "ns", "lower"},
	{"btree.insert_ns", "ns", "lower"},
	{"btree.delete_ns", "ns", "lower"},
	{"btree.page_refs_per_search", "count", "lower"},
	{"btree.height", "count", "lower"},
	// internal/heap
	{"heap.get_ns", "ns", "lower"},
	{"heap.insert_ns", "ns", "lower"},
	{"heap.scan_ns_per_row", "ns", "lower"},
	{"heap.pages_per_krow", "count", "lower"},
	// internal/buffer
	{"buffer.hit_ratio", "ratio", "higher"},
	{"buffer.evictions_per_op", "count", "lower"},
	{"buffer.dirty_evict_share", "ratio", "lower"},
	{"buffer.get_hit_ns", "ns", "lower"},
	{"buffer.get_miss_ns", "ns", "lower"},
	// internal/wal
	{"wal.bytes_per_victim", "bytes", "lower"},
	{"wal.flushes_per_delete", "count", "lower"},
	{"wal.append_wait_us_per_delete", "us", "lower"},
	{"wal.append_ns", "ns", "lower"},
	{"wal.recover_ms", "ms", "lower"},
	{"wal.rollforward_ms", "ms", "lower"},
	{"wal.rollforward_sim_s", "sim_s", "lower"},
	// internal/cc
	{"cc.lock_waits", "count", "lower"},
	{"cc.lock_wait_us_per_fg_op", "us", "lower"},
	{"cc.stall_ms_per_delete.concurrent_on", "ms", "lower"},
	{"cc.stall_ms_per_delete.concurrent_off", "ms", "lower"},
	{"fg.stall_share", "ratio", "lower"},
	// internal/table (MVCC)
	{"mvcc.snapshot_reads", "count", "higher"},
	{"mvcc.snapshot_read_waits", "count", "lower"},
	{"mvcc.fallback_scans", "count", "lower"},
	{"mvcc.retained_bytes_peak", "bytes", "lower"},
	// internal/lsm
	{"lsm.get_us.live", "us", "lower"},
	{"lsm.get_us.dead", "us", "lower"},
	{"lsm.page_refs_per_get", "count", "lower"},
	{"lsm.get_ns.rtombs1", "ns", "lower"},
	{"lsm.get_ns.rtombs64", "ns", "lower"},
	{"lsm.get_ns.rtombs1k", "ns", "lower"},
	{"lsm.write_amp", "ratio", "lower"},
	{"lsm.files", "count", "lower"},
	{"lsm.levels", "count", "lower"},
	{"lsm.rtombs_live", "count", "lower"},
	{"lsm.tombs_live", "count", "lower"},
	{"lsm.tomb_age_max_ticks", "count", "lower"},
	{"lsm.flushes", "count", "lower"},
	{"lsm.sst_created", "count", "lower"},
	{"lsm.insert_max_ms", "ms", "lower"},
	{"lsm.stall_count", "count", "lower"},
	// internal/sim
	{"sim.reads_per_op", "count", "lower"},
	{"sim.writes_per_op", "count", "lower"},
	{"sim.random_share", "ratio", "lower"},
	{"sim.chained_runs_per_kop", "count", "higher"},
	{"sim.page_io_ns", "ns", "lower"},
	// internal/keyenc, record, page
	{"keyenc.int64key_ns", "ns", "lower"},
	{"keyenc.compare_ns", "ns", "lower"},
	{"record.encode_ns", "ns", "lower"},
	{"record.decode_ns", "ns", "lower"},
	{"record.decode_allocs", "count", "lower"},
	{"page.insert_ns", "ns", "lower"},
	{"page.get_ns", "ns", "lower"},
	{"page.compact_ns", "ns", "lower"},
	// process
	{"proc.allocs_per_op", "count", "lower"},
	{"proc.alloc_bytes_per_op", "bytes", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.gc_pause_ms_total", "ms", "lower"},
	{"proc.cpu_s", "s", "lower"},
	{"trace.overhead_ratio", "ratio", "higher"},
	// entry-depth latencies that are reported, not bounded — see README
	// "Departures from ISSUE.md"
	{"lat.insert_p50_us", "us", "lower"},
	{"lat.range_p50_us", "us", "lower"},
	{"tail.point_p99_us", "us", "lower"},
	{"tail.insert_p99_us", "us", "lower"},
}

// value is one reported metric in the driver's result format.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: the driver's four keys plus what
// `compare` needs to group runs into sets.
type runResult struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     int              `json:"trace"`
	Seconds   float64          `json:"seconds"`
	Scale     float64          `json:"scale"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Samples states how many observations stand behind each latency
	// percentile (by operation kind), as the metrics guide asks.
	Samples map[string]int `json:"samples,omitempty"`
}

// resultSet is the file `compare` reads: every run of one invocation.
type resultSet struct {
	Runs []runResult `json:"runs"`
}

// fill stores defs' metrics from vals into r, in defs' order of names. A
// name missing from vals is a bug in the harness, not a measurement.
func (r *runResult) fill(defs []metricDef, vals map[string]float64) error {
	r.Metrics = make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("benchmark: metric %s was not measured on %s", d.name, r.Workload)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("benchmark: metric %s on %s is %v", d.name, r.Workload, v)
		}
		r.Metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	return nil
}

// print writes every metric by name with its unit, then the driver's
// one-line JSON object as the last line.
func (r *runResult) print(w io.Writer, defs []metricDef) error {
	fmt.Fprintf(w, "workload=%s seed=%d trace=%d seconds=%g scale=%g\n",
		r.Workload, r.Seed, r.Trace, r.Seconds, r.Scale)
	for _, d := range defs {
		m := r.Metrics[d.name]
		fmt.Fprintf(w, "  %-40s %16.6g %-6s (%s is better)\n", d.name, m.Value, m.Unit, d.better)
	}
	kinds := make([]string, 0, len(r.Samples))
	for k := range r.Samples {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  samples.%-32s %16d\n", k, r.Samples[k])
	}
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "  %-40s %16.6g %-6s (lower is better)\n", "fail_ratio", ratio, "ratio")
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile returns the q-quantile of xs (nearest rank, xs sorted ascending).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (an idle layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
