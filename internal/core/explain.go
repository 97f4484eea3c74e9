package core

import (
	"encoding/json"
	"fmt"
	"strings"

	"bulkdel/internal/obs"
)

// This file renders a completed Stats as EXPLAIN ANALYZE output: the plan
// tree of Figures 3-5 decorated per node with the measured actuals (rows,
// page reads/writes, seeks, buffer hit ratio, WAL bytes, simulated time)
// and the planner's estimate table beside the measured total — plus a
// stable JSON encoding of the same data for benches and tooling.

// planStructName extracts the structure a ⋈̸ node operates on, or "".
// Node ops look like "⋈̸[merge] IA (by key)".
func planStructName(op string) string {
	_, rest, ok := strings.Cut(op, "] ")
	if !ok || !strings.HasPrefix(op, "⋈̸[") {
		return ""
	}
	name, _, _ := strings.Cut(rest, " (")
	return strings.TrimSpace(name)
}

// annotatePlan decorates the plan tree with per-structure actuals. The
// root DELETE node receives the statement totals and the estimated-vs-
// actual comparison; every ⋈̸ node whose structure was processed receives
// that structure's rows and I/O attribution.
func annotatePlan(st *Stats) {
	if st.Plan == nil {
		return
	}
	byName := make(map[string]*StructStats, len(st.PerStructure))
	for i := range st.PerStructure {
		byName[st.PerStructure[i].Name] = &st.PerStructure[i]
	}
	st.Plan.Annot = fmt.Sprintf("actual: deleted=%d victims=%d time=%v%s",
		st.Deleted, st.Victims, st.Elapsed, estimateSuffix(st))
	var walk func(n *PlanNode)
	walk = func(n *PlanNode) {
		if name := planStructName(n.Op); name != "" {
			if ss, ok := byName[name]; ok {
				n.Annot = structAnnot(ss)
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, c := range st.Plan.Children {
		walk(c)
	}
}

// estimateSuffix renders "  (estimated=…)" for the executed method.
func estimateSuffix(st *Stats) string {
	for _, e := range st.Estimates {
		if e.Method == st.Method {
			return fmt.Sprintf("  (estimated=%v)", e.Time)
		}
	}
	return ""
}

// structAnnot renders one structure's actuals for its plan node.
func structAnnot(ss *StructStats) string {
	s := fmt.Sprintf("actual: rows=%d time=%v reads=%d writes=%d seeks=%d",
		ss.Deleted, ss.Elapsed, ss.Reads, ss.Writes, ss.Seeks)
	if hr := ss.HitRatio(); hr >= 0 {
		s += fmt.Sprintf(" hit=%.1f%%", hr*100)
	}
	if ss.WALBytes > 0 {
		s += " wal=" + obs.FmtBytes(ss.WALBytes)
	}
	if ss.Leaves > 0 {
		s += fmt.Sprintf(" merged=%d leaves=%d", ss.LeavesMerged, ss.Leaves)
	}
	return s
}

// ExplainAnalyze renders the executed plan annotated with actuals, the
// planner's estimate table, and the per-structure I/O breakdown.
func (st *Stats) ExplainAnalyze() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN ANALYZE  method=%s  victims=%d  deleted=%d  elapsed=%v (simulated)\n",
		st.Method, st.Victims, st.Deleted, st.Elapsed)
	if st.Schedule != nil {
		fmt.Fprintf(&b, "parallel: workers=%d devices=%d makespan=%v (serial-equivalent %v, speedup %.2fx)\n",
			st.Workers, st.Devices, st.Makespan, st.Elapsed, speedup(st))
	} else if st.ParallelRequested > 1 {
		// Parallelism was asked for but clamped to serial; surface it
		// rather than silently dropping the line.
		fmt.Fprintf(&b, "parallel: workers=1 (requested %d; clamped — single device or too few secondary indexes)\n",
			st.ParallelRequested)
	}
	if st.LockWait > 0 {
		// Wait attribution is real (wall-clock) blocking on other
		// statements; uncontended runs never print this line, keeping the
		// deterministic output byte-identical.
		fmt.Fprintf(&b, "waits: lock=%v (real time, concurrent statements)\n", st.LockWait)
	}
	if len(st.Estimates) > 0 {
		b.WriteString("planner estimates:")
		for _, e := range st.Estimates {
			marker := ""
			if e.Method == st.Method {
				marker = "*"
			}
			fmt.Fprintf(&b, "  %s=%v%s", e.Method, e.Time, marker)
		}
		b.WriteString("  (*=chosen)\n")
	}
	if st.Plan != nil {
		b.WriteString(st.Plan.String())
	} else if st.PlanText != "" {
		b.WriteString(st.PlanText)
	}
	if tbl := st.StructTable(); tbl != "" {
		b.WriteString(tbl)
	}
	if tbl := st.ScheduleTable(); tbl != "" {
		b.WriteString(tbl)
	}
	return b.String()
}

// speedup is the statement-level gain of the parallel schedule: the ratio
// of the serial-equivalent elapsed time to the makespan.
func speedup(st *Stats) float64 {
	if st.Makespan <= 0 {
		return 1
	}
	return float64(st.Elapsed) / float64(st.Makespan)
}

// ScheduleTable renders the parallel section's virtual schedule: one line
// per ⋈̸ node with its worker, device, and start/finish ordinals, the
// critical path marked with '*'. Empty for serial runs.
func (st *Stats) ScheduleTable() string {
	sc := st.Schedule
	if sc == nil || len(sc.Items) == 0 {
		return ""
	}
	crit := make(map[int]bool, len(sc.Critical))
	for _, i := range sc.Critical {
		crit[i] = true
	}
	var b strings.Builder
	fmt.Fprintf(&b, "parallel schedule  (workers=%d, section makespan=%v)\n", sc.Workers, sc.Makespan)
	fmt.Fprintf(&b, "%4s %-16s %6s %6s %14s %14s %14s %5s\n",
		"#", "node", "dev", "wkr", "start", "finish", "duration", "crit")
	for i, it := range sc.Items {
		mark := ""
		if crit[i] {
			mark = "*"
		}
		fmt.Fprintf(&b, "%4d %-16s %6d %6d %14v %14v %14v %5s\n",
			i, it.Label, it.Device, it.Worker, it.Start, it.Finish, it.Duration, mark)
	}
	return b.String()
}

// StructTable renders the per-structure breakdown as an aligned table —
// the PlanText-adjacent view of StructStats including the per-pass I/O.
func (st *Stats) StructTable() string {
	if len(st.PerStructure) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %6s %10s %14s %8s %8s %8s %7s %9s %7s %7s\n",
		"structure", "file", "rows", "time", "reads", "writes", "seeks", "hit%", "wal", "merged", "leaves")
	for _, ss := range st.PerStructure {
		hit, merged, leaves := "-", "-", "-"
		if hr := ss.HitRatio(); hr >= 0 {
			hit = fmt.Sprintf("%.1f", hr*100)
		}
		if ss.Leaves > 0 {
			merged, leaves = fmt.Sprint(ss.LeavesMerged), fmt.Sprint(ss.Leaves)
		}
		fmt.Fprintf(&b, "%-16s %6d %10d %14v %8d %8d %8d %7s %9s %7s %7s\n",
			ss.Name, ss.File, ss.Deleted, ss.Elapsed,
			ss.Reads, ss.Writes, ss.Seeks, hit, obs.FmtBytes(ss.WALBytes), merged, leaves)
	}
	return b.String()
}

// statsJSON is the stable wire form of a completed bulk delete. Field
// order is fixed and durations are integral microseconds, so identical
// runs produce identical bytes (the BENCH_*.json contract).
type statsJSON struct {
	Method     string `json:"method"`
	Victims    int    `json:"victims"`
	Deleted    int64  `json:"deleted"`
	Partitions int    `json:"partitions,omitempty"`
	ElapsedUS  int64  `json:"elapsed_us"`
	// Wait attribution is real blocking on concurrent statements; the
	// field is omitted for uncontended runs, so deterministic output is
	// unchanged.
	LockWaitUS int64           `json:"lock_wait_us,omitempty"`
	Estimates  []estimateJSON  `json:"estimates,omitempty"`
	Structures []structJSON    `json:"structures"`
	Schedule   *scheduleJSON   `json:"schedule,omitempty"`
	Trace      json.RawMessage `json:"trace,omitempty"`
}

// scheduleJSON is the stable wire form of the parallel section's virtual
// schedule; absent entirely for serial runs, so serial output is unchanged.
type scheduleJSON struct {
	Workers    int             `json:"workers"`
	Devices    int             `json:"devices"`
	MakespanUS int64           `json:"makespan_us"`
	Items      []schedItemJSON `json:"items"`
	Critical   []int           `json:"critical"`
}

type schedItemJSON struct {
	Label      string `json:"label"`
	Device     int    `json:"device"`
	Worker     int    `json:"worker"`
	StartUS    int64  `json:"start_us"`
	FinishUS   int64  `json:"finish_us"`
	DurationUS int64  `json:"duration_us"`
}

type estimateJSON struct {
	Method string `json:"method"`
	EstUS  int64  `json:"est_us"`
	Chosen bool   `json:"chosen,omitempty"`
}

type structJSON struct {
	Name      string `json:"name"`
	File      uint32 `json:"file"`
	Deleted   int64  `json:"deleted"`
	ElapsedUS int64  `json:"elapsed_us"`
	Reads     uint64 `json:"reads"`
	Writes    uint64 `json:"writes"`
	Seeks     uint64 `json:"seeks"`
	Hits      uint64 `json:"pool_hits"`
	Misses    uint64 `json:"pool_misses"`
	WALBytes  uint64 `json:"wal_bytes"`
	// An index pass's leaf level; absent for a heap pass.

	LeavesMerged int64 `json:"leaves_merged,omitempty"`
	Leaves       int64 `json:"leaves,omitempty"`
}

// MetricsJSON encodes the statement's metrics — method, estimates, per-
// structure I/O, and the full phase trace — as stable JSON.
func (st *Stats) MetricsJSON() ([]byte, error) {
	out := statsJSON{
		Method:     st.Method.String(),
		Victims:    st.Victims,
		Deleted:    st.Deleted,
		Partitions: st.Partitions,
		ElapsedUS:  st.Elapsed.Microseconds(),
		LockWaitUS: st.LockWait.Microseconds(),
	}
	for _, e := range st.Estimates {
		out.Estimates = append(out.Estimates, estimateJSON{
			Method: e.Method.String(),
			EstUS:  e.Time.Microseconds(),
			Chosen: e.Method == st.Method,
		})
	}
	for _, ss := range st.PerStructure {
		out.Structures = append(out.Structures, structJSON{
			Name:         ss.Name,
			File:         uint32(ss.File),
			Deleted:      ss.Deleted,
			ElapsedUS:    ss.Elapsed.Microseconds(),
			Reads:        ss.Reads,
			Writes:       ss.Writes,
			Seeks:        ss.Seeks,
			Hits:         ss.Hits,
			Misses:       ss.Misses,
			WALBytes:     ss.WALBytes,
			LeavesMerged: ss.LeavesMerged,
			Leaves:       ss.Leaves,
		})
	}
	if sc := st.Schedule; sc != nil {
		sj := &scheduleJSON{
			Workers:    sc.Workers,
			Devices:    st.Devices,
			MakespanUS: st.Makespan.Microseconds(),
			Critical:   sc.Critical,
		}
		for _, it := range sc.Items {
			sj.Items = append(sj.Items, schedItemJSON{
				Label:      it.Label,
				Device:     it.Device,
				Worker:     it.Worker,
				StartUS:    it.Start.Microseconds(),
				FinishUS:   it.Finish.Microseconds(),
				DurationUS: it.Duration.Microseconds(),
			})
		}
		out.Schedule = sj
	}
	if st.Trace != nil {
		out.Trace = st.Trace.RawJSON()
	}
	return json.MarshalIndent(out, "", "  ")
}
