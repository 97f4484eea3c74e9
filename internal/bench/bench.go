// Package bench builds the paper's benchmark configurations and runs every
// approach under the simulated clock, reproducing each table and figure of
// the evaluation (§4).
//
// Each run builds a fresh database (deterministic in the seed), executes
// exactly one DELETE statement with one approach, and reports the simulated
// time the statement took — including the final write-back of dirty pages,
// so every approach pays for the I/O it caused. The experiment functions
// (Figure1, Experiment1..5) assemble the same series the paper plots.
//
// Scaling: the paper's full configuration is 1,000,000 × 512 B tuples with
// 2–10 MB of buffer memory. Runs at a smaller row count scale the memory
// budget proportionally, which preserves the buffer-to-data ratio that the
// experiments' tradeoffs depend on.
package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"bulkdel/internal/btree"
	"bulkdel/internal/buffer"
	"bulkdel/internal/core"
	"bulkdel/internal/heap"
	"bulkdel/internal/obs"
	"bulkdel/internal/sim"
	"bulkdel/internal/table"
	"bulkdel/internal/workload"
)

// FullScaleRows is the paper's table size.
const FullScaleRows = 1000000

// Approach identifies one delete strategy.
type Approach int

const (
	// NotSortedTrad is the traditional record-at-a-time delete with the
	// victim list in random order (the paper's "not sorted/trad").
	NotSortedTrad Approach = iota
	// SortedTrad pre-sorts the victim list ("sorted/trad").
	SortedTrad
	// DropCreate drops the secondary indexes, deletes, and rebuilds.
	DropCreate
	// BulkSortMerge is the paper's vertical bulk delete, sort/merge plan.
	BulkSortMerge
	// BulkHash is the vertical bulk delete with the hash plan.
	BulkHash
	// BulkPartition is the hash + range-partitioning plan.
	BulkPartition
	// BulkAuto lets the planner choose the method.
	BulkAuto
	// LSMTombstone issues the delete as a single LSM range tombstone and
	// stops — the foreground cost of the statement.
	LSMTombstone
	// LSMReclaim issues the tombstone and then compacts the tree to the
	// tombstone-free fixpoint — foreground plus full space reclamation.
	LSMReclaim
)

func (a Approach) String() string {
	switch a {
	case NotSortedTrad:
		return "not sorted/trad"
	case SortedTrad:
		return "sorted/trad"
	case DropCreate:
		return "drop&create"
	case BulkSortMerge:
		return "bulk delete"
	case BulkHash:
		return "bulk delete (hash)"
	case BulkPartition:
		return "bulk delete (partitioned)"
	case BulkAuto:
		return "bulk delete (auto)"
	case LSMTombstone:
		return "lsm tombstone"
	case LSMReclaim:
		return "lsm tombstone+compact"
	default:
		return fmt.Sprintf("Approach(%d)", int(a))
	}
}

// Config describes one benchmark case.
type Config struct {
	// Rows is the table size (scale FullScaleRows = the paper's 1M).
	Rows int
	// Fraction of records deleted (the size of table D).
	Fraction float64
	// MemoryMB is the buffer/sort budget in MB at full scale; it is
	// scaled by Rows/FullScaleRows.
	MemoryMB float64
	// NumIndexes creates indexes IA, IB, IC... over fields 0, 1, 2...
	NumIndexes int
	// KeyLen widens the index keys (Experiment 3; 0 = 8 bytes).
	KeyLen int
	// WideRest applies KeyLen only to the secondary indexes, leaving the
	// access index IA at the default width (the parallel experiment's
	// shape: a slim access path over payload-heavy secondary indexes).
	WideRest bool
	// TupleSize overrides the record size (0 = the paper's 512 bytes).
	TupleSize int
	// Devices sizes the simulated disk array: device 0 holds the system
	// files (heap, WAL, scratch) and the indexes are placed round-robin
	// on devices 1..Devices. 0 or 1 keeps the single-spindle model.
	Devices int
	// Parallel caps the workers for the remaining-index ⋈̸ passes of bulk
	// deletes (0/1 = serial; effective degree clamps to the devices the
	// index trees occupy).
	Parallel int
	// HeapParts > 1 hash-partitions the heap on field 0 into that many
	// files, placed round-robin on devices 1..Devices, so the heap ⋈̸
	// pass of a parallel bulk delete runs one pass per partition.
	HeapParts int
	// Clustered loads the table sorted by field 0 (Experiment 5).
	Clustered bool
	// Reorganize enables §2.3 leaf reorganization in bulk deletes.
	Reorganize bool
	// Policy selects the traditional-delete page reclamation policy.
	Policy btree.Policy
	// ReadAhead overrides the chained-I/O run length (0 = default).
	ReadAhead int
	// Seed drives data generation and victim sampling.
	Seed int64
	// ContiguousVictims deletes the Fraction-sized prefix of the key space
	// (A in [0, Rows*Fraction)) instead of a random sample — the victim
	// set a range predicate `WHERE A < k` lowers to, used by the LSM
	// head-to-head so both backends delete the identical logical range.
	ContiguousVictims bool
	// Verify runs a full consistency check after the delete (tests).
	Verify bool
}

// Result reports one run.
type Result struct {
	Approach Approach
	Config   Config
	// SimTime is the simulated duration of the DELETE statement as the
	// serial-equivalent total: the sum of every device's busy time plus
	// CPU, regardless of parallelism.
	SimTime time.Duration
	// Makespan is the statement's simulated wall-clock length: SimTime
	// with the parallel section's summed device time replaced by its
	// scheduled length. Equal to SimTime for serial runs.
	Makespan time.Duration
	// Minutes is Makespan in minutes (the paper's unit; == SimTime in
	// minutes for every serial run).
	Minutes float64
	// Workers that executed the remaining-index passes (1 = serial).
	Workers int
	// Deleted records.
	Deleted int64
	// Heights of the indexes before the delete (Experiment 3 reports it).
	Heights []int
	// Method is the bulk plan used (bulk approaches only).
	Method core.Method
	// Disk are the I/O counters for the statement.
	Disk sim.Stats
	// Phases is the per-phase I/O breakdown of the statement, from the
	// trace the run records (bulk approaches get one entry per engine
	// phase; the baselines a single "statement" phase).
	Phases []PhaseIO
	// Trace is the full span tree of the statement.
	Trace *obs.Trace
}

// PhaseIO is one phase's I/O attribution.
type PhaseIO struct {
	Name string        `json:"name"`
	IO   obs.DeltaWire `json:"io"`
}

// phases flattens a trace's first-level spans into the breakdown.
func phases(tr *obs.Trace) []PhaseIO {
	var out []PhaseIO
	for _, sp := range tr.Root().Children {
		out = append(out, PhaseIO{Name: sp.Name, IO: sp.IO.Wire()})
	}
	return out
}

// scaledMemory converts the full-scale MB budget to bytes at this scale.
func (c Config) scaledMemory() int {
	b := c.MemoryMB * float64(uint64(1)<<20) * float64(c.Rows) / float64(FullScaleRows)
	if b < float64(8*sim.PageSize) {
		b = float64(8 * sim.PageSize)
	}
	return int(b)
}

func (c Config) spec() workload.Spec {
	s := workload.DefaultSpec(c.Rows)
	s.Seed = c.Seed
	if c.TupleSize > 0 {
		s.TupleSize = c.TupleSize
	}
	if c.Clustered {
		s.ClusterField = 0
	}
	s.Indexes = nil
	names := []string{"IA", "IB", "IC", "ID", "IE", "IF", "IG", "IH", "II"}
	n := c.NumIndexes
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		def := table.IndexDef{Name: names[i], Field: i}
		if c.KeyLen > 0 && !(c.WideRest && i == 0) {
			def.KeyLen = c.KeyLen
		}
		s.Indexes = append(s.Indexes, def)
	}
	return s
}

// Target converts a catalog table into core's execution view.
func Target(tbl *table.Table) *core.Target {
	tgt := &core.Target{Name: tbl.Name, Heap: tbl.Heap, Schema: tbl.Schema, Pool: tbl.Pool()}
	for _, ix := range tbl.Idx {
		tgt.Indexes = append(tgt.Indexes, core.IndexRef{
			Name: ix.Def.Name, Tree: ix.Tree, Field: ix.Def.Field,
			Unique: ix.Def.Unique, Clustered: ix.Def.Clustered,
			Priority: ix.Def.Priority, Gate: ix.Gate,
		})
	}
	return tgt
}

// Run executes one benchmark case with one approach on a fresh database.
func Run(cfg Config, ap Approach) (Result, error) {
	if cfg.Rows <= 0 {
		return Result{}, fmt.Errorf("bench: rows must be positive")
	}
	mem := cfg.scaledMemory()
	disk := sim.NewDisk(sim.DefaultCostModel())
	if cfg.Devices > 1 {
		disk.ConfigureDevices(cfg.Devices + 1) // +1: device 0 is the system spindle
	}
	pool := buffer.New(disk, mem)
	if cfg.ReadAhead > 0 {
		pool.SetReadAhead(cfg.ReadAhead)
	}
	tbl, rows, err := workload.Build(pool, cfg.spec())
	if err != nil {
		return Result{}, err
	}
	if cfg.Devices > 1 {
		for k, ix := range tbl.Idx {
			if err := pool.Relocate(ix.Tree.ID(), 1+k%cfg.Devices); err != nil {
				return Result{}, err
			}
		}
	}
	if cfg.HeapParts > 1 {
		if err := tbl.Repartition(heap.PartitionSpec{Field: 0, HashParts: cfg.HeapParts}); err != nil {
			return Result{}, err
		}
		if cfg.Devices > 1 {
			for i, p := range tbl.Heap.Parts() {
				if err := pool.Relocate(p.ID(), 1+i%cfg.Devices); err != nil {
					return Result{}, err
				}
			}
		}
	}
	tbl.SortBudget = mem
	tbl.SetPolicyAll(cfg.Policy)
	victims := workload.VictimSample(rows, 0, cfg.Fraction, cfg.Seed+1000)
	if cfg.ContiguousVictims {
		victims = victims[:0]
		for v := int64(0); v < int64(float64(cfg.Rows)*cfg.Fraction); v++ {
			victims = append(victims, v)
		}
	}
	if err := tbl.Flush(); err != nil {
		return Result{}, err
	}
	res := Result{Approach: ap, Config: cfg}
	for _, ix := range tbl.Idx {
		res.Heights = append(res.Heights, ix.Tree.Height())
	}

	disk.ResetStats()
	start := disk.Clock()
	// overlapped is the simulated time the parallel section saved: zero
	// for serial runs, Elapsed-Makespan when the ⋈̸ passes overlapped.
	var overlapped time.Duration
	res.Workers = 1
	tr := obs.NewTrace("bench", fmt.Sprintf("%v rows=%d fraction=%g", ap, cfg.Rows, cfg.Fraction),
		obs.Source{Disk: disk, Pool: pool})
	switch ap {
	case NotSortedTrad:
		sp := tr.Root().Child("statement", "record-at-a-time delete")
		res.Deleted, err = tbl.TraditionalDelete(0, victims, false)
		sp.Finish()
	case SortedTrad:
		sp := tr.Root().Child("statement", "record-at-a-time delete, sorted victims")
		res.Deleted, err = tbl.TraditionalDelete(0, victims, true)
		sp.Finish()
	case DropCreate:
		sp := tr.Root().Child("statement", "drop indexes, delete, rebuild")
		res.Deleted, err = tbl.DropCreateDelete(0, victims, true)
		sp.Finish()
	case BulkSortMerge, BulkHash, BulkPartition, BulkAuto:
		method := map[Approach]core.Method{
			BulkSortMerge: core.SortMerge,
			BulkHash:      core.Hash,
			BulkPartition: core.HashPartition,
			BulkAuto:      core.Auto,
		}[ap]
		var st *core.Stats
		st, err = core.Execute(Target(tbl), 0, victims, core.Options{
			Method: method, Memory: mem, Reorganize: cfg.Reorganize, Trace: tr,
			Parallel: cfg.Parallel,
		})
		if st != nil {
			res.Deleted = st.Deleted
			res.Method = st.Method
			if st.Makespan > 0 {
				overlapped = st.Elapsed - st.Makespan
			}
			if st.Workers > 1 {
				res.Workers = st.Workers
			}
		}
	default:
		return Result{}, fmt.Errorf("bench: unknown approach %v", ap)
	}
	if err != nil {
		return Result{}, fmt.Errorf("bench: %v: %w", ap, err)
	}
	// The statement is complete when its effects are durable: force the
	// write-back so every approach pays for the pages it dirtied.
	wb := tr.Root().Child("write-back", "flush dirty pages")
	if err := tbl.Flush(); err != nil {
		return Result{}, err
	}
	wb.Finish()
	tr.Finish()
	res.SimTime = disk.Clock() - start
	res.Makespan = res.SimTime - overlapped
	res.Minutes = res.Makespan.Minutes()
	res.Disk = disk.Stats()
	res.Trace = tr
	res.Phases = phases(tr)

	if cfg.Verify {
		if err := tbl.CheckConsistency(); err != nil {
			return Result{}, fmt.Errorf("bench: %v left inconsistent state: %w", ap, err)
		}
		want := int64(len(victims))
		if res.Deleted != want {
			return Result{}, fmt.Errorf("bench: %v deleted %d records, want %d", ap, res.Deleted, want)
		}
	}
	return res, nil
}

// Point is one measurement in a series.
type Point struct {
	X      string
	Result Result
}

// Series is one curve of an experiment.
type Series struct {
	Label  string
	Points []Point
}

// Experiment is one reproduced table or figure.
type Experiment struct {
	ID     string
	Title  string
	XLabel string
	Series []Series
}

// Format renders the experiment as an aligned text table (minutes, the
// paper's unit).
func (e Experiment) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", e.ID, e.Title)
	// Column headers from the first series' X values.
	if len(e.Series) == 0 || len(e.Series[0].Points) == 0 {
		return b.String()
	}
	label := e.XLabel
	fmt.Fprintf(&b, "%-28s", label)
	for _, p := range e.Series[0].Points {
		fmt.Fprintf(&b, "%12s", p.X)
	}
	b.WriteString("\n")
	for _, s := range e.Series {
		fmt.Fprintf(&b, "%-28s", s.Label)
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%12.2f", p.Result.Minutes)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// The BENCH_*.json wire format: every point carries the simulated time,
// the statement's I/O counters, and the per-phase breakdown, with fixed
// field order and integral microseconds so identical runs produce
// identical bytes — the perf-trajectory contract later PRs report against.
type experimentJSON struct {
	ID     string       `json:"id"`
	Title  string       `json:"title"`
	XLabel string       `json:"x_label"`
	Series []seriesJSON `json:"series"`
}

type seriesJSON struct {
	Label  string      `json:"label"`
	Points []pointJSON `json:"points"`
}

type pointJSON struct {
	X        string    `json:"x"`
	Approach string    `json:"approach"`
	Method   string    `json:"method,omitempty"`
	Rows     int       `json:"rows"`
	Fraction float64   `json:"fraction"`
	Indexes  int       `json:"indexes"`
	SimUS    int64     `json:"sim_us"`
	Minutes  float64   `json:"minutes"`
	Devices  int       `json:"devices,omitempty"`
	Workers  int       `json:"workers,omitempty"`
	Makespan int64     `json:"makespan_us,omitempty"`
	Deleted  int64     `json:"deleted"`
	Reads    uint64    `json:"reads"`
	Writes   uint64    `json:"writes"`
	Seeks    uint64    `json:"seeks"`
	Phases   []PhaseIO `json:"phases,omitempty"`
}

// JSON encodes the experiment in the stable BENCH_*.json format.
func (e Experiment) JSON() ([]byte, error) {
	out := experimentJSON{ID: e.ID, Title: e.Title, XLabel: e.XLabel}
	for _, s := range e.Series {
		sj := seriesJSON{Label: s.Label}
		for _, p := range s.Points {
			r := p.Result
			pj := pointJSON{
				X:        p.X,
				Approach: r.Approach.String(),
				Rows:     r.Config.Rows,
				Fraction: r.Config.Fraction,
				Indexes:  r.Config.NumIndexes,
				SimUS:    r.SimTime.Microseconds(),
				Minutes:  r.Minutes,
				Deleted:  r.Deleted,
				Reads:    r.Disk.Reads,
				Writes:   r.Disk.Writes,
				Seeks:    r.Disk.RandomOps,
				Phases:   r.Phases,
			}
			switch r.Approach {
			case BulkSortMerge, BulkHash, BulkPartition, BulkAuto:
				pj.Method = r.Method.String()
			}
			// Multi-device points carry the wall-clock fields; single-
			// spindle output keeps its pre-scheduler byte layout.
			if r.Config.Devices > 1 {
				pj.Devices = r.Config.Devices
				pj.Workers = r.Workers
				pj.Makespan = r.Makespan.Microseconds()
			}
			sj.Points = append(sj.Points, pj)
		}
		out.Series = append(out.Series, sj)
	}
	return json.MarshalIndent(out, "", "  ")
}

// Runner executes experiments at a given scale, reporting progress.
type Runner struct {
	// Rows scales every experiment (FullScaleRows = the paper's setup).
	Rows int
	// Seed for data generation.
	Seed int64
	// Devices, when > 1, runs every experiment on a simulated disk array
	// of that width (configs that set their own width keep it).
	Devices int
	// Parallel caps the bulk deletes' index-pass workers (see Config).
	Parallel int
	// Progress, when non-nil, receives one line per completed run.
	Progress func(string)
}

func (r *Runner) rows() int {
	if r.Rows > 0 {
		return r.Rows
	}
	return FullScaleRows
}

func (r *Runner) seed() int64 {
	if r.Seed != 0 {
		return r.Seed
	}
	return 1
}

func (r *Runner) report(format string, args ...any) {
	if r.Progress != nil {
		r.Progress(fmt.Sprintf(format, args...))
	}
}

// runSeries measures one approach across a parameter sweep.
func (r *Runner) runSeries(label string, ap Approach, cfgs []Config, xs []string) (Series, error) {
	s := Series{Label: label}
	for i, cfg := range cfgs {
		if cfg.Devices == 0 && r.Devices > 1 {
			cfg.Devices = r.Devices
			cfg.Parallel = r.Parallel
		}
		res, err := Run(cfg, ap)
		if err != nil {
			return s, err
		}
		r.report("  %-28s %-10s %8.2f min  (deleted %d)", label, xs[i], res.Minutes, res.Deleted)
		s.Points = append(s.Points, Point{X: xs[i], Result: res})
	}
	return s, nil
}
