package bench

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"bulkdel"
	"bulkdel/internal/btree"
	"bulkdel/internal/buffer"
	"bulkdel/internal/core"
	"bulkdel/internal/sim"
	"bulkdel/internal/table"
	"bulkdel/internal/workload"
)

// Spec declares one experiment: its axis, the Config at each point, the
// curves measured at every point, and the claim the result must show.
type Spec struct {
	// ID names the experiment; its first word (Name) selects it.
	ID     string
	Title  string
	XLabel string
	// Axis is the experiment's points, in order.
	Axis []Setting
	// Curves are the experiment's series.
	Curves []Curve
	// HeightX relabels the points by the access index's height as the
	// first curve measured it (Table 1 grows the height by widening keys).
	HeightX bool
	// Check, when set, asserts the experiment's claim on the finished run.
	Check func(Experiment) error
}

// Setting is one point of an experiment's axis: its label and its Config,
// whose Rows and Seed the runner fills in.
type Setting struct {
	X      string
	Config Config
}

// Curve is one series of an experiment: an approach, with Tweak (when set)
// applied to every point's Config.
type Curve struct {
	Label    string
	Approach Approach
	Tweak    func(*Config)
}

// Name is the experiment's short name ("exp1 (fig7)" → exp1).
func (s Spec) Name() string { return strings.Fields(s.ID)[0] }

// sweep varies one field of base: point i is base with set applied to
// vals[i], labelled by format applied to vals[i].
func sweep[T any](base Config, format string, set func(*Config, T), vals ...T) []Setting {
	a := make([]Setting, len(vals))
	for i, v := range vals {
		a[i] = Setting{fmt.Sprintf(format, v), base}
		set(&a[i].Config, v)
	}
	return a
}

// percents sweeps the deleted fraction, given in percent.
func percents(base Config, ps ...float64) []Setting {
	return sweep(base, "%g%%", func(c *Config, p float64) { c.Fraction = p / 100 }, ps...)
}

func unclustered(c *Config)       { c.Clustered = false }
func reorganize(c *Config)        { c.Reorganize = true }
func parallelOnDevices(c *Config) { c.Parallel = c.Devices }
func mergeAtHalf(c *Config)       { c.Policy = btree.MergeAtHalf }

// Specs is the evaluation: every experiment bulkbench, the Go benchmarks
// and the tests run, in bulkbench's order.
var Specs = []Spec{
	// The introduction's motivating experiment: traditional vs drop &
	// create over three unclustered indexes. (The paper ran it on a
	// commercial RDBMS; §4.3 finds its prototype's numbers comparable.)
	{
		ID:     "fig1",
		Title:  "Bulk deletes, traditional vs drop&create: 3 indexes, vary deleted tuples",
		XLabel: "deleted tuples (% of tuples)",
		Axis:   percents(Config{MemoryMB: 5, NumIndexes: 3}, 1, 5, 10, 15),
		Curves: []Curve{
			{"traditional", NotSortedTrad, nil},
			{"drop & create", DropCreate, nil},
		},
	},
	// Figure 7: one unclustered index, 5 MB memory, 5–20 % deleted.
	{
		ID:     "exp1 (fig7)",
		Title:  "Vary number of deleted records: 1 unclustered index, 5 MB memory",
		XLabel: "deleted tuples (% of tuples)",
		Axis:   percents(Config{MemoryMB: 5, NumIndexes: 1}, 5, 10, 15, 20),
		Curves: []Curve{
			{"sorted/trad", SortedTrad, nil},
			{"not sorted/trad", NotSortedTrad, nil},
			{"bulk delete", BulkSortMerge, nil},
		},
	},
	// Figure 8: 15 % deleted, 5 MB, 1 to 3 unclustered indexes.
	{
		ID:     "exp2 (fig8)",
		Title:  "Vary number of indexes: unclustered, 5 MB memory, 15% deletes",
		XLabel: "number of indexes",
		Axis:   sweep(Config{Fraction: 0.15, MemoryMB: 5}, "%d", func(c *Config, n int) { c.NumIndexes = n }, 1, 2, 3),
		Curves: []Curve{
			{"sorted/trad", SortedTrad, nil},
			{"not sorted/trad", NotSortedTrad, nil},
			{"drop/create", DropCreate, nil},
			{"bulk delete", BulkSortMerge, nil},
		},
	},
	// Table 1: wider inner keys grow the index (the paper stores 100
	// instead of 512 keys per node); the bulk delete must be insensitive
	// to the height while the traditional approaches degrade.
	{
		ID:     "exp3 (table1)",
		Title:  "Vary the height of the index: 1 unclustered index, 15% deletes, 5 MB",
		XLabel: "inner key width (height grows)",
		Axis: sweep(Config{Fraction: 0.15, MemoryMB: 5, NumIndexes: 1}, "keylen %d",
			func(c *Config, kl int) { c.KeyLen = kl }, 8, 48),
		HeightX: true,
		Curves: []Curve{
			{"sorted/bulk", BulkSortMerge, nil},
			{"not sorted/bulk", BulkSortMerge, nil},
			{"sorted/trad", SortedTrad, nil},
			{"not sorted/trad", NotSortedTrad, nil},
		},
	},
	// Figure 9: 15 % deleted, one unclustered index, 2 to 10 MB memory.
	{
		ID:     "exp4 (fig9)",
		Title:  "Vary size of available memory: 1 unclustered index, 15% deletes",
		XLabel: "main memory",
		Axis:   sweep(Config{Fraction: 0.15, NumIndexes: 1}, "%g MB", func(c *Config, mb float64) { c.MemoryMB = mb }, 2, 6, 10),
		Curves: []Curve{
			{"sorted/trad", SortedTrad, nil},
			{"not sorted/trad", NotSortedTrad, nil},
			{"bulk delete", BulkSortMerge, nil},
		},
	},
	// Figure 10: the index on the delete attribute is clustered (the
	// table is loaded in A-order). Sorted/trad becomes competitive — the
	// paper's one case where it slightly beats the bulk delete — while
	// the unsorted variant stays poor.
	{
		ID:     "exp5 (fig10)",
		Title:  "Clustered index: 1 index, 5 MB memory",
		XLabel: "percentage of deleted tuples",
		Axis:   percents(Config{MemoryMB: 5, NumIndexes: 1, Clustered: true}, 6, 10, 15, 20),
		Curves: []Curve{
			{"sorted/trad/clust", SortedTrad, nil},
			{"sorted/trad/unclust", SortedTrad, unclustered},
			{"not sorted/trad/clust", NotSortedTrad, nil},
			{"bulk delete", BulkSortMerge, nil},
		},
	},
	// §2.3's reorganization during the bulk delete (Figure 6's
	// mechanism), at fractions high enough for it to reclaim many pages.
	{
		ID:     "reorg (fig6)",
		Title:  "Ablation: B+-tree reorganization during the bulk delete",
		XLabel: "deleted tuples",
		Axis:   percents(Config{MemoryMB: 5, NumIndexes: 1}, 30, 50, 70),
		Curves: []Curve{
			{"bulk delete, no reorg", BulkSortMerge, nil},
			{"bulk delete, reorg", BulkSortMerge, reorganize},
		},
	},
	// The three ⋈̸ methods across memory budgets: "the tradeoffs between
	// hashing and sorting for bulk deletes are the same as for regular
	// joins" (§4).
	{
		ID:     "methods",
		Title:  "Ablation: sort/merge vs hash vs hash+range-partition (3 indexes, 15%)",
		XLabel: "main memory",
		Axis:   sweep(Config{Fraction: 0.15, NumIndexes: 3}, "%g MB", func(c *Config, mb float64) { c.MemoryMB = mb }, 2, 5, 10),
		Curves: []Curve{
			{"sort/merge", BulkSortMerge, nil},
			{"hash", BulkHash, nil},
			{"hash+partition", BulkPartition, nil},
			{"auto (planner)", BulkAuto, nil},
		},
	},
	// A handful of victims to a tenth of the table on a log axis: each
	// method forced, and the planner's pick (the result's method says
	// which). The sorting plan's index ⋈̸ is the seeking walk, so its
	// curve follows the victims' leaves from a few root-to-leaf descents
	// up to one chained pass.
	{
		ID:     "crossover",
		Title:  "One seeking walk: the three methods forced and the planner's choice (3 indexes, 5 MB)",
		XLabel: "deleted tuples (% of tuples)",
		Axis:   percents(Config{MemoryMB: 5, NumIndexes: 3}, 0.005, 0.02, 0.05, 0.2, 0.5, 1, 2, 5, 10),
		Curves: []Curve{
			{"sort/merge", BulkSortMerge, nil},
			{"hash", BulkHash, nil},
			{"hash+range-partition", BulkPartition, nil},
			{"auto (planner)", BulkAuto, nil},
		},
	},
	// The paper's UPDATE sketch (§1: raising salaries "involves carrying
	// out a bulk delete (and bulk insert) on the Emp.salary index").
	{
		ID:     "update",
		Title:  "Extension: vertical bulk UPDATE vs row-at-a-time (index on the updated attribute)",
		XLabel: "updated tuples",
		Axis:   percents(Config{MemoryMB: 5, NumIndexes: 2}, 5, 10, 15),
		Curves: []Curve{
			{"bulk update (vertical)", BulkUpdate, nil},
			{"row-at-a-time update", RowUpdate, nil},
		},
	},
	// The parallel DAG scheduler: a slim access index plus eight
	// payload-heavy secondary indexes, 5 % victims, the remaining-index
	// passes run serially or fanned out over the array. Serial reports
	// the serial-equivalent time, parallel the scheduled makespan; at one
	// device they coincide, then the gap widens until the pass count caps
	// the usable width.
	{
		ID:     "parallel",
		Title:  "Parallel DAG scheduler: 8 secondary indexes over a multi-device array, 5% deletes",
		XLabel: "devices",
		Axis: sweep(Config{Fraction: 0.05, MemoryMB: 16, NumIndexes: 9, KeyLen: 200, WideRest: true, TupleSize: 96},
			"%d", func(c *Config, d int) { c.Devices = d }, 1, 2, 4, 8),
		Curves: []Curve{
			{"serial", BulkSortMerge, nil},
			{"parallel", BulkSortMerge, parallelOnDevices},
		},
		Check: checkParallel,
	},
	// The partitioned-heap ⋈̸ pass: a heap-dominated delete (one slim
	// access index, 10 % of the paper's 512-byte tuples) with the heap
	// hash-partitioned into one file per data device. Serial runs the
	// per-partition passes one after another, parallel as one DAG node
	// per device; the base table itself is the parallel work.
	{
		ID:     "heapscale",
		Title:  "Partitioned heap ⋈̸ pass over a multi-device array, 10% deletes, heap-dominated",
		XLabel: "devices (= heap partitions)",
		Axis: sweep(Config{Fraction: 0.10, MemoryMB: 16, NumIndexes: 1}, "%d",
			func(c *Config, d int) { c.Devices, c.HeapParts = d, d }, 1, 2, 4, 8),
		Curves: []Curve{
			{"serial", BulkSortMerge, nil},
			{"parallel", BulkSortMerge, parallelOnDevices},
		},
		Check: checkHeapScale,
	},
	// The same range delete, `WHERE A < k` over 5/20/50 % of the table, on
	// both backends over identical data: the paper's ⋈̸ over the heap and
	// three B-trees; one LSM range tombstone (the statement's foreground
	// cost); and the tombstone plus compaction to the tombstone-free
	// fixpoint (the cost delete-aware triggers spread over later flushes).
	{
		ID:     "lsm",
		Title:  "Range delete head-to-head: ⋈̸ over B-trees vs LSM tombstones, identical data, vary selectivity",
		XLabel: "deleted tuples (% of tuples)",
		Axis:   percents(Config{MemoryMB: 5, NumIndexes: 3, ContiguousVictims: true}, 5, 20, 50),
		Curves: []Curve{
			{"⋈̸ over B-trees (3 ix)", BulkSortMerge, nil},
			{"lsm tombstone", LSMTombstone, nil},
			{"lsm tombstone+compact", LSMReclaim, nil},
		},
		Check: checkLSM,
	},
	// Page reclamation in the traditional delete: free-at-empty (the
	// paper's choice, after Johnson & Shasha) vs merge-at-half.
	{
		ID:     "policy",
		Title:  "Ablation: page reclamation of the traditional delete (1 index)",
		XLabel: "deleted tuples",
		Axis:   percents(Config{MemoryMB: 5, NumIndexes: 1}, 15, 50),
		Curves: []Curve{
			{"sorted/trad, free-at-empty", SortedTrad, nil},
			{"sorted/trad, merge-at-half", SortedTrad, mergeAtHalf},
		},
	},
	// The chained-I/O width the paper's prototype uses to "read chunks of
	// several pages from disk".
	{
		ID:     "chained",
		Title:  "Ablation: chained-I/O width (1 index, 15%)",
		XLabel: "pages per chained read",
		Axis:   sweep(Config{Fraction: 0.15, MemoryMB: 5, NumIndexes: 1}, "%d", func(c *Config, w int) { c.ReadAhead = w }, 1, 8, 32),
		Curves: []Curve{
			{"bulk delete", BulkSortMerge, nil},
			{"sorted/trad", SortedTrad, nil},
		},
	},
}

// checkParallel: at every array width the scheduled makespan is no worse
// than the serial one.
func checkParallel(e Experiment) error {
	ser, par := e.Series[0].Points, e.Series[1].Points
	for i := range ser {
		if par[i].Result.Makespan > ser[i].Result.Makespan {
			return fmt.Errorf("parallel makespan %v worse than serial %v at %s devices",
				par[i].Result.Makespan, ser[i].Result.Makespan, ser[i].X)
		}
	}
	return nil
}

// checkHeapScale: splitting the heap across a 4-device array cuts the
// heap-dominated delete's makespan to at most 1/2.5 of the single-spindle
// serial run.
func checkHeapScale(e Experiment) error {
	var base, par time.Duration // serial at 1 device, parallel at 4
	for i, p := range e.Series[0].Points {
		switch p.X {
		case "1":
			base = p.Result.Makespan
		case "4":
			par = e.Series[1].Points[i].Result.Makespan
		}
	}
	if base == 0 || par == 0 {
		return fmt.Errorf("heapscale lacks the serial 1-device or the parallel 4-device point")
	}
	if speedup := float64(base) / float64(par); speedup < 2.5 {
		return fmt.Errorf("heapscale speedup at 4 devices is %.2fx (serial %v, parallel %v), want >= 2.5x",
			speedup, base, par)
	}
	return nil
}

// checkLSM: the tombstone statement's I/O is constant (and tiny) across
// selectivities — the O(1) foreground-cost claim — while the B-tree
// side's time grows.
func checkLSM(e Experiment) error {
	heap, tomb := e.Series[0].Points, e.Series[1].Points
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

// Runner measures experiments at a given scale, reporting progress.
type Runner struct {
	// Rows scales every experiment (FullScaleRows = the paper's setup);
	// it must be positive.
	Rows int
	// Seed for data generation; 0 means 1.
	Seed int64
	// Devices, when > 1, runs every experiment on a simulated disk array
	// of that width (specs that set their own width keep it).
	Devices int
	// Parallel caps the bulk deletes' index-pass workers (see Config).
	Parallel int
	// Progress, when non-nil, receives one line per completed run.
	Progress func(string)
	// verify checks every run's database and victim count (tests).
	verify bool
}

// ErrCheck marks a run whose every point was measured but whose spec's
// claim did not hold; Run returns the complete Experiment with it.
var ErrCheck = errors.New("check failed")

// Run measures every curve of the spec at every point on a fresh database
// each, then asserts the spec's check.
func (r *Runner) Run(s Spec) (Experiment, error) {
	e := Experiment{ID: s.ID, Title: s.Title, XLabel: s.XLabel}
	seed, xs := r.Seed, make([]string, len(s.Axis))
	if seed == 0 {
		seed = 1
	}
	for i, p := range s.Axis {
		xs[i] = p.X
	}
	for _, c := range s.Curves {
		ser := Series{Label: c.Label}
		for i, p := range s.Axis {
			cfg := p.Config
			cfg.Rows, cfg.Seed, cfg.Verify = r.Rows, seed, r.verify
			if c.Tweak != nil {
				c.Tweak(&cfg)
			}
			if cfg.Devices == 0 && r.Devices > 1 {
				cfg.Devices, cfg.Parallel = r.Devices, r.Parallel
			}
			res, err := Run(cfg, c.Approach)
			if err != nil {
				return e, err
			}
			if r.Progress != nil {
				r.Progress(fmt.Sprintf("  %-28s %-10s %8.2f min  (deleted %d)", c.Label, xs[i], res.Minutes, res.Deleted))
			}
			ser.Points = append(ser.Points, Point{X: xs[i], Result: res})
		}
		if s.HeightX && len(e.Series) == 0 {
			for i, p := range ser.Points {
				if hs := p.Result.Heights; len(hs) > 0 {
					xs[i] = fmt.Sprintf("height %d", hs[0])
					ser.Points[i].X = xs[i]
				}
			}
		}
		e.Series = append(e.Series, ser)
	}
	if s.Check != nil {
		if err := s.Check(e); err != nil {
			return e, fmt.Errorf("%w: %v", ErrCheck, err)
		}
	}
	return e, nil
}

// PlanGallery renders the paper's Figures 3, 4 and 5 as explain output of
// the three physical plans over the example table R(A, B, C) with indexes
// I_A, I_B, I_C.
func PlanGallery() (string, error) {
	disk := sim.NewDisk(sim.DefaultCostModel())
	pool := buffer.New(disk, 512*sim.PageSize)
	spec := workload.DefaultSpec(5000)
	spec.Indexes = append(spec.Indexes,
		spec.Indexes[0], spec.Indexes[0])
	spec.Indexes[0].Name, spec.Indexes[0].Field = "IA", 0
	spec.Indexes[1].Name, spec.Indexes[1].Field = "IB", 1
	spec.Indexes[2].Name, spec.Indexes[2].Field = "IC", 2
	tbl, _, err := workload.Build(pool, spec)
	if err != nil {
		return "", err
	}
	tgt := tbl.Target()
	var b strings.Builder
	for _, fig := range []struct {
		name   string
		method core.Method
	}{
		{"Figure 3 — bulk deletes by sorting and merging", core.SortMerge},
		{"Figure 4 — bulk deletes by hashing", core.Hash},
		{"Figure 5 — bulk deletes by hashing and range partitioning", core.HashPartition},
	} {
		fmt.Fprintf(&b, "%s\n", fig.name)
		b.WriteString(core.BuildPlan(tgt, 0, fig.method, 5<<20, 3).String())
		b.WriteString("\n")
	}
	return b.String(), nil
}

// bumped is the bulk UPDATE's SET expression; the offset keeps every
// updated value unique.
func bumped(v int64) int64 { return v + 1<<40 }

// rowUpdate is the row-at-a-time baseline of the UPDATE: per victim, an
// index lookup, the heap update, and a delete plus insert on the index
// over the updated attribute (when there is one).
func rowUpdate(tbl *table.Table, victims []int64) (int64, error) {
	access, setIx := tbl.IndexOnField(0), tbl.IndexOnField(1)
	var n int64
	for _, v := range victims {
		rids, err := access.Tree.Search(access.EncodeKey(v))
		if err != nil {
			return n, err
		}
		for _, rid := range rids {
			rec, err := tbl.Heap.Get(rid)
			if err != nil {
				return n, err
			}
			old := tbl.Schema.Field(rec, 1)
			tbl.Schema.SetField(rec, 1, bumped(old))
			if err := tbl.Heap.Update(rid, rec); err != nil {
				return n, err
			}
			if setIx != nil {
				if err := setIx.Tree.Delete(setIx.EncodeKey(old), rid); err != nil {
					return n, err
				}
				if err := setIx.Tree.Insert(setIx.EncodeKey(bumped(old)), rid); err != nil {
					return n, err
				}
			}
			n++
		}
	}
	return n, nil
}

// runLSM measures one LSM-backend range delete, `WHERE A < k` with k
// covering the Fraction. The measured window covers the delete statement —
// and, for LSMReclaim, compaction to the tombstone-free fixpoint — plus the
// write-back, so every approach pays for the I/O it caused.
func runLSM(cfg Config, ap Approach) (Result, error) {
	db, tbl, err := loadLSM(cfg)
	if err != nil {
		return Result{}, err
	}
	k := int64(float64(cfg.Rows) * cfg.Fraction) // WHERE A < k: exactly k rows
	db.ResetDiskStats()
	start := db.Clock()
	if _, err := tbl.DeleteRange(0, 0, k-1, bulkdel.BulkOptions{}); err != nil {
		return Result{}, err
	}
	if ap == LSMReclaim {
		if err := tbl.CompactLSM(); err != nil {
			return Result{}, err
		}
	}
	if err := db.Flush(); err != nil {
		return Result{}, err
	}
	took := db.Clock() - start
	res := Result{Approach: ap, Config: cfg, SimTime: took, Makespan: took, Minutes: took.Minutes(),
		Workers: 1, Deleted: k, Disk: db.DiskStats()}

	if cfg.Verify {
		if err := tbl.Check(); err != nil {
			return Result{}, fmt.Errorf("bench: %v left inconsistent state: %w", ap, err)
		}
		if got := tbl.Count(); got != int64(cfg.Rows)-k {
			return Result{}, fmt.Errorf("bench: %v left %d rows, want %d", ap, got, int64(cfg.Rows)-k)
		}
	}
	return res, nil
}

// loadLSM pours the same workload.Generate matrix the heap side loads
// (keyed on A, a permutation of [0, Rows)) into an LSM table on cfg's
// array, flushed into SSTables with its WAL tail drained, so the timed
// statement starts from a durable base exactly like Run's.
func loadLSM(cfg Config) (*bulkdel.DB, *bulkdel.Table, error) {
	spec := cfg.spec()
	rows, err := workload.Generate(spec)
	if err != nil {
		return nil, nil, err
	}
	db, err := bulkdel.Open(bulkdel.Options{BufferBytes: cfg.scaledMemory(), Devices: cfg.Devices})
	if err != nil {
		return nil, nil, err
	}
	tbl, err := db.CreateTableLSM("R", spec.Fields, spec.TupleSize)
	if err != nil {
		return nil, nil, err
	}
	for _, vals := range rows {
		if _, err := tbl.Insert(vals...); err != nil {
			return nil, nil, err
		}
	}
	if err := tbl.CompactLSM(); err != nil {
		return nil, nil, err
	}
	if err := db.Flush(); err != nil {
		return nil, nil, err
	}
	return db, tbl, nil
}
