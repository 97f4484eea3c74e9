package bench

import (
	"fmt"
	"strings"

	"bulkdel"
	"bulkdel/internal/buffer"
	"bulkdel/internal/core"
	"bulkdel/internal/sim"
	"bulkdel/internal/workload"
)

// Figure1 reproduces the introduction's motivating experiment: a table with
// three unclustered indexes, deleting 1/5/10/15 % of the records with the
// traditional approach versus drop & create. (The paper ran this on a
// commercial RDBMS; §4.3 notes its own prototype's numbers "are comparable
// to the results described in the introduction".)
func (r *Runner) Figure1() (Experiment, error) {
	fractions := []float64{0.01, 0.05, 0.10, 0.15}
	xs := []string{"1%", "5%", "10%", "15%"}
	var cfgs []Config
	for _, f := range fractions {
		cfgs = append(cfgs, Config{
			Rows: r.rows(), Fraction: f, MemoryMB: 5, NumIndexes: 3, Seed: r.seed(),
		})
	}
	e := Experiment{
		ID:     "fig1",
		Title:  "Bulk deletes, traditional vs drop&create: 3 indexes, vary deleted tuples",
		XLabel: "deleted tuples (% of tuples)",
	}
	for _, row := range []struct {
		label string
		ap    Approach
	}{
		{"traditional", NotSortedTrad},
		{"drop & create", DropCreate},
	} {
		s, err := r.runSeries(row.label, row.ap, cfgs, xs)
		if err != nil {
			return e, err
		}
		e.Series = append(e.Series, s)
	}
	return e, nil
}

// Experiment1 reproduces Figure 7: one unclustered index, 5 MB memory,
// deleting 5–20 % of the records.
func (r *Runner) Experiment1() (Experiment, error) {
	fractions := []float64{0.05, 0.10, 0.15, 0.20}
	xs := []string{"5%", "10%", "15%", "20%"}
	var cfgs []Config
	for _, f := range fractions {
		cfgs = append(cfgs, Config{
			Rows: r.rows(), Fraction: f, MemoryMB: 5, NumIndexes: 1, Seed: r.seed(),
		})
	}
	e := Experiment{
		ID:     "exp1 (fig7)",
		Title:  "Vary number of deleted records: 1 unclustered index, 5 MB memory",
		XLabel: "deleted tuples (% of tuples)",
	}
	for _, row := range []struct {
		label string
		ap    Approach
	}{
		{"sorted/trad", SortedTrad},
		{"not sorted/trad", NotSortedTrad},
		{"bulk delete", BulkSortMerge},
	} {
		s, err := r.runSeries(row.label, row.ap, cfgs, xs)
		if err != nil {
			return e, err
		}
		e.Series = append(e.Series, s)
	}
	return e, nil
}

// Experiment2 reproduces Figure 8: 15 % deletes, 5 MB memory, varying the
// number of unclustered indexes from 1 to 3.
func (r *Runner) Experiment2() (Experiment, error) {
	counts := []int{1, 2, 3}
	xs := []string{"1", "2", "3"}
	var cfgs []Config
	for _, n := range counts {
		cfgs = append(cfgs, Config{
			Rows: r.rows(), Fraction: 0.15, MemoryMB: 5, NumIndexes: n, Seed: r.seed(),
		})
	}
	e := Experiment{
		ID:     "exp2 (fig8)",
		Title:  "Vary number of indexes: unclustered, 5 MB memory, 15% deletes",
		XLabel: "number of indexes",
	}
	for _, row := range []struct {
		label string
		ap    Approach
	}{
		{"sorted/trad", SortedTrad},
		{"not sorted/trad", NotSortedTrad},
		{"drop/create", DropCreate},
		{"bulk delete", BulkSortMerge},
	} {
		s, err := r.runSeries(row.label, row.ap, cfgs, xs)
		if err != nil {
			return e, err
		}
		e.Series = append(e.Series, s)
	}
	return e, nil
}

// Experiment3 reproduces Table 1: the index height is grown by widening the
// inner keys (the paper stores 100 instead of 512 keys per node); the bulk
// delete must be insensitive while the traditional approaches degrade.
func (r *Runner) Experiment3() (Experiment, error) {
	keyLens := []int{8, 48}
	xs := make([]string, 2)
	var cfgs []Config
	for i, kl := range keyLens {
		cfgs = append(cfgs, Config{
			Rows: r.rows(), Fraction: 0.15, MemoryMB: 5, NumIndexes: 1,
			KeyLen: kl, Seed: r.seed(),
		})
		xs[i] = fmt.Sprintf("keylen %d", kl)
	}
	e := Experiment{
		ID:     "exp3 (table1)",
		Title:  "Vary the height of the index: 1 unclustered index, 15% deletes, 5 MB",
		XLabel: "inner key width (height grows)",
	}
	for _, row := range []struct {
		label string
		ap    Approach
	}{
		{"sorted/bulk", BulkSortMerge},
		{"not sorted/bulk", BulkSortMerge},
		{"sorted/trad", SortedTrad},
		{"not sorted/trad", NotSortedTrad},
	} {
		s, err := r.runSeries(row.label, row.ap, cfgs, xs)
		if err != nil {
			return e, err
		}
		// Annotate the X labels with the measured heights once.
		if len(e.Series) == 0 {
			for i := range s.Points {
				hs := s.Points[i].Result.Heights
				if len(hs) > 0 {
					s.Points[i].X = fmt.Sprintf("height %d", hs[0])
					xs[i] = s.Points[i].X
				}
			}
		} else {
			for i := range s.Points {
				s.Points[i].X = xs[i]
			}
		}
		e.Series = append(e.Series, s)
	}
	return e, nil
}

// Experiment4 reproduces Figure 9: 15 % deletes, one unclustered index,
// varying the available memory from 2 to 10 MB.
func (r *Runner) Experiment4() (Experiment, error) {
	mems := []float64{2, 6, 10}
	xs := []string{"2 MB", "6 MB", "10 MB"}
	var cfgs []Config
	for _, m := range mems {
		cfgs = append(cfgs, Config{
			Rows: r.rows(), Fraction: 0.15, MemoryMB: m, NumIndexes: 1, Seed: r.seed(),
		})
	}
	e := Experiment{
		ID:     "exp4 (fig9)",
		Title:  "Vary size of available memory: 1 unclustered index, 15% deletes",
		XLabel: "main memory",
	}
	for _, row := range []struct {
		label string
		ap    Approach
	}{
		{"sorted/trad", SortedTrad},
		{"not sorted/trad", NotSortedTrad},
		{"bulk delete", BulkSortMerge},
	} {
		s, err := r.runSeries(row.label, row.ap, cfgs, xs)
		if err != nil {
			return e, err
		}
		e.Series = append(e.Series, s)
	}
	return e, nil
}

// Experiment5 reproduces Figure 10: the index on the delete attribute is
// clustered (the table is loaded in A-order). The sorted traditional
// approach becomes competitive — the paper's one case where it slightly
// beats the bulk delete — while the unsorted variant stays poor.
func (r *Runner) Experiment5() (Experiment, error) {
	fractions := []float64{0.06, 0.10, 0.15, 0.20}
	xs := []string{"6%", "10%", "15%", "20%"}
	mk := func(clustered bool) []Config {
		var cfgs []Config
		for _, f := range fractions {
			cfgs = append(cfgs, Config{
				Rows: r.rows(), Fraction: f, MemoryMB: 5, NumIndexes: 1,
				Clustered: clustered, Seed: r.seed(),
			})
		}
		return cfgs
	}
	e := Experiment{
		ID:     "exp5 (fig10)",
		Title:  "Clustered index: 1 index, 5 MB memory",
		XLabel: "percentage of deleted tuples",
	}
	for _, row := range []struct {
		label     string
		ap        Approach
		clustered bool
	}{
		{"sorted/trad/clust", SortedTrad, true},
		{"sorted/trad/unclust", SortedTrad, false},
		{"not sorted/trad/clust", NotSortedTrad, true},
		{"bulk delete", BulkSortMerge, true},
	} {
		s, err := r.runSeries(row.label, row.ap, mk(row.clustered), xs)
		if err != nil {
			return e, err
		}
		e.Series = append(e.Series, s)
	}
	return e, nil
}

// ParallelScaling measures the parallel DAG scheduler on the multi-device
// disk array: the same DELETE — a slim access index plus eight payload-
// heavy secondary indexes, 5% victims — executed serially and with the
// remaining-index ⋈̸ passes fanned out across 1/2/4/8 device arms. The
// serial curve reports the serial-equivalent simulated time; the parallel
// curve the scheduled makespan. At one device the two coincide (nothing
// can overlap); the gap then widens with the array until the pass count
// caps the usable width.
func (r *Runner) ParallelScaling() (Experiment, error) {
	devices := []int{1, 2, 4, 8}
	xs := []string{"1", "2", "4", "8"}
	mk := func(parallel bool) []Config {
		var cfgs []Config
		for _, d := range devices {
			c := Config{
				Rows: r.rows(), Fraction: 0.05, MemoryMB: 16, NumIndexes: 9,
				KeyLen: 200, WideRest: true, TupleSize: 96,
				Seed: r.seed(), Devices: d,
			}
			if parallel {
				c.Parallel = d
			}
			cfgs = append(cfgs, c)
		}
		return cfgs
	}
	e := Experiment{
		ID:     "parallel",
		Title:  "Parallel DAG scheduler: 8 secondary indexes over a multi-device array, 5% deletes",
		XLabel: "devices",
	}
	for _, row := range []struct {
		label    string
		parallel bool
	}{
		{"serial", false},
		{"parallel", true},
	} {
		s, err := r.runSeries(row.label, BulkSortMerge, mk(row.parallel), xs)
		if err != nil {
			return e, err
		}
		e.Series = append(e.Series, s)
	}
	return e, nil
}

// HeapScaling measures the partitioned-heap ⋈̸ pass on the multi-device
// array: a heap-dominated DELETE — one slim access index, 10% victims over
// the paper's 512-byte tuples — with the heap hash-partitioned into as
// many files as the array has data devices. The serial curve runs the
// per-partition passes one after another; the parallel curve schedules
// them as independent DAG nodes, one per device. At one device/one
// partition the two coincide; the heap pass then scales with the array,
// because unlike the secondary-index fan-out it needs no extra index
// structures — the base table itself is the parallel work.
func (r *Runner) HeapScaling() (Experiment, error) {
	devices := []int{1, 2, 4, 8}
	xs := []string{"1", "2", "4", "8"}
	mk := func(parallel bool) []Config {
		var cfgs []Config
		for _, d := range devices {
			c := Config{
				Rows: r.rows(), Fraction: 0.10, MemoryMB: 16, NumIndexes: 1,
				Seed: r.seed(), Devices: d,
			}
			if d > 1 {
				c.HeapParts = d
			}
			if parallel {
				c.Parallel = d
			}
			cfgs = append(cfgs, c)
		}
		return cfgs
	}
	e := Experiment{
		ID:     "heapscale",
		Title:  "Partitioned heap ⋈̸ pass over a multi-device array, 10% deletes, heap-dominated",
		XLabel: "devices (= heap partitions)",
	}
	for _, row := range []struct {
		label    string
		parallel bool
	}{
		{"serial", false},
		{"parallel", true},
	} {
		s, err := r.runSeries(row.label, BulkSortMerge, mk(row.parallel), xs)
		if err != nil {
			return e, err
		}
		e.Series = append(e.Series, s)
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
	tgt := Target(tbl)
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

// ReorgAblation measures §2.3's reorganization during the bulk delete
// (Figure 6's mechanism): leaf compaction/merging on versus off, at a high
// delete fraction where reorganization can reclaim many pages.
func (r *Runner) ReorgAblation() (Experiment, error) {
	fractions := []float64{0.30, 0.50, 0.70}
	xs := []string{"30%", "50%", "70%"}
	mk := func(reorg bool) []Config {
		var cfgs []Config
		for _, f := range fractions {
			cfgs = append(cfgs, Config{
				Rows: r.rows(), Fraction: f, MemoryMB: 5, NumIndexes: 1,
				Reorganize: reorg, Seed: r.seed(),
			})
		}
		return cfgs
	}
	e := Experiment{
		ID:     "reorg (fig6)",
		Title:  "Ablation: B+-tree reorganization during the bulk delete",
		XLabel: "deleted tuples",
	}
	for _, row := range []struct {
		label string
		reorg bool
	}{
		{"bulk delete, no reorg", false},
		{"bulk delete, reorg", true},
	} {
		s, err := r.runSeries(row.label, BulkSortMerge, mk(row.reorg), xs)
		if err != nil {
			return e, err
		}
		e.Series = append(e.Series, s)
	}
	return e, nil
}

// MethodAblation compares the three ⋈̸ methods across memory budgets — the
// paper asserts "the tradeoffs between hashing and sorting for bulk deletes
// are the same as for regular joins" (§4).
func (r *Runner) MethodAblation() (Experiment, error) {
	mems := []float64{2, 5, 10}
	xs := []string{"2 MB", "5 MB", "10 MB"}
	mk := func() []Config {
		var cfgs []Config
		for _, m := range mems {
			cfgs = append(cfgs, Config{
				Rows: r.rows(), Fraction: 0.15, MemoryMB: m, NumIndexes: 3, Seed: r.seed(),
			})
		}
		return cfgs
	}
	e := Experiment{
		ID:     "methods",
		Title:  "Ablation: sort/merge vs hash vs hash+range-partition (3 indexes, 15%)",
		XLabel: "main memory",
	}
	for _, row := range []struct {
		label string
		ap    Approach
	}{
		{"sort/merge", BulkSortMerge},
		{"hash", BulkHash},
		{"hash+partition", BulkPartition},
		{"auto (planner)", BulkAuto},
	} {
		s, err := r.runSeries(row.label, row.ap, mk(), xs)
		if err != nil {
			return e, err
		}
		e.Series = append(e.Series, s)
	}
	return e, nil
}

// Crossover sweeps the paper's three-index table from a handful of victims to
// a tenth of it on a log axis: each of the three methods forced, and the
// planner's pick (the result's method says which). The sorting plan's index
// ⋈̸ is the seeking walk, so its curve follows the victims' leaves from a
// few root-to-leaf descents up to one chained pass.
func (r *Runner) Crossover() (Experiment, error) {
	fractions := []float64{0.00005, 0.0002, 0.0005, 0.002, 0.005, 0.01, 0.02, 0.05, 0.10}
	xs := []string{"0.005%", "0.02%", "0.05%", "0.2%", "0.5%", "1%", "2%", "5%", "10%"}
	var cfgs []Config
	for _, f := range fractions {
		cfgs = append(cfgs, Config{Rows: r.rows(), Fraction: f, MemoryMB: 5, NumIndexes: 3, Seed: r.seed()})
	}
	e := Experiment{
		ID:     "crossover",
		Title:  "One seeking walk: the three methods forced and the planner's choice (3 indexes, 5 MB)",
		XLabel: "deleted tuples (% of tuples)",
	}
	for _, row := range []struct {
		label string
		ap    Approach
	}{
		{"sort/merge", BulkSortMerge},
		{"hash", BulkHash},
		{"hash+range-partition", BulkPartition},
		{"auto (planner)", BulkAuto},
	} {
		s, err := r.runSeries(row.label, row.ap, cfgs, xs)
		if err != nil {
			return e, err
		}
		e.Series = append(e.Series, s)
	}
	return e, nil
}

// UpdateAblation measures the paper's UPDATE sketch (§1: "increasing the
// salary of above-average Employees involves carrying out a bulk delete
// (and bulk insert) on the Emp.salary index"): the vertical bulk update
// against a row-at-a-time loop (lookup, delete, reinsert per record).
func (r *Runner) UpdateAblation() (Experiment, error) {
	fractions := []float64{0.05, 0.10, 0.15}
	xs := []string{"5%", "10%", "15%"}
	e := Experiment{
		ID:     "update",
		Title:  "Extension: vertical bulk UPDATE vs row-at-a-time (index on the updated attribute)",
		XLabel: "updated tuples",
	}
	type variant struct {
		label    string
		vertical bool
	}
	for _, v := range []variant{
		{"bulk update (vertical)", true},
		{"row-at-a-time update", false},
	} {
		s := Series{Label: v.label}
		for i, f := range fractions {
			cfg := Config{Rows: r.rows(), Fraction: f, MemoryMB: 5, NumIndexes: 2, Seed: r.seed()}
			res, err := runUpdate(cfg, v.vertical)
			if err != nil {
				return e, err
			}
			r.report("  %-28s %-10s %8.2f min  (updated %d)", v.label, xs[i], res.Minutes, res.Deleted)
			s.Points = append(s.Points, Point{X: xs[i], Result: res})
		}
		e.Series = append(e.Series, s)
	}
	return e, nil
}

// runUpdate builds the benchmark table and updates attribute 1 of the
// victim rows (predicate on attribute 0), either vertically or row by row.
func runUpdate(cfg Config, vertical bool) (Result, error) {
	mem := cfg.scaledMemory()
	disk := sim.NewDisk(sim.DefaultCostModel())
	pool := buffer.New(disk, mem)
	tbl, rows, err := workload.Build(pool, cfg.spec())
	if err != nil {
		return Result{}, err
	}
	tbl.SortBudget = mem
	victims := workload.VictimSample(rows, 0, cfg.Fraction, cfg.Seed+1000)
	if err := tbl.Flush(); err != nil {
		return Result{}, err
	}
	res := Result{Config: cfg}
	disk.ResetStats()
	start := disk.Clock()
	const bump = int64(1) << 40 // keeps updated values unique
	if vertical {
		st, err := core.ExecuteUpdate(Target(tbl), 0, victims, 1,
			func(v int64) int64 { return v + bump }, core.Options{Memory: mem})
		if err != nil {
			return Result{}, err
		}
		res.Deleted = st.Updated
	} else {
		access := tbl.IndexOnField(0)
		setIx := tbl.IndexOnField(1)
		for _, v := range victims {
			rids, err := access.Tree.Search(access.EncodeKey(v))
			if err != nil {
				return Result{}, err
			}
			for _, rid := range rids {
				rec, err := tbl.Heap.Get(rid)
				if err != nil {
					return Result{}, err
				}
				old := tbl.Schema.Field(rec, 1)
				tbl.Schema.SetField(rec, 1, old+bump)
				if err := tbl.Heap.Update(rid, rec); err != nil {
					return Result{}, err
				}
				// Record-at-a-time index maintenance: delete + insert.
				if err := setIx.Tree.Delete(setIx.EncodeKey(old), rid); err != nil {
					return Result{}, err
				}
				if err := setIx.Tree.Insert(setIx.EncodeKey(old+bump), rid); err != nil {
					return Result{}, err
				}
				res.Deleted++
			}
		}
	}
	if err := tbl.Flush(); err != nil {
		return Result{}, err
	}
	res.SimTime = disk.Clock() - start
	res.Minutes = res.SimTime.Minutes()
	res.Disk = disk.Stats()
	if cfg.Verify {
		if err := tbl.CheckConsistency(); err != nil {
			return Result{}, err
		}
	}
	return res, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// LSMHeadToHead benchmarks the same range delete — `WHERE A < k`, with k
// covering 5/20/50 % of the table — on both storage backends over
// identical logical data:
//
//   - the paper's ⋈̸ bulk delete over the heap with three B-tree indexes
//     (the victim range resolved to its value list, sort/merge plan);
//   - the LSM backend issuing one range tombstone (the statement's
//     foreground cost, O(1) I/O at every selectivity);
//   - the LSM backend issuing the tombstone and then compacting to the
//     tombstone-free fixpoint (foreground + full space reclamation, the
//     cost Lethe-style delete-aware triggers spread over later flushes).
func (r *Runner) LSMHeadToHead() (Experiment, error) {
	fractions := []float64{0.05, 0.20, 0.50}
	xs := []string{"5%", "20%", "50%"}
	var cfgs []Config
	for _, f := range fractions {
		cfgs = append(cfgs, Config{
			Rows: r.rows(), Fraction: f, MemoryMB: 5, NumIndexes: 3,
			Seed: r.seed(), ContiguousVictims: true,
		})
	}
	e := Experiment{
		ID:     "lsm",
		Title:  "Range delete head-to-head: ⋈̸ over B-trees vs LSM tombstones, identical data, vary selectivity",
		XLabel: "deleted tuples (% of tuples)",
	}
	s, err := r.runSeries("⋈̸ over B-trees (3 ix)", BulkSortMerge, cfgs, xs)
	if err != nil {
		return e, err
	}
	e.Series = append(e.Series, s)
	for _, ap := range []Approach{LSMTombstone, LSMReclaim} {
		s := Series{Label: ap.String()}
		for i, cfg := range cfgs {
			res, err := runLSM(cfg, ap == LSMReclaim)
			if err != nil {
				return e, err
			}
			r.report("  %-28s %-10s %8.2f min  (deleted %d)", s.Label, xs[i], res.Minutes, res.Deleted)
			s.Points = append(s.Points, Point{X: xs[i], Result: res})
		}
		e.Series = append(e.Series, s)
	}
	return e, nil
}

// runLSM measures one LSM-backend range delete. The table is poured from
// the same workload.Generate matrix the heap side loads (keyed on A, a
// permutation of [0, Rows)), flushed into SSTables, and its WAL tail
// drained, so the timed statement starts from a durable base exactly like
// Run does. The measured window covers the delete statement — and, when
// reclaim is set, compaction to the tombstone-free fixpoint — plus the
// write-back, so every approach pays for the I/O it caused.
func runLSM(cfg Config, reclaim bool) (Result, error) {
	spec := cfg.spec()
	rows, err := workload.Generate(spec)
	if err != nil {
		return Result{}, err
	}
	mem := cfg.scaledMemory()
	db, err := bulkdel.Open(bulkdel.Options{BufferBytes: mem, Backend: bulkdel.BackendLSM})
	if err != nil {
		return Result{}, err
	}
	tbl, err := db.CreateTable("R", spec.Fields, spec.TupleSize)
	if err != nil {
		return Result{}, err
	}
	for _, vals := range rows {
		if _, err := tbl.Insert(vals...); err != nil {
			return Result{}, err
		}
	}
	if err := tbl.CompactLSM(); err != nil {
		return Result{}, err
	}
	if err := db.Flush(); err != nil {
		return Result{}, err
	}

	ap := LSMTombstone
	if reclaim {
		ap = LSMReclaim
	}
	res := Result{Approach: ap, Config: cfg, Workers: 1}
	k := int64(float64(cfg.Rows) * cfg.Fraction) // WHERE A < k: exactly k rows
	db.ResetDiskStats()
	start := db.Clock()
	if _, err := tbl.DeleteRange(0, 0, k-1, bulkdel.BulkOptions{}); err != nil {
		return Result{}, err
	}
	if reclaim {
		if err := tbl.CompactLSM(); err != nil {
			return Result{}, err
		}
	}
	if err := db.Flush(); err != nil {
		return Result{}, err
	}
	res.SimTime = db.Clock() - start
	res.Makespan = res.SimTime
	res.Minutes = res.SimTime.Minutes()
	res.Deleted = k
	res.Disk = db.DiskStats()

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
