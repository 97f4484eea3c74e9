package core

import (
	"math"
	"time"

	"bulkdel/internal/page"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
)

// The planner mirrors the optimizer decisions the paper assigns to the
// query engine (§2.1): given the table size, the number of victims, the
// number and shape of the indexes, and the memory budget, estimate the I/O
// cost of each ⋈̸ method and pick the cheapest — per index, between reading
// its leaf level and probing it. The estimates use the same cost model the
// simulated disk charges, so the planner and the execution agree by
// construction.

// CostEstimate is a simulated-time estimate for one method.
type CostEstimate struct {
	Method Method
	Time   time.Duration
}

// ChooseMethod picks the cheapest applicable strategy.
func ChooseMethod(tgt *Target, field int, victims int, memory int) Method {
	return bestEstimate(EstimateCosts(tgt, field, victims, memory))
}

// bestEstimate returns the cheapest method of a non-empty estimate list.
func bestEstimate(ests []CostEstimate) Method {
	best := ests[0]
	for _, e := range ests[1:] {
		if e.Time < best.Time {
			best = e
		}
	}
	return best.Method
}

// EstimateCosts returns the estimated execution time of every applicable
// method, in plan order (SortMerge, Hash, HashPartition, Probe), for victims
// scattered over the key space.
func EstimateCosts(tgt *Target, field int, victims int, memory int) []CostEstimate {
	ests, _, _ := priceArms(tgt, field, victims, 0, memory)
	return ests
}

// planStatement is the planner's verdict on one statement: the estimates,
// the method Stats reports, and the indexes whose ⋈̸ runs as batched probes.
// A forced method has its arms fixed: every index for Probe, none for the
// paper's three. Auto compares the hash plans with the sorting plan at its
// per-index best and names the winner SortMerge or Probe when that is what
// the mix amounts to, Auto (with its own estimate) otherwise. A statement
// that asks for §2.3 reorganization keeps the passes, which do it.
func planStatement(tgt *Target, field int, values []int64, o Options) ([]CostEstimate, Method, map[*IndexRef]bool) {
	ests, mixed, probe := priceArms(tgt, field, len(values), keySpan(values), o.Memory)
	method := o.Method
	if method == Auto {
		cands := ests
		switch {
		case o.Reorganize:
			cands = ests[:len(ests)-1] // all but Probe
		case len(probe) > 0 && len(probe) < len(tgt.Indexes):
			// A true mix; otherwise it is SortMerge's or Probe's own plan.
			ests = append(ests, CostEstimate{Method: Auto, Time: mixed})
			cands = ests
		}
		method = bestEstimate(cands)
	}
	switch method {
	case Auto:
	case Probe:
		probe = allIndexes(tgt)
	default:
		probe = nil
	}
	return ests, method, probe
}

// allIndexes is the forced Probe plan's arm set.
func allIndexes(tgt *Target) map[*IndexRef]bool {
	all := make(map[*IndexRef]bool, len(tgt.Indexes))
	for i := range tgt.Indexes {
		all[&tgt.Indexes[i]] = true
	}
	return all
}

// keySpan is the width of the key interval the victim values come from.
func keySpan(values []int64) float64 {
	if len(values) == 0 {
		return 0
	}
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	return float64(hi) - float64(lo) + 1
}

// pricer prices plan steps with the charges of the simulated disk.
type pricer struct {
	disk                   *sim.Disk
	cm                     sim.CostModel
	randIO, seqIO, writeIO time.Duration
	memory                 int
}

func newPricer(disk *sim.Disk, memory int) pricer {
	cm := disk.CostModelInUse()
	return pricer{
		disk:   disk,
		cm:     cm,
		randIO: cm.Seek + cm.Rotation + cm.TransferPage,
		seqIO:  cm.TransferPage,
		// Dirty pages go back in page order: a transfer and half a
		// positioning each.
		writeIO: cm.TransferPage + (cm.Seek+cm.Rotation)/2,
		memory:  memory,
	}
}

func pages(n float64, each time.Duration) time.Duration { return time.Duration(n * float64(each)) }

// sort prices sorting rows of rowSize bytes: in memory when they fit (CPU
// only, negligible against I/O here), else one spill + merge pass (write +
// read, chained).
func (p pricer) sort(rows, rowSize float64) time.Duration {
	bytes := rows * rowSize
	if bytes <= float64(p.memory) {
		return 0
	}
	pgs := bytes / sim.PageSize
	return pages(2*pgs/rowFileChunk, p.randIO) + pages(2*pgs, p.seqIO)
}

// chain prices one chained read of n pages in file order: a transfer per
// page and, per read-ahead run, a short skip — each run starts where the
// last one ended, but the write-back between them moves the head a little.
func (p pricer) chain(n float64) time.Duration {
	return pages(n, p.seqIO) + pages(n/32, p.cm.Skip(p.cm.NearDistance))
}

// leafPass prices the pass arm of an index ⋈̸ over lp leaf pages of which
// dirty get modified: the chained walk, the write-back, and — weighted by
// the chance rebuild that the pass empties a leaf — RebuildUpper's second
// walk over the leaf level and its rewrite of the inner one.
func (p pricer) leafPass(ix *IndexRef, lp, dirty, rebuild float64) time.Duration {
	t := p.chain(lp) + pages(dirty, p.writeIO)
	upper := p.chain(lp) + pages(lp/float64(ix.Tree.InnerCapacity())+1, p.writeIO)
	return t + time.Duration(rebuild*float64(upper))
}

// probes prices the probe arm over lp leaves of which touched hold a victim:
// the batch reads them in key order, a chain of touched pages each a
// forward skip of about lp/touched pages priced on the disk's own
// positioning curve (the upper levels stay resident), and, when deleting,
// writes each back.
func (p pricer) probes(lp, touched float64, del bool) time.Duration {
	t := p.chain(touched) + pages(touched, p.cm.Skip(sim.PageNo(math.Ceil(lp/touched))))
	if del {
		t += pages(touched, p.writeIO)
	}
	return t
}

// arms prices ix's ⋈̸ with a list of rows entries (victim keys spanning span
// values, 0 = scattered or unknown) both ways; del says whether it deletes.
func (p pricer) arms(ix *IndexRef, rows, span float64, del bool) (pass, byProbes time.Duration) {
	// The leaf level is the file less its meta page (the inner levels are
	// under a hundredth of it), which unlike entries ÷ capacity stays right
	// once inserts have split the leaves.
	lp := 1.0
	if n, err := p.disk.NumPages(ix.Tree.ID()); err == nil && n > 1 {
		lp = float64(n - 1)
	}
	// Leaves holding at least one of the entries, were they scattered. A
	// unique index holds at most one entry per key value, which bounds a
	// clustered victim set far below that.
	touched := lp * (1 - math.Pow(1-1/lp, rows))
	entries := math.Max(1, float64(ix.Tree.Count()))
	perLeaf := math.Max(1, entries/lp)
	// A destructive pass rebuilds the inner levels only once it empties a
	// leaf (passJob.run). Scattered victims do that only if all of some
	// leaf's entries are victims; a clustered run as long as a leaf does.
	rebuild := math.Min(1, lp*math.Pow(math.Min(1, rows/entries), perLeaf))
	if span > 0 && ix.Unique && span/perLeaf+1 < touched {
		touched = span/perLeaf + 1
		rebuild = 0
		if rows >= perLeaf {
			rebuild = 1
		}
	}
	if !del {
		return p.leafPass(ix, lp, 0, 0), p.probes(lp, touched, false)
	}
	return p.leafPass(ix, lp, touched, rebuild), p.probes(lp, touched, true)
}

// probeCheaper reports whether one ⋈̸ of ix alone is cheaper by probes than
// by a leaf pass — the choice of the read-only joins outside a statement's
// plan.
func probeCheaper(tgt *Target, ix *IndexRef, values []int64, del bool, memory int) bool {
	pass, byProbes := newPricer(tgt.Pool.Disk(), memory).arms(ix, float64(len(values)), keySpan(values), del)
	return byProbes < pass
}

// priceArms prices a delete of victims records on field, the victim keys
// spanning span values (0 = scattered). It returns the estimate of every
// forced method in plan order, the estimate of the sorting plan with each
// index on its cheaper arm, and the indexes that arm is the probes for.
func priceArms(tgt *Target, field int, victims int, span float64, memory int) ([]CostEstimate, time.Duration, map[*IndexRef]bool) {
	p := newPricer(tgt.Pool.Disk(), memory)
	v := float64(victims)
	n := math.Max(1, float64(tgt.Heap.Count()))
	recsPerPage := float64(page.Capacity(tgt.Schema.Size))
	heapPages := n / recsPerPage
	victimPages := heapPages * (1 - math.Pow(1-math.Min(1, v/n), recsPerPage))
	access := accessIndex(tgt, field)
	probe := make(map[*IndexRef]bool)

	// arms prices ix's destructive ⋈̸ both ways and notes the cheaper.
	arms := func(ix *IndexRef, span float64) (pass, byProbes time.Duration) {
		if pass, byProbes = p.arms(ix, v, span, true); byProbes < pass {
			probe[ix] = true
		}
		return pass, byProbes
	}

	// Finding the victims is the access index's ⋈̸ by key, or a filter scan.
	// The sorting plans' heap ⋈̸ is skip-sequential over the victim pages;
	// the hash plan scans the whole heap.
	find := p.chain(heapPages)
	findByProbes := find
	if access != nil {
		find, findByProbes = arms(access, span)
	}
	heapMerge := min(p.chain(heapPages), pages(victimPages, p.randIO)) + pages(victimPages, p.writeIO)
	sorts := p.sort(v, 8) + p.sort(v, record.RIDSize)
	sm := sorts + find + heapMerge
	hash := p.sort(v, 8) + find + p.chain(heapPages) + pages(victimPages, p.writeIO)
	hp := sm
	pr := sorts + findByProbes + heapMerge
	mixed := sorts + min(find, findByProbes) + heapMerge
	for _, ix := range remainingIndexes(tgt, access) {
		pass, byProbes := arms(ix, 0)
		rowSize := float64(ix.Tree.KeyLen() + record.RIDSize)
		sortKeys := p.sort(v, rowSize)
		sm += sortKeys + pass
		pr += sortKeys + byProbes
		mixed += sortKeys + min(pass, byProbes)
		// Hash probes every entry by RID: a full pass, no list to sort.
		hash += pass
		// HashPartition writes + reads the ⟨key,RID⟩ list twice (list,
		// partitions) before its pass.
		ioPages := 4 * v * rowSize / sim.PageSize
		hp += pages(ioPages, p.seqIO) + pages(ioPages/rowFileChunk, p.randIO) + pass
	}

	ests := []CostEstimate{{Method: SortMerge, Time: sm}}
	// Hash applies when the RID set fits in memory.
	if v*(record.RIDSize+hashOverheadPerEntry) <= float64(memory) {
		ests = append(ests, CostEstimate{Method: Hash, Time: hash})
	}
	ests = append(ests, CostEstimate{Method: HashPartition, Time: hp}, CostEstimate{Method: Probe, Time: pr})
	return ests, mixed, probe
}

// estimatePartitions predicts the partition count the hash+range plan will
// use for the largest remaining index (for explain output).
func estimatePartitions(tgt *Target, rest []*IndexRef, victims int, memory int) int {
	parts := 1
	for _, ix := range rest {
		need := int64(victims) * int64(ix.Tree.KeyLen()+record.RIDSize+hashOverheadPerEntry)
		k := int(need/int64(memory)) + 1
		if k > parts {
			parts = k
		}
	}
	return parts
}
