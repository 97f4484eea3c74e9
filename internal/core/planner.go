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
// cost of each ⋈̸ method and pick the cheapest. The estimates use the same
// cost model the simulated disk charges, so the planner and the execution
// agree by construction.

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
// method, in plan order (SortMerge, Hash, HashPartition), for victims
// scattered over the key space.
func EstimateCosts(tgt *Target, field int, victims int, memory int) []CostEstimate {
	return priceMethods(tgt, field, victims, 0, memory)
}

// planStatement is the planner's verdict on one statement: the estimates and
// the method it runs — the one Options forces, or for Auto the cheapest.
func planStatement(tgt *Target, field int, values []int64, o Options) ([]CostEstimate, Method) {
	ests := priceMethods(tgt, field, len(values), keySpan(values), o.Memory)
	if o.Method != Auto {
		return ests, o.Method
	}
	return ests, bestEstimate(ests)
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
	gap                    float64 // leafGap: the pages the walk's chained read passes over
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
		gap:     float64(leafGap(cm)),
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

// seek prices the seeking walk reading touched of lp leaves in file order.
// Scattered, the gap after a touched leaf is k untouched ones with chance
// q(1−q)^k (q = touched/lp): a chained read passes over one of at most gap
// pages, a skip jumps any longer one.
func (p pricer) seek(lp, touched float64) time.Duration {
	if touched <= 0 {
		return 0
	}
	q := math.Min(1, touched/lp)
	stride := (1 - q) / q // the mean gap, and past any gap the mean rest
	jumps := touched * math.Pow(1-q, p.gap+1)
	passed := math.Max(0, touched*stride-jumps*(p.gap+1+stride))
	return p.chain(touched+passed) + pages(jumps, p.cm.Skip(sim.PageNo(math.Ceil(p.gap+2+stride))))
}

// leaves returns ix's leaf count and how many of its leaves hold at least one
// of rows victim entries (keys spanning span values, 0 = scattered or
// unknown).
func (p pricer) leaves(ix *IndexRef, rows, span float64) (lp, touched float64) {
	// The leaf level is the file less its meta page (the inner levels are
	// under a hundredth of it), which unlike entries ÷ capacity stays right
	// once inserts have split the leaves.
	lp = 1.0
	if n, err := p.disk.NumPages(ix.Tree.ID()); err == nil && n > 1 {
		lp = float64(n - 1)
	}
	touched = lp * (1 - math.Pow(1-1/lp, rows))
	// A unique index holds at most one entry per key value, which bounds a
	// clustered victim set far below that.
	perLeaf := math.Max(1, float64(ix.Tree.Count())/lp)
	if span > 0 && ix.Unique {
		touched = math.Min(touched, span/perLeaf+1)
	}
	return lp, touched
}

// priceMethods prices a delete of victims records on field, the victim keys
// spanning span values (0 = scattered), by every method, in plan order. An
// index ⋈̸ of the sorting plans is the seeking walk over the leaves holding a
// victim; the hash plans read every leaf. Either writes back what it touched.
func priceMethods(tgt *Target, field int, victims int, span float64, memory int) []CostEstimate {
	p := newPricer(tgt.Pool.Disk(), memory)
	v := float64(victims)
	n := math.Max(1, float64(tgt.Heap.Count()))
	recsPerPage := float64(page.Capacity(tgt.Schema.Size))
	heapPages := n / recsPerPage
	victimPages := heapPages * (1 - math.Pow(1-math.Min(1, v/n), recsPerPage))
	access := accessIndex(tgt, field)

	// Finding the victims is the access index's ⋈̸ by key, or a filter scan.
	// The sorting plans' heap ⋈̸ is skip-sequential over the victim pages;
	// the hash plan scans the whole heap.
	find := p.chain(heapPages)
	if access != nil {
		lp, touched := p.leaves(access, v, span)
		find = p.seek(lp, touched) + pages(touched, p.writeIO)
	}
	heapMerge := min(p.chain(heapPages), pages(victimPages, p.randIO)) + pages(victimPages, p.writeIO)
	sm := p.sort(v, 8) + p.sort(v, record.RIDSize) + find + heapMerge
	hash := p.sort(v, 8) + find + p.chain(heapPages) + pages(victimPages, p.writeIO)
	hp := sm
	for _, ix := range remainingIndexes(tgt, access) {
		lp, touched := p.leaves(ix, v, 0)
		writes := pages(touched, p.writeIO)
		rowSize := float64(ix.Tree.KeyLen() + record.RIDSize)
		sm += p.sort(v, rowSize) + p.seek(lp, touched) + writes
		// Hash probes every entry by RID: a full pass, no list to sort.
		hash += p.chain(lp) + writes
		// HashPartition writes + reads the ⟨key,RID⟩ list twice (list,
		// partitions) before its pass.
		ioPages := 4 * v * rowSize / sim.PageSize
		hp += pages(ioPages, p.seqIO) + pages(ioPages/rowFileChunk, p.randIO) + p.chain(lp) + writes
	}

	ests := []CostEstimate{{Method: SortMerge, Time: sm}}
	// Hash applies when the RID set fits in memory.
	if v*(record.RIDSize+hashOverheadPerEntry) <= float64(memory) {
		ests = append(ests, CostEstimate{Method: Hash, Time: hash})
	}
	return append(ests, CostEstimate{Method: HashPartition, Time: hp})
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
