// Package core implements the paper's contribution: the vertical bulk
// delete operator (⋈̸) and the three physical strategies to execute a
// DELETE plan built from it —
//
//   - sort/merge (§2.2.1, Figure 3): every victim list is sorted to match
//     the physical order of the structure it is deleted from, turning all
//     deletions into sequential merge passes;
//   - classic hash (§2.2.2, Figure 4): the RID list of the deleted records
//     is kept in an in-memory hash table and the table and remaining
//     indexes are scanned once, probing each record/entry by RID;
//   - hash + range partitioning (§2.2.2, Figure 5): when the victim lists
//     outgrow memory they are range-partitioned on the target index's key
//     so each partition fits, and each partition is processed with an
//     in-memory hash probe over just its leaf range.
//
// A small cost-based planner picks among them (the "⋈̸ method" decision the
// paper assigns to the query optimizer), the index processing order follows
// §3.1.3 (unique indexes first, then by priority), and the primary ⋈̸
// predicate is by key for merge passes and by RID for hash probes — the two
// options §2.1 describes.
package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"bulkdel/internal/btree"
	"bulkdel/internal/buffer"
	"bulkdel/internal/cc"
	"bulkdel/internal/heap"
	"bulkdel/internal/obs"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
	"bulkdel/internal/wal"
)

// Method selects the physical bulk-delete strategy.
type Method int

const (
	// Auto lets the planner choose by estimated cost.
	Auto Method = iota
	// SortMerge is the sorting plan of Figure 3.
	SortMerge
	// Hash is the in-memory hash plan of Figure 4.
	Hash
	// HashPartition is the hash + range-partitioning plan of Figure 5.
	HashPartition
)

func (m Method) String() string {
	switch m {
	case Auto:
		return "auto"
	case SortMerge:
		return "sort/merge"
	case Hash:
		return "hash"
	case HashPartition:
		return "hash+range-partition"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// IndexRef is core's view of one index of the target table. Gate, when
// set, owns the tree: a read-only probe enters it as a reader
// (probeKeys); the bulk passes run while the engine holds it offline.
type IndexRef struct {
	Name      string
	Tree      *btree.Tree
	Field     int
	Unique    bool
	Clustered bool
	Priority  int
	Gate      *cc.Gate
}

// Target is core's view of the table a bulk delete operates on. Heap is
// the table's storage, whose partitions the heap ⋈̸ pass processes as
// independent DAG nodes.
type Target struct {
	Name    string
	Heap    *heap.Heap
	Schema  record.Schema
	Indexes []IndexRef
	Pool    *buffer.Pool
	// Retain, when set, receives every victim's pre-delete image (RID +
	// record bytes) immediately before its slot is tombstoned or truncated
	// away — the MVCC hook that parks deleted rows in the table's version
	// store so concurrent snapshot readers keep seeing them. Every delete
	// path, including the whole-partition truncate, retains
	// unconditionally: consulting "any snapshot open?" mid-statement would
	// race a reader registering between the check and the statement's
	// commit epoch. The bytes are only valid during the call.
	Retain func(rid record.RID, rec []byte)
	// Hooks are the executor's test interception points; the zero value
	// (every production target) has none.
	Hooks Hooks
	// part is the ordinal of the partition a partition job's Heap is a
	// one-partition view of: the tag its raw page numbers carry in
	// table-level RIDs (0 otherwise).
	part int
}

// Hooks lets a test stop a statement inside a window no public boundary
// exposes. Each is called on the statement's goroutine, every time its point
// is passed.
type Hooks struct {
	// MidHeapPass runs after each slot deletion of a sort/merge heap pass — a
	// point where the statement holds its exclusive table lock and a pinned
	// heap page but no latch or pool mutex, so concurrent snapshot readers
	// are free to run.
	MidHeapPass func()
	// PostTruncate runs right after a whole-partition truncate inside the
	// heap pass: the partition's pages are already released, the statement's
	// commit epoch is not yet stamped.
	PostTruncate func()
	// StructDone runs once a structure's pass is complete, on the pass's
	// goroutine, after the engine's OnStructureDone callback has reopened
	// what it owns.
	StructDone func(file sim.FileID)
}

// HeapFiles returns the file IDs of the heap's partitions in ordinal order.
func (t *Target) HeapFiles() []sim.FileID {
	parts := t.Heap.Parts()
	ids := make([]sim.FileID, len(parts))
	for i, p := range parts {
		ids[i] = p.ID()
	}
	return ids
}

// Options tunes one bulk delete execution.
type Options struct {
	// Ctx, when set, makes the run cooperatively cancellable: the executor
	// polls it at recoverable boundaries — checkpoint/page-I/O points in
	// the pass loops, structure starts/completions, and phase transitions —
	// and stops with ErrCancelled when it is done. The stop point is always
	// WAL-consistent, so the caller can roll the statement forward with
	// Resume (abort-to-consistency). A Ctx given without a Log is dropped:
	// the unlogged run (the paper experiments' direct calls) always
	// completes. Nil disables cancellation entirely. Recovery (Resume)
	// never takes the cancel path.
	Ctx context.Context
	// Method selects the strategy; Auto picks by estimated cost.
	Method Method
	// Memory is the working-memory budget in bytes for sorts and hash
	// tables (default table.DefaultSortBudget = 5 MB).
	Memory int
	// Reorganize makes every deleting leaf walk merge as it goes (paper
	// §2.3): a leaf whose survivors fit in the leaf the walk read just
	// before it, under the same parent, is appended to it and freed when
	// the walk reads on to its right neighbour (btree.LeafCursor). The
	// engine's statements always set it; the paper's experiments run
	// without it ("we only reorganize and garbage collect an index page if
	// it is totally empty"), so it defaults off.
	Reorganize bool
	// Log enables the paper's §3.2 recovery protocol: victim lists are
	// materialized to stable storage, progress is checkpointed, and an
	// interrupted bulk delete is rolled forward by Resume.
	Log *wal.Log
	// TxID identifies the bulk delete in the log.
	TxID uint64
	// CheckpointRows is the number of deletions between mid-structure
	// checkpoints (default 100000; only with Log).
	CheckpointRows int
	// IgnoreMissing makes deletions of absent records/entries no-ops.
	// Resume sets it: re-applying an already-applied prefix must be
	// idempotent.
	IgnoreMissing bool
	// SkipStructures lists structure files already fully processed
	// (recovery).
	SkipStructures map[sim.FileID]bool
	// Parallel caps the virtual workers of the remaining-index passes
	// (phase 3) and of a partitioned heap's passes. 0 or 1 is serial; >1
	// schedules the independent ⋈̸ passes onto that many workers, at most
	// one per device of the disk array (the effective degree is
	// clampWorkers of this cap), and reports the schedule's makespan. The
	// passes themselves always run one after another on the statement's
	// goroutine. Recovery always runs serially.
	Parallel int
	// OnPassesStart is invoked once, before the first pass that changes a
	// structure; what precedes it (materializing and sorting the victims,
	// the read-only collect) only reads the table. The engine takes its
	// index gates offline here.
	OnPassesStart func()
	// OnStructureDone is invoked after each structure (heap or index) is
	// fully processed — the hook where the engine applies side-files and
	// brings index gates back online. It is called on the statement's
	// goroutine, in plan order.
	OnStructureDone func(file sim.FileID)
	// OnCriticalDone is invoked once the heap and every unique index are
	// processed — the point where the paper releases the table lock.
	OnCriticalDone func()
	// Trace, when set, receives one child span per plan phase under its
	// root (the caller finishes the trace). When nil, Execute creates and
	// finishes its own trace; either way Stats.Trace carries it.
	Trace *obs.Trace
	// Stmt, when set, is the statement's handle into the DB's lifecycle
	// event log: the executor publishes phase transitions, per-page and
	// per-row progress counters, WAL lifecycle records, and DAG node
	// start/finish events through it. Nil (the zero value) is fully
	// supported — every Stmt method is nil-safe — so direct core callers
	// and recovery pay nothing.
	Stmt *obs.Stmt

	// failAfterApplied injects a crash (errInjectedCrash) after that many
	// noteApplied calls across the whole run — recovery tests only.
	failAfterApplied int
	// failAfterStructs injects a crash after that many completed
	// structures — recovery tests only.
	failAfterStructs int
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Memory <= 0 {
		out.Memory = 5 << 20
	}
	if out.CheckpointRows <= 0 {
		out.CheckpointRows = 100000
	}
	if out.Log == nil {
		out.Ctx = nil // only a logged run can stop where Resume picks up
	}
	return out
}

// StructStats reports what happened to one structure, including the I/O
// the structure's ⋈̸ pass caused (taken from the pass's trace-span diff).
type StructStats struct {
	Name    string
	File    sim.FileID
	Deleted int64
	Elapsed time.Duration
	// Per-pass I/O attribution.
	Reads    uint64 // pages read during the pass
	Writes   uint64 // pages written during the pass
	Seeks    uint64 // full positioning charges paid
	Hits     uint64 // buffer-pool hits
	Misses   uint64 // buffer-pool misses
	WALBytes uint64 // log bytes made durable during the pass
	// An index pass's leaf level: leaves its walk merged into their
	// neighbours (Options.Reorganize) and leaves the tree has after it.
	LeavesMerged int64
	Leaves       int64
}

// HitRatio returns the pass's buffer hit ratio in [0,1] (-1 when the pass
// never touched the pool).
func (ss StructStats) HitRatio() float64 {
	return obs.Delta{Hits: ss.Hits, Misses: ss.Misses}.HitRatio()
}

// Stats reports one bulk delete execution.
type Stats struct {
	Method       Method
	Victims      int
	Deleted      int64 // records deleted from the heap
	PerStructure []StructStats
	Partitions   int // hash+range-partition only
	PlanText     string
	Elapsed      time.Duration
	// Plan is the executed plan tree (PlanText is its plain rendering);
	// after the run it carries per-node actuals for ExplainAnalyze.
	Plan *PlanNode
	// Estimates is the planner's cost table, in plan order — kept so the
	// estimated cost can be compared against the measured time.
	Estimates []CostEstimate
	// Trace is the phase tree with per-span I/O attribution.
	Trace *obs.Trace

	// Schedule is the deterministic virtual schedule of the parallel
	// index-pass section (nil when the statement ran serially).
	Schedule *Schedule
	// HeapSchedule is the schedule of the parallel per-partition heap-pass
	// section (nil for one-partition heaps or serial heap passes).
	HeapSchedule *Schedule
	// Workers is the degree of parallelism actually used (1 when serial).
	Workers int
	// ParallelRequested is the worker cap the statement asked for
	// (Options.Parallel). When it exceeds 1 but Workers stayed 1, the
	// request was clamped — single device, too few secondary indexes, or a
	// recovery run — and EXPLAIN ANALYZE says so instead of silently
	// dropping the parallel line.
	ParallelRequested int
	// Devices is the size of the disk array the statement ran against.
	Devices int
	// Makespan is the simulated wall-clock time of the statement: Elapsed
	// (the serial-equivalent total device+CPU time) minus the parallel
	// section's summed device time plus its scheduled makespan. For a
	// serial run Makespan == Elapsed.
	Makespan time.Duration
	// LockWait is the real (wall-clock) time the statement spent blocked
	// acquiring its table-lock footprint: zero for uncontended runs and
	// nondeterministic under contention, so it is reported (EXPLAIN
	// ANALYZE, MetricsJSON) only when nonzero.
	LockWait time.Duration
}

// PlanNode is one operator of the logical plan, used for explain output in
// the style of the paper's Figures 3-5.
type PlanNode struct {
	Op       string
	Detail   string
	Children []*PlanNode
	// Annot, when set, is rendered on its own "↳" line under the node —
	// EXPLAIN ANALYZE fills it with the node's measured actuals.
	Annot string
}

// String renders the plan as an indented operator tree.
func (p *PlanNode) String() string {
	var b strings.Builder
	p.render(&b, "", true)
	return b.String()
}

func (p *PlanNode) render(b *strings.Builder, prefix string, last bool) {
	connector := "├─ "
	childPrefix := prefix + "│  "
	if last {
		connector = "└─ "
		childPrefix = prefix + "   "
	}
	if prefix == "" {
		connector = ""
		childPrefix = "   "
	}
	b.WriteString(prefix + connector + p.Op)
	if p.Detail != "" {
		b.WriteString("  " + p.Detail)
	}
	b.WriteString("\n")
	if p.Annot != "" {
		b.WriteString(childPrefix + "↳ " + p.Annot + "\n")
	}
	for i, c := range p.Children {
		c.render(b, childPrefix, i == len(p.Children)-1)
	}
}

// bdel formats the bulk delete operator symbol with its inner structure.
func bdel(structure, method, pred string) string {
	return fmt.Sprintf("⋈̸[%s] %s (by %s)", method, structure, pred)
}

// BuildPlan constructs the explain tree for the given method against the
// target — the code form of the paper's Figures 3, 4 and 5.
func BuildPlan(tgt *Target, field int, method Method, mem int, parts int) *PlanNode {
	access := accessIndex(tgt, field)
	rest := remainingIndexes(tgt, access)
	root := &PlanNode{
		Op:     "DELETE",
		Detail: fmt.Sprintf("FROM %s WHERE field%d IN D  —  method=%s, memory=%s", tgt.Name, field, method, fmtBytes(mem)),
	}
	sortD := &PlanNode{Op: "sort", Detail: fmt.Sprintf("π_field%d(D) by key", field)}
	var ridSource *PlanNode
	if access != nil {
		ridSource = &PlanNode{
			Op:       bdel(access.Name, "merge", "key"),
			Detail:   "→ RIDs of deleted entries",
			Children: []*PlanNode{sortD},
		}
	} else {
		ridSource = &PlanNode{
			Op:       "scan " + tgt.Name,
			Detail:   fmt.Sprintf("filter field%d ∈ D → RIDs", field),
			Children: []*PlanNode{sortD},
		}
	}
	switch method {
	case Hash:
		// The RID hash table is a shared subexpression, split into every
		// probe — the paper's Figure 4 draws it as a DAG; the explain
		// tree prints the branch once and references it afterwards.
		hashRID := &PlanNode{Op: "hash build", Detail: "RID list → main-memory hash table", Children: []*PlanNode{ridSource}}
		hashRef := &PlanNode{Op: "⤷ shared", Detail: "the RID hash table built above"}
		root.Children = append(root.Children,
			heapDeleteNodes(tgt, "hash-probe scan", "", "the RID hash table built above", hashRID)...)
		for _, ix := range rest {
			root.Children = append(root.Children,
				&PlanNode{Op: bdel(ix.Name, "hash-probe scan", "RID"), Children: []*PlanNode{hashRef}})
		}
	case HashPartition:
		sortRID := &PlanNode{Op: "sort", Detail: "RIDs by physical position", Children: []*PlanNode{ridSource}}
		root.Children = append(root.Children,
			heapDeleteNodes(tgt, "merge", "→ π_{key,RID} per remaining index", "the sorted RID list above", sortRID)...)
		for _, ix := range rest {
			part := &PlanNode{
				Op:       "range partition",
				Detail:   fmt.Sprintf("π_{%s,RID} into %d partitions by index separators", ix.Name, parts),
				Children: []*PlanNode{{Op: "π", Detail: fmt.Sprintf("{key(%s), RID} from %s deletes", ix.Name, tgt.Name)}},
			}
			root.Children = append(root.Children, &PlanNode{
				Op:       bdel(ix.Name, "hash-probe leaf range", "key,RID"),
				Detail:   "one in-memory hash per partition",
				Children: []*PlanNode{part},
			})
		}
	default: // SortMerge (and Auto, before the planner has chosen)
		sortRID := &PlanNode{Op: "sort", Detail: "RIDs by physical position", Children: []*PlanNode{ridSource}}
		root.Children = append(root.Children,
			heapDeleteNodes(tgt, "merge", "→ π_{key,RID} per remaining index", "the sorted RID list above", sortRID)...)
		for _, ix := range rest {
			sortI := &PlanNode{
				Op:       "sort",
				Detail:   fmt.Sprintf("π_{%s,RID} by key", ix.Name),
				Children: []*PlanNode{{Op: "π", Detail: fmt.Sprintf("{key(%s), RID} from %s deletes", ix.Name, tgt.Name)}},
			}
			root.Children = append(root.Children, &PlanNode{
				Op:       bdel(ix.Name, "merge", "key,RID"),
				Children: []*PlanNode{sortI},
			})
		}
	}
	return root
}

// heapDeleteNodes renders the heap ⋈̸ pass: one operator for a
// one-partition heap, else one operator per partition — each partition is
// an independent DAG node the scheduler can place on its own device.
// PartName names partition i's operator and matches its StructStats.Name.
func heapDeleteNodes(tgt *Target, method, detail, sharedDetail string, child *PlanNode) []*PlanNode {
	var parts []*heap.File
	if tgt.Heap != nil {
		parts = tgt.Heap.Parts()
	}
	if len(parts) <= 1 {
		n := &PlanNode{Op: bdel(tgt.Name, method, "RID"), Detail: detail}
		if child != nil {
			n.Children = []*PlanNode{child}
		}
		return []*PlanNode{n}
	}
	out := make([]*PlanNode, len(parts))
	for i := range parts {
		n := &PlanNode{Op: bdel(PartName(tgt.Name, i), method, "RID"), Detail: detail}
		if i == 0 && child != nil {
			n.Children = []*PlanNode{child}
		} else if i > 0 {
			n.Children = []*PlanNode{{Op: "⤷ shared", Detail: sharedDetail}}
		}
		out[i] = n
	}
	return out
}

// PartName is the display name of one heap partition, used consistently by
// the plan tree, per-structure stats, and schedule labels.
func PartName(table string, part int) string {
	return fmt.Sprintf("%s[p%d]", table, part)
}

func fmtBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// accessIndex returns the first index over the field, or nil.
func accessIndex(tgt *Target, field int) *IndexRef {
	for i := range tgt.Indexes {
		if tgt.Indexes[i].Field == field {
			return &tgt.Indexes[i]
		}
	}
	return nil
}

// remainingIndexes returns every index except the access path, in the §3.1.3
// processing order: unique first, then by priority.
func remainingIndexes(tgt *Target, access *IndexRef) []*IndexRef {
	var rest []*IndexRef
	var infos []cc.IndexInfo
	for i := range tgt.Indexes {
		if &tgt.Indexes[i] == access {
			continue
		}
		rest = append(rest, &tgt.Indexes[i])
		infos = append(infos, cc.IndexInfo{
			Name:     tgt.Indexes[i].Name,
			Unique:   tgt.Indexes[i].Unique,
			Priority: tgt.Indexes[i].Priority,
		})
	}
	order := cc.ProcessingOrder(infos)
	out := make([]*IndexRef, len(order))
	for i, o := range order {
		out[i] = rest[o]
	}
	return out
}
