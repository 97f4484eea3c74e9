package main

import (
	"fmt"
	"math"
)

// depth is the layer at which statements enter the engine. The untraced run
// uses a workload's entry depth; the traced run replays the same stream at
// each shallower one (peeled replay, see trace.go).
type depth int

const (
	depthWire    depth = iota // wire.Client.Exec over loopback TCP
	depthSession              // session.Session.Exec in process
	depthParse                // sql.Parse alone, nothing executed
	depthAPI                  // the equivalent bulkdel.Table call
)

var depthNames = [...]string{"wire", "session", "parse", "api"}

// workload is one benchmark workload at full scale. minRounds rounds make
// the counted prefix (see phaseOpts); the sizes are chosen so that it needs
// two to three seconds on the two cores this was written on, and so that ten
// seconds of timed windows hold at least twenty deletes.
type workload struct {
	name string
	// why is the one-line reason BENCHMARK.json records.
	why string
	// clients is the number of closed-loop connections.
	clients int
	entry   depth
	lsm     bool

	rows      int // preloaded rows
	recSize   int // RECORD SIZE
	poolBytes int // buffer pool; 0 = the engine's 8 MB default
	// perRound is the round size: foreground statements (oltp_heap,
	// mixed_heap), read probes (bulk_heap) or inserts (lsm_tenant).
	perRound int
	// victims is the rows a delete removes (the heap workloads).
	victims   int
	minRounds int

	newGen func(w *workload, seed int64) generator
}

var workloads = []*workload{
	{
		name: "oltp_heap", clients: 1, entry: depthWire,
		why: "1 closed-loop wire client, 3-index heap table 6x the 8 MB pool: the front door and the buffer pool do the work; " +
			"its only deletes take 64 rows, so the bulk operator's fixed cost shows",
		rows: 300_000, recSize: 128, perRound: 2000, victims: 64, minRounds: 8,
		newGen: func(w *workload, seed int64) generator { return newOLTPGen(w, seed) },
	},
	{
		name: "bulk_heap", clients: 1, entry: depthAPI,
		why: "1 caller at the root API, no front door: rounds of a 5% BulkDelete, probes and refill on a heap 3x the pool " +
			"- the paper's experiment; core, xsort, btree passes and wal do the work",
		rows: 200_000, recSize: 128, perRound: 1100, victims: 10_000, minRounds: 8,
		newGen: func(w *workload, seed int64) generator { return newBulkGen(w, seed) },
	},
	{
		name: "mixed_heap", clients: 2, entry: depthWire,
		why: "2 closed-loop wire clients, table fits the 64 MB pool: a foreground mix runs while a second connection purges " +
			"the oldest rows - the only overlap of statements (locks, gates, side-files, MVCC)",
		rows: 200_000, recSize: 64, poolBytes: 64 << 20, perRound: 3750, victims: 1500, minRounds: 6,
		newGen: func(w *workload, seed int64) generator { return newMixedGen(w, seed) },
	},
	{
		name: "lsm_tenant", clients: 1, entry: depthWire, lsm: true,
		why: "1 closed-loop wire client on the LSM backend, fits the pool: random-order inserts, reads and one range-tombstone " +
			"tenant drop per round - flush, compaction, tombstones do the work; heap/btree/core idle",
		rows: 40_000, recSize: 64, perRound: 400, minRounds: 20,
		newGen: func(w *workload, seed int64) generator { return newLSMGen(w, seed) },
	},
}

// stmts renders statements for the workload's table.
func (w *workload) stmts() stmts {
	if w.lsm {
		return lsmStmts
	}
	return heapStmts
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("benchmark: unknown workload %q", name)
}

// scaled shrinks a workload for the smoke test: rows, round size and victim
// count scale with s, the length of the counted prefix with its root.
func (w *workload) scaled(s float64) *workload {
	if s == 1 {
		return w
	}
	c := *w
	c.rows = scaleInt(w.rows, s, 2*lsmTenants)
	c.perRound = scaleInt(w.perRound, s, 40)
	c.victims = scaleInt(w.victims, s, 20)
	c.minRounds = scaleInt(w.minRounds, math.Sqrt(s), 4)
	return &c
}

func scaleInt(n int, s float64, floor int) int {
	if n == 0 {
		return 0
	}
	if v := int(float64(n) * s); v > floor {
		return v
	}
	return floor
}
