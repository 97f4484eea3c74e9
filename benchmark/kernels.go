package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"bulkdel/internal/buffer"
	"bulkdel/internal/keyenc"
	"bulkdel/internal/lsm"
	"bulkdel/internal/page"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
	"bulkdel/internal/sql"
	"bulkdel/internal/table"
	"bulkdel/internal/wal"
	paperload "bulkdel/internal/workload"
	"bulkdel/internal/xsort"
)

// The standalone kernels time the exported functions of the layers below
// the root API, on structures shaped like the workload's table (record
// size, pool size, and its row count capped at kernelRows). Each reports
// the median over kernelBatches batches of the mean time per call.
const (
	kernelRows    = 50_000
	kernelBatches = 5
)

// sink keeps the compiler from discarding a measured call's result.
var sink int

// kernelScale shrinks every kernel's call count under -scale, so the smoke
// test stays quick; runKernels sets it.
var kernelScale = 1.0

// perCall runs fn n times per batch (scaled, at least ten) and returns the
// median batch's nanoseconds per call. fn receives the call's ordinal
// across all batches.
func perCall(n int, fn func(i int)) float64 {
	n = scaleInt(n, kernelScale, 10)
	batch := make([]float64, kernelBatches)
	for b := range batch {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(b*n + i)
		}
		batch[b] = float64(time.Since(t0)) / float64(n)
	}
	return median(batch)
}

// calls is how many times perCall(n, fn) calls fn in all.
func calls(n int) float64 { return float64(scaleInt(n, kernelScale, 10) * kernelBatches) }

// mallocs returns the heap objects allocated so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runKernels measures every kernel and returns its metrics by name.
func runKernels(cfg *config) (map[string]float64, error) {
	m := make(map[string]float64)
	kernelScale = cfg.scale
	for _, k := range []func(*config, map[string]float64) error{
		codecKernels, pageKernels, simKernel, bufferKernels, walKernel, xsortKernels,
		tableKernels, lsmKernels, parseKernel,
	} {
		if err := k(cfg, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func codecKernels(cfg *config, m map[string]float64) error {
	const n = 200_000
	m["keyenc.int64key_ns"] = perCall(n, func(i int) { sink += len(keyenc.Int64Key(int64(i), 8)) })
	a, b := keyenc.Int64Key(12345, 8), keyenc.Int64Key(12346, 8)
	m["keyenc.compare_ns"] = perCall(n, func(i int) { sink += keyenc.Compare(a, b) })

	schema := record.Schema{NumFields: 3, Size: cfg.w.recSize}
	rec := make([]byte, schema.Size)
	fields := []int64{1, 2, 3}
	var err error
	m["record.encode_ns"] = perCall(n, func(i int) {
		fields[0] = int64(i)
		if e := schema.EncodeInto(rec, fields); e != nil {
			err = e
		}
	})
	before := mallocs()
	m["record.decode_ns"] = perCall(n, func(i int) {
		out, e := schema.Decode(rec)
		if e != nil {
			err = e
		}
		sink += len(out)
	})
	m["record.decode_allocs"] = float64(mallocs()-before) / calls(n)
	return err
}

func pageKernels(cfg *config, m map[string]float64) error {
	rec := make([]byte, cfg.w.recSize)
	capacity := page.Capacity(len(rec))
	p := page.Wrap(make([]byte, sim.PageSize))
	// One call = fill an empty page; reported per record inserted.
	m["page.insert_ns"] = perCall(2000, func(int) {
		p.Init(1)
		for i := 0; i < capacity; i++ {
			if _, ok := p.Insert(rec); !ok {
				panic("benchmark: page.Capacity overstates what fits")
			}
		}
	}) / float64(capacity)
	var err error
	m["page.get_ns"] = perCall(200_000, func(i int) {
		r, e := p.Get(i % capacity)
		if e != nil {
			err = e
		}
		sink += len(r)
	})
	// One call = refill, delete every second record, compact.
	fill := func() {
		p.Init(1)
		for i := 0; i < capacity; i++ {
			p.Insert(rec)
		}
		for i := 0; i < capacity; i += 2 {
			if e := p.Delete(i); e != nil {
				err = e
			}
		}
	}
	withCompact := perCall(2000, func(int) { fill(); p.Compact() })
	without := perCall(2000, func(int) { fill() })
	m["page.compact_ns"] = withCompact - without
	return err
}

// simKernel times the simulator itself: what one page read or write costs
// in real time, whatever it charges on the simulated clock.
func simKernel(_ *config, m map[string]float64) error {
	disk := sim.NewDisk(sim.DefaultCostModel())
	f := disk.CreateFile()
	const pages = 1024
	for i := 0; i < pages; i++ {
		if _, err := disk.Allocate(f); err != nil {
			return err
		}
	}
	buf := make([]byte, sim.PageSize)
	rng := rand.New(rand.NewSource(1))
	var err error
	m["sim.page_io_ns"] = perCall(50_000, func(i int) {
		p := sim.PageNo(rng.Intn(pages))
		var e error
		if i%2 == 0 {
			e = disk.ReadPage(f, p, buf)
		} else {
			e = disk.WritePage(f, p, buf)
		}
		if e != nil {
			err = e
		}
	})
	return err
}

func bufferKernels(_ *config, m map[string]float64) error {
	disk := sim.NewDisk(sim.DefaultCostModel())
	const frames, pages = 64, 1024
	pool := buffer.New(disk, frames*sim.PageSize)
	f := disk.CreateFile()
	for i := 0; i < pages; i++ {
		if _, err := disk.Allocate(f); err != nil {
			return err
		}
	}
	var err error
	get := func(p int) {
		fr, e := pool.Get(f, sim.PageNo(p))
		if e != nil {
			err = e
			return
		}
		pool.Unpin(fr, false)
	}
	// Hits: cycle over fewer pages than frames. Misses: cycle over more
	// pages than frames, which defeats LRU on every access.
	m["buffer.get_hit_ns"] = perCall(100_000, func(i int) { get(i % (frames / 2)) })
	m["buffer.get_miss_ns"] = perCall(20_000, func(i int) { get(i % pages) })
	return err
}

func walKernel(_ *config, m map[string]float64) error {
	log := wal.Create(sim.NewDisk(sim.DefaultCostModel()))
	payload := make([]byte, 64)
	var err error
	m["wal.append_ns"] = perCall(50_000, func(i int) {
		if _, e := log.Append(wal.TNote, 1, uint64(i), 0, payload); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	return log.Flush()
}

// xsortKernels sorts ⟨key, RID⟩-sized rows once within the memory budget and
// once with a budget a sixteenth of the input, which spills runs to the
// simulated disk and merges them.
func xsortKernels(_ *config, m map[string]float64) error {
	const rowSize = 16
	rows := scaleInt(100_000, kernelScale, 2000)
	input := make([]byte, rows*rowSize)
	rand.New(rand.NewSource(1)).Read(input)
	sortOnce := func(budget int) (nsPerRow float64, simTime time.Duration, spilled bool, err error) {
		disk := sim.NewDisk(sim.DefaultCostModel())
		t0 := time.Now()
		s, err := xsort.New(disk, rowSize, budget, bytes.Compare)
		if err != nil {
			return 0, 0, false, err
		}
		for i := 0; i < rows; i++ {
			if err := s.Add(input[i*rowSize : (i+1)*rowSize]); err != nil {
				return 0, 0, false, err
			}
		}
		it, err := s.Finish()
		if err != nil {
			return 0, 0, false, err
		}
		n := 0
		for {
			_, ok, err := it.Next()
			if err != nil {
				return 0, 0, false, err
			}
			if !ok {
				break
			}
			n++
		}
		if err := it.Close(); err != nil {
			return 0, 0, false, err
		}
		if n != rows {
			return 0, 0, false, fmt.Errorf("benchmark: xsort returned %d of %d rows", n, rows)
		}
		return float64(time.Since(t0)) / float64(rows), disk.Clock(), s.Spilled(), nil
	}
	var mem, spill, spillSim []float64
	for b := 0; b < kernelBatches; b++ {
		ns, _, spilled, err := sortOnce(2 * rows * rowSize)
		if err != nil {
			return err
		}
		if spilled {
			return fmt.Errorf("benchmark: in-memory xsort kernel spilled")
		}
		mem = append(mem, ns)
		ns, simTime, spilled, err := sortOnce(rows * rowSize / 16)
		if err != nil {
			return err
		}
		if !spilled {
			return fmt.Errorf("benchmark: spilling xsort kernel stayed in memory")
		}
		spill = append(spill, ns)
		spillSim = append(spillSim, float64(simTime)/float64(time.Millisecond)/(float64(rows)/1000))
	}
	m["xsort.mem_ns_per_row"] = median(mem)
	m["xsort.spill_ns_per_row"] = median(spill)
	m["xsort.spill_sim_ms_per_krow"] = median(spillSim)
	return nil
}

// tableKernels builds the workload-shaped table with internal/workload.Build and
// times its B-tree and heap directly.
func tableKernels(cfg *config, m map[string]float64) error {
	rows := cfg.w.rows
	if rows > kernelRows {
		rows = kernelRows
	}
	poolBytes := cfg.w.poolBytes
	if poolBytes == 0 {
		poolBytes = 8 << 20
	}
	// Keep the table-to-pool ratio of the workload at the capped row count.
	poolBytes = int(float64(poolBytes) * float64(rows) / float64(cfg.w.rows))
	if poolBytes < 64*sim.PageSize {
		poolBytes = 64 * sim.PageSize
	}
	pool := buffer.New(sim.NewDisk(sim.DefaultCostModel()), poolBytes)
	tbl, data, err := paperload.Build(pool, paperload.Spec{
		Rows: rows, Fields: 3, TupleSize: cfg.w.recSize, ClusterField: -1, Seed: cfg.seed,
		Indexes: []table.IndexDef{{Name: "IA", Field: 0, Unique: true}},
	})
	if err != nil {
		return err
	}
	tree := tbl.Idx[0].Tree
	rng := rand.New(rand.NewSource(cfg.seed))
	const n = 20_000

	var kerr error
	fail := func(e error) {
		if e != nil && kerr == nil {
			kerr = e
		}
	}
	rids := make([]record.RID, 0, n)
	before := pool.Stats()
	m["btree.search_ns"] = perCall(n, func(int) {
		got, e := tree.Search(keyenc.Int64Key(data[rng.Intn(rows)][0], 8))
		fail(e)
		if len(got) == 1 && len(rids) < n {
			rids = append(rids, got[0])
		}
	})
	after := pool.Stats()
	m["btree.page_refs_per_search"] = float64(after.Hits+after.Misses-before.Hits-before.Misses) / calls(n)

	// Keys above the loaded permutation, in random order; RIDs are made up —
	// the tree stores them opaquely.
	fresh := rng.Perm(n * kernelBatches)
	key := func(i int) []byte { return keyenc.Int64Key(int64(rows+fresh[i]), 8) }
	rid := func(i int) record.RID { return record.RID{Page: sim.PageNo(1 + i/100), Slot: uint16(i % 100)} }
	m["btree.insert_ns"] = perCall(n, func(i int) { fail(tree.Insert(key(i), rid(i))) })
	m["btree.delete_ns"] = perCall(n, func(i int) { fail(tree.Delete(key(i), rid(i))) })

	if len(rids) == 0 {
		return fmt.Errorf("benchmark: btree kernel found none of its keys")
	}
	m["heap.get_ns"] = perCall(n, func(i int) {
		rec, e := tbl.Heap.Get(rids[i%len(rids)])
		fail(e)
		sink += len(rec)
	})
	rec := make([]byte, cfg.w.recSize)
	m["heap.insert_ns"] = perCall(n, func(int) { _, e := tbl.Heap.Insert(rec); fail(e) })
	count := tbl.Heap.Count()
	m["heap.scan_ns_per_row"] = perCall(1, func(int) {
		fail(tbl.Heap.Scan(func(record.RID, []byte) error { sink++; return nil }))
	}) / float64(count)
	pages, err := tbl.Heap.Parts()[0].NumPages()
	if err != nil {
		return err
	}
	m["heap.pages_per_krow"] = float64(pages) / float64(count) * 1000
	return kerr
}

// lsmKernels times Tree.Get on a standalone tree holding 1, 64 and 1024
// live range tombstones. MemLimit and TombstoneTTL are set out of reach so
// the tombstones are neither flushed nor compacted away; they cover keys
// below the probed ones, so every Get returns its row. Flat across the
// three is what ROADMAP's range-tombstone index must deliver.
func lsmKernels(cfg *config, m map[string]float64) error {
	const keys = 10_000
	rec := make([]byte, cfg.w.recSize)
	for _, tc := range []struct {
		name  string
		tombs int
	}{{"lsm.get_ns.rtombs1", 1}, {"lsm.get_ns.rtombs64", 64}, {"lsm.get_ns.rtombs1k", 1024}} {
		pool := buffer.New(sim.NewDisk(sim.DefaultCostModel()), 8<<20)
		tree := lsm.New(pool, len(rec), lsm.Options{MemLimit: 1 << 30, TombstoneTTL: 1 << 30})
		for k := int64(0); k < keys; k++ {
			tree.Put(k, rec, tree.NextSeq())
		}
		for i := 0; i < tc.tombs; i++ {
			lo := int64(-1000 * (i + 1))
			tree.DeleteRange(lo, lo+999, tree.NextSeq())
		}
		rng := rand.New(rand.NewSource(cfg.seed))
		var err error
		m[tc.name] = perCall(20_000, func(int) {
			_, ok, e := tree.Get(rng.Int63n(keys))
			if e != nil {
				err = e
			} else if !ok {
				err = fmt.Errorf("benchmark: lsm kernel lost a live key")
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// parseKernel times sql.Parse on a DELETE with a 1,000-literal IN list, the
// statement shape a bulk delete arrives in over SQL.
func parseKernel(_ *config, m map[string]float64) error {
	var b strings.Builder
	b.WriteString("DELETE FROM r WHERE a IN (")
	for i := 0; i < 1000; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", i*7919)
	}
	b.WriteString(")")
	src := b.String()
	var err error
	m["sql.parse_us.delete_in"] = perCall(200, func(int) {
		if _, e := sql.Parse(src); e != nil {
			err = e
		}
	}) / 1e3
	return err
}
