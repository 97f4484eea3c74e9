package main

import (
	"path/filepath"
	"time"

	"bulkdel/internal/obs"
	"bulkdel/internal/sim"
	"bulkdel/internal/sql"
)

// The traced run gives the per-layer numbers by peeled replay: the same
// seeded statement stream is executed on a fresh database at each shallower
// entry point — wire.Client.Exec, session.Session.Exec, sql.Parse alone,
// the equivalent bulkdel.Table call — over the counted prefix only, so every
// count repeats exactly. Per statement kind, a layer's self time is the
// difference of the median latencies of adjacent depths. Below the root API
// the standalone kernels (kernels.go) time each package's exported
// functions. mixed_heap has two connections and is not peeled: it reports
// counters and the parse depth only.

// probeResult is what the probes that follow a replay measured at its depth.
type probeResult struct {
	presentUS, absentUS float64 // median point-read latency on held / missing keys
	refsPerRead         float64 // buffer-pool references per read of a held key
	refsPerRow          float64 // the same per row returned
	allocsPoint         float64 // heap objects allocated per point read
	allocsInsert        float64 // and per single-row insert
}

// probeCount is how many reads and inserts each probe issues.
const probeCount = 200

// runProbes issues point reads on keys the model holds, on keys it does not,
// and inserts of fresh keys, each as one uninterrupted series so that
// counter differences around the series belong to that kind alone.
func (r *runner) runProbes() {
	n := scaleInt(probeCount, r.cfg.scale, 20)
	present, absent := r.gen.probe(n)
	fresh := r.gen.fresh(n)
	st := r.cfg.w.stmts()
	series := func(kind opKind, keys []int64, want int64) (medianUS, refs, rows, allocs float64) {
		ops := make([]op, len(keys))
		for i, k := range keys {
			ops[i] = op{kind: kind, a: k, want: want}
			if kind == opPoint {
				ops[i].sql = st.point(k)
			} else {
				ops[i].sql = st.insert(k)
			}
		}
		lat := make([]float64, len(ops))
		pool0, m0 := r.e.db.PoolStats(), mallocs()
		for i := range ops {
			t0 := time.Now()
			got, affected, err := r.ex.exec(&ops[i])
			lat[i] = float64(time.Since(t0)) / float64(time.Microsecond)
			r.res.attempted++
			if err != nil || !verify(&ops[i], got, affected) {
				r.res.failed++
			}
			rows += float64(len(got))
		}
		pool1, m1 := r.e.db.PoolStats(), mallocs()
		refs = float64(pool1.Hits + pool1.Misses - pool0.Hits - pool0.Misses)
		return median(lat), refs, rows, float64(m1-m0) / float64(len(ops))
	}
	p := &r.res.probe
	var refs, rows float64
	p.presentUS, refs, rows, p.allocsPoint = series(opPoint, present, 1)
	p.refsPerRead = refs / float64(n)
	p.refsPerRow = ratio(refs, rows)
	p.absentUS, _, _, _ = series(opPoint, absent, 0)
	_, _, _, p.allocsInsert = series(opInsert, fresh, 1)
}

// parseResult is the parse depth of the peeled replay.
type parseResult struct {
	medianUS [numKinds]float64
	allocs   float64 // heap objects allocated per statement parsed
	failed   int64
	stmts    int64
}

// parseReplay runs sql.Parse alone over the counted prefix of the stream.
func parseReplay(cfg *config, tr *tracer) *parseResult {
	gen := cfg.w.newGen(cfg.w, cfg.seed)
	// The model must hold the preloaded rows for the stream to match the
	// other depths'; nothing is loaded anywhere.
	_ = gen.preload(func([3]int64) error { return nil })
	gen.round() // the warm-up round of the other depths
	res := &parseResult{}
	var lat [numKinds][]float64
	var req int32
	var spent uint64
	for round := 0; round < cfg.w.minRounds; round++ {
		ops := gen.round()
		m0 := mallocs()
		for i := range ops {
			o := &ops[i]
			req++
			t0 := time.Now()
			_, err := sql.Parse(o.sql)
			d := time.Since(t0)
			tr.add(kindNames[o.kind], depthNames[depthParse], t0, d, -1, req)
			lat[o.kind] = append(lat[o.kind], float64(d)/float64(time.Microsecond))
			if err != nil {
				res.failed++
			}
		}
		spent += mallocs() - m0
		res.stmts += int64(len(ops))
	}
	for k := range lat {
		res.medianUS[k] = median(lat[k])
	}
	res.allocs = ratio(float64(spent), float64(res.stmts))
	return res
}

// tracedRun executes the traced run of one workload and returns its
// per-layer metrics.
func tracedRun(cfg *config) (*runResult, error) {
	w := cfg.w
	tr := newTracer()
	out := &runResult{Workload: w.name}

	// Up to four phases share the time the untraced run gives its one.
	window := cfg.seconds / 4
	entry, err := runPhase(cfg, phaseOpts{depth: w.entry, seconds: window, tr: tr, probes: true, crash: true})
	if err != nil {
		return nil, err
	}
	plain, err := runPhase(cfg, phaseOpts{depth: w.entry, seconds: window})
	if err != nil {
		return nil, err
	}
	out.Attempted, out.Failed = entry.attempted+plain.attempted, entry.failed+plain.failed

	var sess, api *phaseResult
	var parse *parseResult
	if w.entry == depthWire {
		parse = parseReplay(cfg, tr)
		out.Attempted += parse.stmts
		out.Failed += parse.failed
	} else {
		api = entry
	}
	if w.entry == depthWire && w.clients == 1 {
		if sess, err = runPhase(cfg, phaseOpts{depth: depthSession, seconds: window, tr: tr, probes: true}); err != nil {
			return nil, err
		}
		if api, err = runPhase(cfg, phaseOpts{depth: depthAPI, seconds: window, tr: tr, probes: true}); err != nil {
			return nil, err
		}
		out.Attempted += sess.attempted + api.attempted
		out.Failed += sess.failed + api.failed
	}
	kernels, err := runKernels(cfg)
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(cfg.outDir, w.name+".trace.json")); err != nil {
		return nil, err
	}

	// A depth that was not replayed reports 0 for everything measured there.
	peeled := sess != nil
	if parse == nil {
		parse = &parseResult{}
	}
	if sess == nil {
		sess = &phaseResult{}
	}
	if api == nil {
		api = &phaseResult{}
	}
	m := kernels
	p := &entry.prefix
	from, to := p.from, p.to
	ops, fg := float64(p.ops), float64(p.fg)
	deletes, victims := float64(p.deletes), float64(p.victims)
	allocsPerOp := func(res *phaseResult) float64 {
		return ratio(float64(res.prefix.to.mallocs-res.prefix.from.mallocs), float64(res.prefix.ops))
	}

	// wire, sql, session, root API: peeled.
	for _, k := range fgKinds {
		name := kindNames[k]
		wireUS, sessUS, apiUS := median(entry.lat[k]), median(sess.lat[k]), median(api.lat[k])
		m["sql.parse_us."+name] = parse.medianUS[k]
		m["api.us."+name] = apiUS
		m["wire.self_us."+name], m["session.self_us."+name] = 0, 0
		if peeled {
			m["wire.self_us."+name] = wireUS - sessUS
			m["session.self_us."+name] = sessUS - parse.medianUS[k] - apiUS
		}
	}
	m["wire.req_bytes_per_op"] = ratio(float64(p.reqBytes), ops)
	m["wire.resp_bytes_per_op"] = ratio(float64(p.respBytes), ops)
	m["wire.allocs_per_op"] = 0
	if peeled {
		m["wire.allocs_per_op"] = allocsPerOp(entry) - allocsPerOp(sess)
	}
	m["sql.parse_allocs_per_stmt"] = parse.allocs
	m["session.page_refs_per_row.point"] = sess.probe.refsPerRow
	m["api.allocs.point"], m["api.allocs.insert"] = api.probe.allocsPoint, api.probe.allocsInsert

	// core: the bulk deletes' own phase spans, on the simulated clock.
	c := entry.core
	total := float64(c.total)
	m["core.collect_sim_share"] = ratio(float64(c.collect), total)
	m["core.sort_sim_share"] = ratio(float64(c.sort), total)
	m["core.heap_pass_sim_share"] = ratio(float64(c.heapPass), total)
	m["core.index_pass_sim_share"] = ratio(float64(c.indexPass), total)
	m["core.wal_sim_share"] = ratio(float64(c.wal), total)
	m["core.wall_us_per_victim"] = ratio(float64(p.delWall)/float64(time.Microsecond), victims)
	var delSim float64
	for _, s := range p.delSim {
		delSim += s
	}
	m["core.sim_ms_per_victim"] = ratio(delSim*1e3, victims)
	m["core.plan_est_over_actual"] = ratio(float64(c.estimate), float64(c.actual))

	m["btree.height"] = float64(entry.indexHeight)

	// buffer, sim, wal, cc, mvcc: the engine's counters over the prefix.
	d := to.snap.Sub(from.snap)
	m["buffer.hit_ratio"] = ratio(float64(d.Hits), float64(d.Hits+d.Misses))
	m["buffer.evictions_per_op"] = ratio(float64(d.Evictions), ops)
	m["buffer.dirty_evict_share"] = ratio(float64(d.DirtyEvicts), float64(d.Evictions))
	m["sim.reads_per_op"] = ratio(float64(d.Reads), ops)
	m["sim.writes_per_op"] = ratio(float64(d.Writes), ops)
	m["sim.random_share"] = ratio(float64(d.Seeks), float64(d.Seeks+d.NearOps+d.SeqOps))
	m["sim.chained_runs_per_kop"] = ratio(float64(d.ChainedRuns)*1000, ops)
	reg := func(name string) float64 { return float64(to.reg[name] - from.reg[name]) }
	m["wal.bytes_per_victim"] = ratio(float64(d.WALBytes), victims)
	m["wal.flushes_per_delete"] = ratio(reg(obs.MetricWALFlushes), deletes)
	m["wal.append_wait_us_per_delete"] = ratio(reg(obs.MetricWALAppendWaitUS), deletes)
	m["wal.recover_ms"] = entry.recoverMS
	m["wal.rollforward_ms"] = entry.rollMS
	m["wal.rollforward_sim_s"] = entry.rollSimS
	m["cc.lock_waits"] = reg(obs.MetricLockWaits)
	m["cc.lock_wait_us_per_fg_op"] = ratio(reg(obs.MetricLockWaitUS), fg)
	on, off := stallPerDelete(entry)
	m["cc.stall_ms_per_delete.concurrent_on"] = on
	m["cc.stall_ms_per_delete.concurrent_off"] = off
	var slowUS, busyUS float64
	for _, s := range entry.slow {
		slowUS += float64(s.dur) / float64(time.Microsecond)
	}
	for _, k := range fgKinds {
		for _, v := range entry.lat[k] {
			busyUS += v
		}
	}
	m["fg.stall_share"] = ratio(slowUS, busyUS)
	m["mvcc.snapshot_reads"] = reg(obs.MetricSnapshotReads)
	m["mvcc.snapshot_read_waits"] = reg(obs.MetricSnapshotReadWaits)
	m["mvcc.fallback_scans"] = reg(obs.MetricSnapshotFallbackScans)
	m["mvcc.retained_bytes_peak"] = float64(entry.retainedPeak)

	// lsm: API-depth probes, the manifest, and write amplification.
	for _, name := range []string{"lsm.get_us.live", "lsm.get_us.dead", "lsm.page_refs_per_get", "lsm.write_amp",
		"lsm.files", "lsm.levels", "lsm.rtombs_live", "lsm.tombs_live", "lsm.tomb_age_max_ticks",
		"lsm.flushes", "lsm.sst_created", "lsm.insert_max_ms", "lsm.stall_count"} {
		m[name] = 0
	}
	if w.lsm {
		m["lsm.get_us.live"] = api.probe.presentUS
		m["lsm.get_us.dead"] = api.probe.absentUS
		m["lsm.page_refs_per_get"] = api.probe.refsPerRead
		m["lsm.write_amp"] = ratio(float64(d.Writes)*sim.PageSize, float64(p.inserts)*float64(w.recSize))
		man := p.manifest
		m["lsm.levels"] = float64(len(man.Levels))
		for _, lvl := range man.Levels {
			m["lsm.files"] += float64(len(lvl))
			for _, meta := range lvl {
				m["lsm.rtombs_live"] += float64(meta.RangeTombs)
				m["lsm.tombs_live"] += float64(meta.Tombs)
				if age := float64(man.Tick - meta.Born); (meta.RangeTombs > 0 || meta.Tombs > 0) && age > m["lsm.tomb_age_max_ticks"] {
					m["lsm.tomb_age_max_ticks"] = age
				}
			}
		}
		m["lsm.flushes"] = float64(man.Tick - p.manifestAtStart.Tick)
		m["lsm.sst_created"] = float64(man.Created - p.manifestAtStart.Created)
		m["lsm.insert_max_ms"] = float64(p.insertMax) / float64(time.Millisecond)
		m["lsm.stall_count"] = float64(p.stalls)
	}

	// process.
	m["proc.allocs_per_op"] = allocsPerOp(entry)
	m["proc.alloc_bytes_per_op"] = ratio(float64(to.bytes-from.bytes), ops)
	m["proc.gc_cycles"] = float64(to.gcCycles - from.gcCycles)
	m["proc.gc_pause_ms_total"] = float64(to.gcPause-from.gcPause) / 1e6
	m["proc.cpu_s"] = (to.cpu - from.cpu).Seconds()
	m["trace.overhead_ratio"] = ratio(fgThroughput(entry), fgThroughput(plain))
	m["lat.insert_p50_us"] = steadyQuantile(entry.lat[opInsert], 0.50)
	m["lat.range_p50_us"] = steadyQuantile(entry.lat[opRange], 0.50)
	m["tail.point_p99_us"] = steadyQuantile(entry.lat[opPoint], 0.99)
	m["tail.insert_p99_us"] = steadyQuantile(entry.lat[opInsert], 0.99)

	out.Samples = map[string]int{}
	for k, name := range kindNames {
		out.Samples[name] = len(entry.lat[k])
	}
	return out, out.fill(perLayer, m)
}

// stallPerDelete attributes the foreground's stalled INSERTs to the purge
// whose interval they overlap, and averages per purge by its mode.
func stallPerDelete(res *phaseResult) (onMS, offMS float64) {
	var sum [2]float64
	var n [2]float64
	for _, p := range res.purges {
		mode := 0
		if !p.concurrent {
			mode = 1
		}
		n[mode]++
		end := p.start.Add(p.dur)
		for _, s := range res.slow {
			if s.start.Before(end) && s.start.Add(s.dur).After(p.start) {
				sum[mode] += float64(s.dur) / float64(time.Millisecond)
			}
		}
	}
	return ratio(sum[0], n[0]), ratio(sum[1], n[1])
}
