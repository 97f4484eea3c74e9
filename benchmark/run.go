package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"bulkdel"
	"bulkdel/internal/lsm"
	"bulkdel/internal/obs"
	"bulkdel/internal/sim"
	"bulkdel/internal/wire"
)

// config is one invocation: one workload, one seed.
type config struct {
	w       *workload // already scaled
	seed    int64
	seconds float64
	trace   int
	scale   float64
	outDir  string
	// corrupt makes the harness expect a wrong answer once. Only the smoke
	// test sets it, to prove a mismatch is counted and fails the run.
	corrupt bool
}

// phaseOpts is one execution of the statement stream on a fresh database.
// A phase runs the counted prefix — minRounds rounds, over which every count
// and the simulated clock are taken, and which lets caches, the Go heap and
// the scheduler settle — and then the timed window: whole rounds until
// seconds have passed, from which every wall-clock number is taken.
type phaseOpts struct {
	depth depth
	// seconds is the length of the timed window; with 0 there is none and
	// the wall-clock numbers come from the counted prefix instead.
	seconds float64
	tr      *tracer
	// probes runs the per-layer probes after the counted prefix.
	probes bool
	// crash ends the phase with the crash-and-recover checks.
	crash bool
}

// stallLimit is the latency above which a foreground INSERT counts as
// stalled (by a purge's exclusive lock or an LSM flush and compaction).
const stallLimit = 5 * time.Millisecond

// obsCounters are the engine's own counters the per-layer metrics read.
var obsCounters = []string{
	obs.MetricLockWaits, obs.MetricLockWaitUS,
	obs.MetricWALFlushes, obs.MetricWALAppendWaitUS,
	obs.MetricSnapshotReads, obs.MetricSnapshotReadWaits, obs.MetricSnapshotFallbackScans,
}

// counters is everything read off public accessors at one instant.
type counters struct {
	snap     obs.Snapshot
	reg      map[string]int64
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  uint64
	cpu      time.Duration
}

func (e *env) capture() counters {
	c := counters{snap: e.db.Metrics(), reg: make(map[string]int64, len(obsCounters))}
	reg := e.db.Observer().Registry()
	for _, name := range obsCounters {
		c.reg[name] = reg.Counter(name).Value()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.bytes, c.gcCycles, c.gcPause = ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs
	c.cpu = cpuTime()
	return c
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// purgeRec is one mixed_heap purge as the purge connection saw it.
type purgeRec struct {
	start      time.Time
	dur        time.Duration
	concurrent bool
}

// slowStmt is a foreground INSERT that took longer than stallLimit.
type slowStmt struct {
	start time.Time
	dur   time.Duration
}

// coreAgg sums the phase spans of the bulk deletes' public traces.
type coreAgg struct {
	total, collect, sort, heapPass, indexPass, wal time.Duration
	estimate, actual                               time.Duration
}

// phaseResult is what one phase measured.
type phaseResult struct {
	setupS float64 // wall time of the set-up, warm-up round included
	// lat holds the latency in microseconds, by kind and in order of issue,
	// of every statement of the timed window (of the counted prefix when
	// there is no window); roundEnd[k][i] is len(lat[k]) after round i.
	lat       [numKinds][]float64
	roundEnd  [numKinds][]int
	rounds    int
	attempted int64
	failed    int64

	prefix struct {
		ops, fg, inserts, deletes, victims int64
		from, to                           counters
		delSim                             []float64 // simulated seconds per delete
		delWall                            time.Duration
		insertMax                          time.Duration
		stalls                             int64
		manifest                           lsm.Manifest
		manifestAtStart                    lsm.Manifest
		diskBytes                          int64
		live                               int64
		reqBytes, respBytes                int64
	}
	core         coreAgg
	purges       []purgeRec
	slow         []slowStmt
	retainedPeak int64
	memSysMB     float64

	probe       probeResult
	recoverMS   float64
	rollMS      float64
	rollSimS    float64
	indexHeight int
	// lastDeleteIO is the page I/Os the latest foreground delete issued.
	lastDeleteIO uint64
}

// runner executes rounds on one env at one depth.
type runner struct {
	cfg   *config
	po    phaseOpts
	e     *env
	gen   generator
	ex    executor
	res   *phaseResult
	lane  string
	round int32 // span index of the current round, -1 untraced
	req   int32

	measuring bool // past the warm-up round
	inPrefix  bool // inside the counted prefix
	sampling  bool // wall-clock samples are being kept
	corrupted bool

	// mixed_heap: the purge connection, its goroutine's mailbox, and whether
	// a purge is in flight.
	purgeEx   executor
	purgeReq  chan *op
	purgeDone chan purgeOutcome
	inFlight  bool

	lastTrace *bulkdel.Trace
	retained  *obs.Gauge // the engine's mvcc_retained_bytes
}

type purgeOutcome struct {
	o     *op
	rec   purgeRec
	sim   time.Duration
	ok    bool
	trace *bulkdel.Trace
}

// setUp builds a fresh env and generator, warms both with one unmeasured
// round, and returns a runner ready to measure.
func setUp(cfg *config, po phaseOpts, res *phaseResult) (r *runner, err error) {
	gen := cfg.w.newGen(cfg.w, cfg.seed)
	e, err := openEnv(cfg.w, gen)
	if err != nil {
		return nil, err
	}
	r = &runner{cfg: cfg, po: po, e: e, gen: gen, res: res, lane: depthNames[po.depth], round: -1,
		retained: e.db.Observer().Registry().Gauge(obs.MetricVersionsRetainedBytes)}
	defer func() {
		if err != nil {
			_ = r.tearDown() // the set-up error is the one worth reporting
		}
	}()
	if r.ex, err = e.executorAt(po.depth); err != nil {
		return nil, err
	}
	if cfg.w.clients > 1 {
		if r.purgeEx, err = e.executorAt(po.depth); err != nil {
			return nil, err
		}
		r.purgeReq = make(chan *op)
		r.purgeDone = make(chan purgeOutcome, 1) // one purge in flight at most
		go r.purgeLoop()
	}
	if err := r.runRound(gen.round()); err != nil {
		return nil, err
	}
	r.drainPurge()
	return r, nil
}

// tearDown stops the purge goroutine, closes the connections and drains the
// wire server.
func (r *runner) tearDown() error {
	r.drainPurge()
	var errs []error
	if r.purgeReq != nil {
		close(r.purgeReq)
		<-r.purgeDone // the goroutine's exit signal: a zero outcome
		errs = append(errs, r.purgeEx.close())
		r.purgeReq = nil
	}
	if r.ex != nil {
		errs = append(errs, r.ex.close())
		r.ex = nil
	}
	errs = append(errs, r.e.close())
	return errors.Join(errs...)
}

// purgeLoop is the second connection of mixed_heap: a closed loop of its
// own that runs the deletes the foreground hands it, one at a time.
func (r *runner) purgeLoop() {
	for o := range r.purgeReq {
		out := purgeOutcome{o: o, ok: true}
		out.rec.concurrent = o.concurrent
		set := "SET concurrent = off"
		if o.concurrent {
			set = "SET concurrent = on"
		}
		if _, _, err := r.purgeEx.exec(&op{sql: set}); err != nil {
			out.ok = false
		}
		c0 := r.e.db.Clock()
		out.rec.start = time.Now()
		_, affected, err := r.purgeEx.exec(o)
		out.rec.dur = time.Since(out.rec.start)
		out.sim = r.e.db.Clock() - c0
		out.ok = out.ok && err == nil && verify(o, nil, affected)
		out.trace = r.e.db.Observer().LastTrace()
		r.purgeDone <- out
	}
	r.purgeDone <- purgeOutcome{}
}

// drainPurge waits for the purge in flight, if any, and books it.
func (r *runner) drainPurge() {
	if !r.inFlight {
		return
	}
	out := <-r.purgeDone
	r.inFlight = false
	r.book(out.o, out.rec.start, out.rec.dur, out.sim, out.ok, out.trace)
	if r.sampling {
		r.res.purges = append(r.res.purges, out.rec)
	}
}

// runRound executes one round's statements in order.
func (r *runner) runRound(ops []op) error {
	db := r.e.db
	traced := r.po.tr != nil
	var roundStart time.Time
	if traced && r.measuring {
		roundStart = time.Now()
		r.round = r.po.tr.add("round", r.lane, roundStart, 0, -1, -1)
	}
	for i := range ops {
		o := &ops[i]
		if r.cfg.corrupt && r.measuring && !r.corrupted && o.kind == opPoint && o.want == 1 {
			o.want, r.corrupted = 0, true
		}
		if o.purge {
			// Closed loop, one delete at a time: the previous purge must
			// have returned before the next is sent.
			r.drainPurge()
			r.purgeReq <- o
			r.inFlight = true
			continue
		}
		var c0 time.Duration
		var io0 uint64
		if o.kind == opDelete {
			c0, io0 = db.Clock(), db.Disk().IOCount()
		}
		t0 := time.Now()
		rows, affected, err := r.ex.exec(o)
		d := time.Since(t0)
		ok := err == nil && verify(o, rows, affected)
		var simD time.Duration
		var tr *bulkdel.Trace
		if o.kind == opDelete {
			simD = db.Clock() - c0
			r.res.lastDeleteIO = db.Disk().IOCount() - io0
			tr = db.Observer().LastTrace()
		}
		r.book(o, t0, d, simD, ok, tr)
		if traced && r.measuring {
			if r.inPrefix {
				r.bookFrames(o)
			}
			if g := r.retained.Value(); g > r.res.retainedPeak {
				r.res.retainedPeak = g
			}
		}
		if err != nil && r.res.failed > 100 {
			return fmt.Errorf("benchmark: %s: giving up after %d failures, last: %w", r.cfg.w.name, r.res.failed, err)
		}
	}
	if traced && r.measuring {
		r.po.tr.spans[r.round].dur = time.Since(roundStart)
	}
	if r.sampling {
		for k := range r.res.lat {
			r.res.roundEnd[k] = append(r.res.roundEnd[k], len(r.res.lat[k]))
		}
	}
	return nil
}

// book files one finished statement: pass or fail, its latency sample, and,
// inside the counted prefix, its share of the exact counts.
func (r *runner) book(o *op, start time.Time, d, simD time.Duration, ok bool, tr *bulkdel.Trace) {
	res := r.res
	res.attempted++
	if !ok {
		res.failed++
	}
	if !r.measuring {
		return
	}
	r.req++
	spanIdx := r.po.tr.add(kindNames[o.kind], r.lane, start, d, r.round, r.req)
	if r.sampling {
		res.lat[o.kind] = append(res.lat[o.kind], float64(d)/float64(time.Microsecond))
		if o.kind == opInsert && d > stallLimit {
			res.slow = append(res.slow, slowStmt{start, d})
		}
	}
	if !r.inPrefix {
		return
	}
	p := &res.prefix
	p.ops++
	switch o.kind {
	case opInsert:
		p.fg++
		p.inserts++
		if d > p.insertMax {
			p.insertMax = d
		}
		if d > stallLimit {
			p.stalls++
		}
	case opDelete:
		p.deletes++
		p.delWall += d
		p.delSim = append(p.delSim, simD.Seconds())
		if o.want > 0 { // a blind LSM range tombstone counts no victims
			p.victims += o.want
		}
		if r.po.tr != nil && tr != nil && tr != r.lastTrace {
			r.lastTrace = tr
			r.bookCoreTrace(tr, spanIdx)
		}
	default:
		p.fg++
	}
}

// bookCoreTrace folds one bulk delete's public phase trace into the core
// aggregate and copies its phases, which run on the simulated clock, into
// the span file as children of the delete's wall-clock span.
func (r *runner) bookCoreTrace(tr *bulkdel.Trace, parent int32) {
	root := tr.Root()
	if root == nil || root.Name != "bulk-delete" {
		return
	}
	agg := &r.res.core
	elapsed := root.End - root.Start
	agg.total += elapsed
	for _, c := range root.Children {
		d := c.End - c.Start
		switch c.Name {
		case "materialize-victims", "collect-rids":
			agg.collect += d
		case "extract", "stage-keys":
			agg.sort += d
		case "heap-pass", "heap-split":
			agg.heapPass += d
		case "access-pass", "index-pass":
			agg.indexPass += d
		case "wal-commit":
			agg.wal += d
		}
		r.po.tr.addSim(c.Name, c.Start, d, parent, r.req)
	}
	var method string
	for _, a := range root.Attrs {
		if a.Key == "method" {
			method = a.Value
		}
	}
	for _, a := range root.Attrs {
		if a.Key == "estimate["+method+"]" {
			if est, err := time.ParseDuration(a.Value); err == nil {
				agg.estimate += est
				agg.actual += elapsed
			}
		}
	}
}

// bookFrames adds, at the wire depth, the statement's request and response
// frame sizes: the 4-byte length prefix plus the JSON body the wire package
// marshals.
func (r *runner) bookFrames(o *op) {
	x, ok := r.ex.(*wireExec)
	if !ok || x.last == nil {
		return
	}
	req, err1 := json.Marshal(wire.Request{SQL: o.sql})
	resp, err2 := json.Marshal(wire.Response{Columns: x.last.Columns, Rows: x.last.Rows,
		Affected: x.last.Affected, Text: x.last.Text, ElapsedUS: x.last.Elapsed.Microseconds()})
	if err1 != nil || err2 != nil {
		return
	}
	r.res.prefix.reqBytes += int64(4 + len(req))
	r.res.prefix.respBytes += int64(4 + len(resp))
}

// diskBytes is every byte allocated on the simulated disk: heap, indexes,
// SSTables, WAL and catalog.
func diskBytes(db *bulkdel.DB) int64 {
	var n int64
	for _, d := range db.Layout() {
		n += d.Bytes
	}
	return n
}

// runPhase sets a database up, measures the counted prefix and then whole
// rounds until po.seconds have passed, and checks the final state.
func runPhase(cfg *config, po phaseOpts) (*phaseResult, error) {
	res := &phaseResult{}
	t0 := time.Now()
	r, err := setUp(cfg, po, res)
	if err != nil {
		return nil, err
	}
	res.setupS = time.Since(t0).Seconds()
	defer func() {
		if r != nil {
			_ = r.tearDown() // error path only; the success path checks it below
		}
	}()

	r.measuring, r.inPrefix, r.sampling = true, true, po.seconds == 0
	p := &res.prefix
	p.from = r.e.capture()
	p.manifestAtStart = r.e.tbl.LSMManifest()
	for ; res.rounds < cfg.w.minRounds; res.rounds++ {
		if err := r.runRound(r.gen.round()); err != nil {
			return nil, err
		}
	}
	r.drainPurge()
	p.to = r.e.capture()
	p.manifest = r.e.tbl.LSMManifest()
	p.diskBytes = diskBytes(r.e.db)
	p.live = r.gen.live()
	r.inPrefix, r.sampling = false, true
	for start := time.Now(); time.Since(start).Seconds() < po.seconds; res.rounds++ {
		if err := r.runRound(r.gen.round()); err != nil {
			return nil, err
		}
	}
	r.drainPurge()
	r.measuring = false
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.memSysMB = float64(ms.Sys) / (1 << 20)
	res.indexHeight = r.e.tbl.IndexHeight("ia")

	if po.probes {
		r.runProbes()
	}
	if err := checkTable(cfg, r.e.db, r.gen, res, "end of run"); err != nil {
		return nil, err
	}
	// Connections close before any crash: a crashed DB fails every call.
	e, gen := r.e, r.gen
	err = r.tearDown()
	r = nil
	if err != nil {
		return nil, err
	}
	if po.crash {
		if err := crashChecks(cfg, e, gen, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkTable compares the table with the model as a whole: COUNT(*) and the
// engine's own consistency check. A disagreement is a failed statement; a
// table that is not there at all is an error.
func checkTable(cfg *config, db *bulkdel.DB, gen generator, res *phaseResult, when string) error {
	name := cfg.w.stmts().table
	tbl := db.Table(name)
	if tbl == nil {
		return fmt.Errorf("benchmark: %s: table %s is gone at %s", cfg.w.name, name, when)
	}
	res.attempted += 2
	if got, want := tbl.Count(), gen.live(); got != want {
		res.failed++
		fmt.Fprintf(stderr, "benchmark: %s: at %s COUNT(*) = %d, model has %d\n", cfg.w.name, when, got, want)
	}
	if err := tbl.Check(); err != nil {
		res.failed++
		fmt.Fprintf(stderr, "benchmark: %s: at %s Check: %v\n", cfg.w.name, when, err)
	}
	return nil
}

// check runs one statement outside the rounds, counts it, and reports
// whether the engine's answer agrees with the model; rows is the answer.
func (res *phaseResult) check(x executor, o *op) (rows [][]int64, ok bool) {
	rows, affected, err := x.exec(o)
	res.attempted++
	if ok = err == nil && verify(o, rows, affected); !ok {
		res.failed++
	}
	return rows, ok
}

// spotCheck reads n keys the model holds and n it does not, at the root API.
func spotCheck(cfg *config, tbl *bulkdel.Table, gen generator, res *phaseResult, n int) {
	present, absent := gen.probe(n)
	x := apiExec{tbl: tbl}
	for i := range present {
		for _, o := range []op{{kind: opPoint, a: present[i], want: 1}, {kind: opPoint, a: absent[i], want: 0}} {
			if rows, ok := res.check(x, &o); !ok {
				fmt.Fprintf(stderr, "benchmark: %s: after recovery key %d: want %d row(s), got %d\n",
					cfg.w.name, o.a, o.want, len(rows))
			}
		}
	}
}

// crashChecks is the durability half of the correctness check. bulk_heap
// first crashes one more delete half-way and times the roll-forward; every
// workload then flushes, loses power, recovers, and must still match the
// model.
func crashChecks(cfg *config, e *env, gen generator, res *phaseResult) error {
	db := e.db
	if cfg.w.entry == depthAPI {
		var err error
		if db, err = crashMidDelete(cfg, e, gen, res); err != nil {
			return err
		}
	}
	if err := db.Flush(); err != nil {
		return fmt.Errorf("benchmark: %s: flush: %w", cfg.w.name, err)
	}
	disk := db.SimulateCrash()
	t0 := time.Now()
	rdb, _, err := bulkdel.Recover(disk, e.opts)
	res.recoverMS = float64(time.Since(t0)) / float64(time.Millisecond)
	if err != nil {
		return fmt.Errorf("benchmark: %s: recover: %w", cfg.w.name, err)
	}
	if err := checkTable(cfg, rdb, gen, res, "after recovery"); err != nil {
		return err
	}
	spotCheck(cfg, rdb.Table(cfg.w.stmts().table), gen, res, 100)
	return nil
}

// crashMidDelete runs one more round on the bulk_heap database: its delete
// is cut off by a power failure half-way through its I/Os (as many as the
// previous delete needed), recovery rolls it forward (paper §3.2), and the
// round's probes and refill then run on the recovered database — so the
// probes themselves check that every victim is gone and every survivor
// still there.
func crashMidDelete(cfg *config, e *env, gen generator, res *phaseResult) (*bulkdel.DB, error) {
	db := e.db
	if err := db.Flush(); err != nil {
		return nil, fmt.Errorf("benchmark: %s: flush: %w", cfg.w.name, err)
	}
	ops := gen.round()
	del := &ops[0]
	// Half the I/Os of the previous delete lands in the middle of the passes.
	half := res.lastDeleteIO / 2
	if half == 0 {
		half = 1
	}
	db.Disk().SetFaultPlan(sim.NewFaultPlan().CrashAtIO(half))
	_, err := e.tbl.BulkDelete(0, del.victims, bulkdel.BulkOptions{})
	res.attempted++
	if !sim.IsCrash(err) {
		res.failed++
		fmt.Fprintf(stderr, "benchmark: %s: delete meant to crash at I/O %d returned %v\n", cfg.w.name, half, err)
	}
	disk := db.SimulateCrash()
	disk.SetFaultPlan(nil)
	c0 := disk.Clock()
	t0 := time.Now()
	rdb, rep, err := bulkdel.Recover(disk, e.opts)
	res.rollMS = float64(time.Since(t0)) / float64(time.Millisecond)
	if err != nil {
		return nil, fmt.Errorf("benchmark: %s: recover after mid-delete crash: %w", cfg.w.name, err)
	}
	res.rollSimS = (disk.Clock() - c0).Seconds()
	if !rep.BulkInProgress {
		res.failed++
		fmt.Fprintf(stderr, "benchmark: %s: recovery found no interrupted delete to roll forward\n", cfg.w.name)
	}
	x := apiExec{tbl: rdb.Table(heapStmts.table)}
	for i := 1; i < len(ops); i++ {
		res.check(x, &ops[i])
	}
	return rdb, nil
}

// sortedCopy returns xs sorted ascending.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// steadyChunks is how many time-ordered chunks a latency series is cut into.
const steadyChunks = 10

// steadyQuantile is the median, over time-ordered chunks of the series, of
// each chunk's q-quantile. A burst of interference from the sandbox's
// neighbours inflates the tail of the chunks it hits, not the median of all.
func steadyQuantile(xs []float64, q float64) float64 {
	chunks := steadyChunks
	if most := len(xs) / 20; most < chunks {
		chunks = most
	}
	if chunks < 2 {
		return quantile(sortedCopy(xs), q)
	}
	per := make([]float64, chunks)
	for c := range per {
		per[c] = quantile(sortedCopy(xs[c*len(xs)/chunks:(c+1)*len(xs)/chunks]), q)
	}
	return median(per)
}

// perRound cuts kind k's series at the round boundaries.
func (res *phaseResult) perRound(k opKind) [][]float64 {
	out := make([][]float64, len(res.roundEnd[k]))
	from := 0
	for i, to := range res.roundEnd[k] {
		out[i] = res.lat[k][from:to]
		from = to
	}
	return out
}

// fgThroughput is fg_ops_per_s: per round, foreground statements over the
// time the connection spent inside them (a closed loop with no think time);
// the median over rounds.
func fgThroughput(res *phaseResult) float64 {
	n := make([]float64, len(res.roundEnd[opPoint]))
	us := make([]float64, len(n))
	for _, k := range fgKinds {
		for i, xs := range res.perRound(k) {
			n[i] += float64(len(xs))
			for _, v := range xs {
				us[i] += v
			}
		}
	}
	per := make([]float64, len(n))
	for i := range per {
		per[i] = ratio(n[i], us[i]/1e6)
	}
	return median(per)
}

// endToEndMetrics derives the nine end-to-end numbers from one untraced
// pass: wall-clock ones from the timed window, the rest from the prefix.
func endToEndMetrics(cfg *config, res *phaseResult) map[string]float64 {
	m := make(map[string]float64, len(endToEnd))
	m["setup_s"] = res.setupS
	m["fg_ops_per_s"] = fgThroughput(res)
	m["point_p50_us"] = steadyQuantile(res.lat[opPoint], 0.50)
	var means []float64
	for _, xs := range res.perRound(opInsert) {
		means = append(means, mean(xs))
	}
	m["insert_mean_us"] = median(means)
	m["del_p50_ms"] = median(res.lat[opDelete]) / 1e3

	p := &res.prefix
	m["del_sim_s"] = mean(p.delSim)
	m["sim_ms_per_op"] = ratio(float64(p.to.snap.Clock-p.from.snap.Clock)/float64(time.Millisecond), float64(p.ops))
	m["space_amp"] = ratio(float64(p.diskBytes), float64(p.live*int64(cfg.w.recSize)))
	m["mem_sys_mb"] = res.memSysMB
	return m
}
