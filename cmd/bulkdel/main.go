// Command bulkdel is a small interactive shell around the bulkdel engine:
// create tables and indexes, load synthetic rows, run bulk deletes with any
// of the paper's plans (or the traditional and drop-&-create baselines),
// explain plans, inspect the simulated clock, and exercise crash recovery.
//
// Usage:
//
//	bulkdel                             # interactive (reads commands from stdin)
//	bulkdel -f demo.bd                  # run a script
//	bulkdel -f demo.bd -explain-analyze # annotate every bulk delete with actuals
//	bulkdel -f demo.bd -metrics-json    # emit every bulk delete's metrics as JSON
//	bulkdel -f demo.bd -faults crash@40 # crash at the first delete's 40th page I/O
//	bulkdel -f demo.bd -devices 4 -parallel 4
//	                                    # 4-spindle disk array, indexes and heap
//	                                    # partitions placed by the device policy,
//	                                    # independent ⋈̸ passes overlap
//	bulkdel -f demo.bd -devices 4 -layout
//	                                    # afterwards, print the per-device file
//	                                    # layout (also: the `layout` command)
//
// Commands (type `help` in the shell):
//
//	create table <name> <fields> <recsize>
//	create index <table> <ixname> <field> [unique] [clustered] [keylen <n>]
//	load <table> <rows>
//	insert <table> <v0> [v1 ...]
//	delete <table> <field> <values|lo..hi> [method sort|hash|partition|auto]
//	delete <table> <field> <values|lo..hi> traditional [sorted]
//	delete <table> <field> <values|lo..hi> dropcreate
//	lookup <table> <field> <value>
//	count <table> | check <table> | explain <table> <field> [method]
//	estimate <table> <field> <victims>
//	clock | stats | metrics | layout | inspect | flush | crash | recover | help | quit
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"bulkdel"
	"bulkdel/internal/sim"
)

type shell struct {
	db             *bulkdel.DB
	disk           *sim.Disk
	out            *bufio.Writer
	explainAnalyze bool
	metricsJSON    bool
	progress       bool           // live Inspect view while a bulk delete runs
	parallel       int            // worker cap for every bulk delete
	timeout        time.Duration  // statement deadline for every bulk delete
	faultPlan      *sim.FaultPlan // armed for the next delete statement
}

// watchProgress prints the live engine view (in-flight statements with
// phase and progress counters, the lock graph, the WAL queue) to stderr
// every 100ms until the returned stop function is called. A no-op unless
// -progress was given.
func (s *shell) watchProgress() (stop func()) {
	if !s.progress {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				fmt.Fprint(os.Stderr, "---\n"+s.db.Inspect().String())
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

func main() {
	script := flag.String("f", "", "script file (default: interactive stdin)")
	explainAnalyze := flag.Bool("explain-analyze", false,
		"after every bulk delete, print the plan tree annotated with measured actuals")
	metricsJSON := flag.Bool("metrics-json", false,
		"after every bulk delete, print its metrics (estimates, per-structure I/O, phase trace) as JSON")
	faults := flag.String("faults", "",
		"fault spec armed for the first delete statement: crash@K, crash@K:tear=N, read@N, write@N\n(ordinals count the statement's page I/Os; after the crash, run `crash` then `recover`)")
	devices := flag.Int("devices", 0,
		"simulated disk array width: indexes are placed round-robin on devices 1..N\n(device 0 holds the catalog, WAL, heap, and scratch files; 0 = single spindle)")
	parallel := flag.Int("parallel", 0,
		"worker cap for every bulk delete's remaining-index passes (0/1 = serial; needs -devices)")
	timeout := flag.Duration("timeout", 0,
		"real-time deadline for every bulk delete statement (e.g. 50ms); an expired\nstatement aborts to a consistent state via the online recovery replay (0 = none)")
	layout := flag.Bool("layout", false,
		"print the per-device file layout (device, files, pages, busy-time share) when the session ends")
	progress := flag.Bool("progress", false,
		"while a bulk delete runs, print the live engine view (phase, pages, lock graph) to stderr\n(also: the `inspect` command for a one-shot snapshot)")
	flag.Parse()

	if *parallel > 1 && *devices <= 1 {
		fmt.Fprintf(os.Stderr,
			"bulkdel: warning: -parallel %d has no effect on a single spindle; "+
				"every statement will run serial (workers=1). Add -devices N to spread the indexes.\n",
			*parallel)
	}

	in := os.Stdin
	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bulkdel:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	db, err := bulkdel.Open(bulkdel.Options{Devices: *devices})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bulkdel:", err)
		os.Exit(1)
	}
	sh := &shell{db: db, out: bufio.NewWriter(os.Stdout),
		explainAnalyze: *explainAnalyze, metricsJSON: *metricsJSON,
		progress: *progress, parallel: *parallel, timeout: *timeout}
	if *faults != "" {
		plan, err := sim.ParseFaultSpec(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bulkdel:", err)
			os.Exit(1)
		}
		sh.faultPlan = plan
	}
	defer sh.out.Flush()
	if *layout {
		// Registered after the Flush defer so it runs first (LIFO):
		// print the final layout, then the earlier defer flushes it.
		defer sh.printLayout()
	}

	interactive := *script == "" && isTTY()
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		if interactive {
			fmt.Fprint(sh.out, "bulkdel> ")
			sh.out.Flush()
		}
		if !scanner.Scan() {
			return
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		if err := sh.exec(line); err != nil {
			fmt.Fprintln(sh.out, "error:", err)
		}
		sh.out.Flush()
	}
}

func isTTY() bool {
	fi, err := os.Stdin.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

func (s *shell) exec(line string) error {
	f := strings.Fields(line)
	switch f[0] {
	case "help":
		s.help()
		return nil
	case "create":
		return s.create(f[1:])
	case "load":
		return s.load(f[1:])
	case "insert":
		return s.insert(f[1:])
	case "delete":
		return s.delete(f[1:])
	case "update":
		return s.update(f[1:])
	case "lookup":
		return s.lookup(f[1:])
	case "count":
		tbl, err := s.table(f[1:])
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "%d\n", tbl.Count())
		return nil
	case "check":
		tbl, err := s.table(f[1:])
		if err != nil {
			return err
		}
		if err := tbl.Check(); err != nil {
			return err
		}
		fmt.Fprintln(s.out, "ok: heap and all indexes consistent")
		return nil
	case "explain":
		return s.explain(f[1:])
	case "estimate":
		return s.estimate(f[1:])
	case "clock":
		fmt.Fprintf(s.out, "simulated time: %v\n", s.db.Clock())
		return nil
	case "stats":
		st := s.db.DiskStats()
		fmt.Fprintf(s.out, "reads=%d writes=%d random=%d near=%d sequential=%d chained-runs=%d\n",
			st.Reads, st.Writes, st.RandomOps, st.NearOps, st.SeqOps, st.ChainedRuns)
		return nil
	case "metrics":
		snap := s.db.Metrics()
		ps := s.db.PoolStats()
		fmt.Fprintf(s.out, "clock=%v reads=%d writes=%d seeks=%d pool-hits=%d pool-misses=%d wal=%d bytes\n",
			snap.Clock, snap.Disk.Reads, snap.Disk.Writes, snap.Disk.RandomOps,
			ps.Hits, ps.Misses, snap.WALBytes)
		j, err := s.db.Observer().Registry().JSON()
		if err != nil {
			return err
		}
		s.out.Write(j)
		fmt.Fprintln(s.out)
		s.printLayout()
		return nil
	case "layout":
		s.printLayout()
		return nil
	case "inspect":
		fmt.Fprint(s.out, s.db.Inspect().String())
		return nil
	case "flush":
		return s.db.Flush()
	case "crash":
		s.disk = s.db.SimulateCrash()
		// The reboot clears any tripped fault plan: the replacement
		// machine's I/O works.
		s.disk.SetFaultPlan(nil)
		fmt.Fprintln(s.out, "crashed: volatile state discarded (use `recover`)")
		return nil
	case "recover":
		if s.disk == nil {
			return fmt.Errorf("nothing to recover from (use `crash` first)")
		}
		db, rep, err := bulkdel.Recover(s.disk, bulkdel.Options{})
		if err != nil {
			return err
		}
		s.db, s.disk = db, nil
		if rep.BulkInProgress {
			fmt.Fprintf(s.out, "recovered: rolled forward a bulk delete on %s (%d records, %d structures were already durable)\n",
				rep.Table, rep.RolledForward, rep.StructuresSkipped)
		} else {
			fmt.Fprintln(s.out, "recovered: no bulk delete was in progress")
		}
		return nil
	default:
		return fmt.Errorf("unknown command %q (try `help`)", f[0])
	}
}

func (s *shell) help() {
	fmt.Fprint(s.out, `commands:
  create table <name> <fields> <recsize>
  create index <table> <ixname> <field> [unique] [clustered] [keylen <n>]
  load <table> <rows>                      synthetic rows: field j of row i = (j+1)*i
  insert <table> <v0> [v1 ...]
  delete <table> <field> <values|lo..hi> [method sort|hash|partition|auto]
  delete <table> <field> <values|lo..hi> traditional [sorted]
  delete <table> <field> <values|lo..hi> dropcreate
  update <table> <predfield> <values|lo..hi> <setfield> <delta>
  lookup <table> <field> <value>
  count <table> | check <table>
  explain <table> <field> [sort|hash|partition]
  estimate <table> <field> <victims>
  clock | stats | metrics | layout | inspect | flush | crash | recover | quit
`)
}

// printLayout renders the per-device file layout table: which files,
// pages, and bytes each device holds, what share of the array's
// accumulated busy time it accounts for, and each file's byte size.
func (s *shell) printLayout() {
	rows := s.db.Layout()
	var total time.Duration
	for _, r := range rows {
		total += r.Busy
	}
	fmt.Fprintf(s.out, "%-8s %6s %8s %10s %14s %6s\n", "device", "files", "pages", "bytes", "busy", "share")
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = 100 * float64(r.Busy) / float64(total)
		}
		name := fmt.Sprintf("%d", r.Device)
		if r.Device == 0 {
			name = "0 (sys)"
		}
		fmt.Fprintf(s.out, "%-8s %6d %8d %10s %14v %5.1f%%\n",
			name, r.Files, r.Pages, fmtBytes(r.Bytes), r.Busy, share)
		for _, f := range r.ByFile {
			fmt.Fprintf(s.out, "  file %-4d %10d %10s\n", f.File, f.Pages, fmtBytes(f.Bytes))
		}
	}
}

// fmtBytes renders a byte count with a binary unit suffix (pages are 4 KiB,
// so sub-KiB sizes never occur).
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

func (s *shell) table(args []string) (*bulkdel.Table, error) {
	if len(args) < 1 {
		return nil, fmt.Errorf("table name required")
	}
	tbl := s.db.Table(args[0])
	if tbl == nil {
		return nil, fmt.Errorf("no table %q", args[0])
	}
	return tbl, nil
}

func (s *shell) create(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("create table|index ...")
	}
	switch args[0] {
	case "table":
		if len(args) != 4 {
			return fmt.Errorf("create table <name> <fields> <recsize>")
		}
		fields, err1 := strconv.Atoi(args[2])
		size, err2 := strconv.Atoi(args[3])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("fields and recsize must be integers")
		}
		if _, err := s.db.CreateTable(args[1], fields, size); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "table %s created\n", args[1])
		return nil
	case "index":
		if len(args) < 4 {
			return fmt.Errorf("create index <table> <ixname> <field> [unique] [clustered] [keylen <n>]")
		}
		tbl, err := s.table(args[1:])
		if err != nil {
			return err
		}
		field, err := strconv.Atoi(args[3])
		if err != nil {
			return fmt.Errorf("field must be an integer")
		}
		opts := bulkdel.IndexOptions{Name: args[2], Field: field}
		rest := args[4:]
		for i := 0; i < len(rest); i++ {
			switch rest[i] {
			case "unique":
				opts.Unique = true
			case "clustered":
				opts.Clustered = true
			case "keylen":
				if i+1 >= len(rest) {
					return fmt.Errorf("keylen needs a value")
				}
				n, err := strconv.Atoi(rest[i+1])
				if err != nil {
					return fmt.Errorf("keylen must be an integer")
				}
				opts.KeyLen = n
				i++
			default:
				return fmt.Errorf("unknown index option %q", rest[i])
			}
		}
		if err := tbl.CreateIndex(opts); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "index %s created (height %d)\n", opts.Name, tbl.IndexHeight(opts.Name))
		return nil
	default:
		return fmt.Errorf("create table|index ...")
	}
}

func (s *shell) load(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("load <table> <rows>")
	}
	tbl, err := s.table(args)
	if err != nil {
		return err
	}
	n, err := strconv.Atoi(args[1])
	if err != nil {
		return fmt.Errorf("rows must be an integer")
	}
	fields := tbl.NumFields()
	vals := make([]int64, fields)
	base := tbl.Count()
	for i := 0; i < n; i++ {
		for j := range vals {
			vals[j] = int64(j+1) * (base + int64(i))
		}
		if _, err := tbl.Insert(vals...); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	fmt.Fprintf(s.out, "loaded %d rows (count now %d)\n", n, tbl.Count())
	return nil
}

func (s *shell) insert(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("insert <table> <v0> [v1 ...]")
	}
	tbl, err := s.table(args)
	if err != nil {
		return err
	}
	vals := make([]int64, 0, len(args)-1)
	for _, a := range args[1:] {
		v, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			return fmt.Errorf("value %q: %w", a, err)
		}
		vals = append(vals, v)
	}
	rid, err := tbl.Insert(vals...)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "inserted at rid %s\n", rid)
	return nil
}

// parseValues accepts "1,2,3" or "lo..hi" (inclusive).
func parseValues(s string) ([]int64, error) {
	if lo, hi, ok := strings.Cut(s, ".."); ok {
		a, err1 := strconv.ParseInt(lo, 10, 64)
		b, err2 := strconv.ParseInt(hi, 10, 64)
		if err1 != nil || err2 != nil || b < a {
			return nil, fmt.Errorf("bad range %q", s)
		}
		out := make([]int64, 0, b-a+1)
		for v := a; v <= b; v++ {
			out = append(out, v)
		}
		return out, nil
	}
	var out []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func (s *shell) delete(args []string) error {
	if len(args) < 3 {
		return fmt.Errorf("delete <table> <field> <values|lo..hi> [method m|traditional [sorted]|dropcreate]")
	}
	if s.faultPlan != nil {
		// -faults arms the plan for the first delete; ordinals in the
		// spec count this statement's page I/Os from here.
		s.db.Disk().SetFaultPlan(s.faultPlan)
		s.faultPlan = nil
	}
	tbl, err := s.table(args)
	if err != nil {
		return err
	}
	field, err := strconv.Atoi(args[1])
	if err != nil {
		return fmt.Errorf("field must be an integer")
	}
	values, err := parseValues(args[2])
	if err != nil {
		return err
	}
	mode := ""
	if len(args) > 3 {
		mode = args[3]
	}
	switch mode {
	case "traditional":
		sorted := len(args) > 4 && args[4] == "sorted"
		n, err := tbl.DeleteTraditional(field, values, sorted)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "traditional delete removed %d records in %v (simulated total)\n", n, s.db.Clock())
		return nil
	case "dropcreate":
		n, err := tbl.DeleteDropCreate(field, values)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "drop&create delete removed %d records\n", n)
		return nil
	case "", "method":
		name := ""
		if mode == "method" {
			if len(args) < 5 {
				return fmt.Errorf("delete ... method <sort|hash|partition|auto>")
			}
			name = args[4]
		}
		m, err := bulkdel.ParseMethod(name)
		if err != nil {
			return err
		}
		stop := s.watchProgress()
		res, err := tbl.BulkDelete(field, values, bulkdel.BulkOptions{
			Method: m, Parallel: s.parallel, Timeout: s.timeout})
		stop()
		if err != nil {
			if errors.Is(err, bulkdel.ErrCancelled) {
				fmt.Fprintf(s.out, "bulk delete cancelled (deadline %v): aborted to a consistent state "+
					"via online roll-forward; run `check` to confirm\n", s.timeout)
				return nil
			}
			return err
		}
		if res.Workers > 1 {
			fmt.Fprintf(s.out, "bulk delete (%v) removed %d of %d victims: makespan %v with %d workers (%v serial-equivalent)\n",
				res.Method, res.Deleted, res.Victims, res.Makespan, res.Workers, res.Elapsed)
		} else {
			fmt.Fprintf(s.out, "bulk delete (%v) removed %d of %d victims in %v simulated\n",
				res.Method, res.Deleted, res.Victims, res.Elapsed)
		}
		if s.explainAnalyze {
			fmt.Fprint(s.out, res.ExplainAnalyze())
		}
		if s.metricsJSON {
			j, err := res.MetricsJSON()
			if err != nil {
				return err
			}
			s.out.Write(j)
			fmt.Fprintln(s.out)
		}
		return nil
	default:
		return fmt.Errorf("unknown delete mode %q", mode)
	}
}

// update runs a bulk update: add <delta> to <setfield> of every row whose
// <predfield> is in the victim list.
func (s *shell) update(args []string) error {
	if len(args) != 5 {
		return fmt.Errorf("update <table> <predfield> <values|lo..hi> <setfield> <delta>")
	}
	tbl, err := s.table(args)
	if err != nil {
		return err
	}
	predField, err1 := strconv.Atoi(args[1])
	setField, err2 := strconv.Atoi(args[3])
	delta, err3 := strconv.ParseInt(args[4], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return fmt.Errorf("fields and delta must be integers")
	}
	values, err := parseValues(args[2])
	if err != nil {
		return err
	}
	res, err := tbl.BulkUpdate(predField, values, setField,
		func(v int64) int64 { return v + delta }, bulkdel.BulkOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "bulk update changed %d records (%d index entries moved) in %v simulated\n",
		res.Updated, res.EntriesMoved, res.Elapsed)
	return nil
}

func (s *shell) lookup(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("lookup <table> <field> <value>")
	}
	tbl, err := s.table(args)
	if err != nil {
		return err
	}
	field, err1 := strconv.Atoi(args[1])
	v, err2 := strconv.ParseInt(args[2], 10, 64)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("field and value must be integers")
	}
	rows, err := tbl.Lookup(field, v)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(s.out, "%v\n", r)
	}
	fmt.Fprintf(s.out, "(%d rows)\n", len(rows))
	return nil
}

func (s *shell) explain(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("explain <table> <field> [method]")
	}
	tbl, err := s.table(args)
	if err != nil {
		return err
	}
	field, err := strconv.Atoi(args[1])
	if err != nil {
		return fmt.Errorf("field must be an integer")
	}
	name := ""
	if len(args) > 2 {
		name = args[2]
	}
	m, err := bulkdel.ParseMethod(name)
	if err != nil {
		return err
	}
	fmt.Fprint(s.out, tbl.Explain(field, m, 0))
	return nil
}

func (s *shell) estimate(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("estimate <table> <field> <victims>")
	}
	tbl, err := s.table(args)
	if err != nil {
		return err
	}
	field, err1 := strconv.Atoi(args[1])
	victims, err2 := strconv.Atoi(args[2])
	if err1 != nil || err2 != nil {
		return fmt.Errorf("field and victims must be integers")
	}
	for name, d := range tbl.EstimateMethods(field, victims, 0) {
		fmt.Fprintf(s.out, "%-24s %v\n", name, d)
	}
	return nil
}
