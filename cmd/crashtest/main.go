// Command crashtest sweeps a bulk delete through every possible crash
// point: it runs the statement once to count its page I/Os, then for each
// ordinal k re-runs it on a fresh database with a simulated power failure
// at exactly the kth I/O, recovers, and checks that the heap and every
// index are consistent and that the victim set was deleted atomically.
//
// Usage:
//
//	crashtest                         # sweep all ordinals, all four methods
//	crashtest -method sort            # one method
//	crashtest -at 37 -v               # reproduce a single ordinal
//	crashtest -from 10 -to 60 -stride 5
//	crashtest -tear 100 -tear-wal     # additionally tear crashing WAL writes
//	crashtest -rebalance              # crash an online device rebalancing, and a bulk delete on a 4-way partitioned heap
//	crashtest -lsm                    # crash the LSM delete + compaction sequences, an insert stream across compaction and WAL restarts, a tenant drop reclaimed at its TTL, and a heap delete beside an LSM table
//	crashtest -cancel                 # cancel (not crash) at every ordinal
//	crashtest -rebalance -cancel      # cancel the partitioned-heap bulk delete at every ordinal
//	crashtest -reader                 # crash/cancel under a concurrent MVCC snapshot reader
//	crashtest -merge [-cancel]        # a delete whose leaf walks merge underfull leaves (sort, hash, partition)
//	crashtest -metrics-json           # dump the accumulated fault counters
//
// The sweep is deterministic: the same flags visit the same I/Os and
// produce the same digest, so a failing ordinal reproduces exactly with
// `crashtest -at k`. Exit status is 1 if any ordinal fails. The scenario
// table — what each flag sweeps and which recovered states are legal — is
// DESIGN.md §7.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"bulkdel"
	"bulkdel/internal/crashtest"
	"bulkdel/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, sweeps, prints to stdout, and returns
// the exit status — 0, 1 when an ordinal failed, 2 on a usage or harness
// error (reported on stderr).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crashtest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rows := fs.Int("rows", 0, "table rows (default 48)")
	victims := fs.Int("victims", 0, "victim count (default rows/3)")
	indexes := fs.Int("indexes", 0, "indexes on the table, 1..3 (default 3)")
	method := fs.String("method", "all", "join method: sort, hash, partition, auto (the planner on its own sparse-delete scenario), or all;\nor range (the planner on a DeleteRange of a key range)")
	at := fs.Int("at", 0, "run a single ordinal instead of sweeping")
	from := fs.Int("from", 0, "first swept ordinal (default 1)")
	to := fs.Int("to", 0, "last swept ordinal (default: the statement's I/O count)")
	stride := fs.Int("stride", 1, "sweep every Nth ordinal")
	tear := fs.Int("tear", 0, "tear the crashing write, persisting only this byte prefix")
	tearWAL := fs.Bool("tear-wal", false, "restrict tearing to the WAL file")
	seed := fs.Int64("seed", 1, "victim-selection seed")
	checkpointRows := fs.Int("checkpoint-rows", 0, "deletions between WAL checkpoints (default 8)")
	memory := fs.Int("memory", 0, "sort/hash budget in bytes (default 512)")
	buffer := fs.Int("buffer", 0, "buffer-pool budget in bytes (default 24 pages)")
	devices := fs.Int("devices", 0, "simulated disk array width (data files placed by the device policy; 0 = single spindle)")
	parallel := fs.Int("parallel", 0, "worker cap for the remaining-index passes (makes the crash point nondeterministic; invariants still checked)")
	concurrent := fs.Bool("concurrent", false, "two-table scenario: crash a concurrent two-statement batch (invariants only, no digest)")
	rebalance := fs.Bool("rebalance", false, "partitioned-table scenarios: crash an online device rebalancing (rebalance:) and a sort/merge bulk delete on a hash-partitioned 4-way heap (parted:)")
	lsmMode := fs.Bool("lsm", false, "LSM scenarios: crash an LSM range delete (lsm:) and an IN-list delete (lsm-in:), each followed by flush + compaction, inserts driving a multi-table compaction and WAL restarts (lsm-grow:), a tenant drop applied in place at its TTL (lsm-drop:), and a heap bulk delete beside an LSM table living in the WAL (lsm-heap:); with -rows, the fixed-size lsm-grow and lsm-drop are left out")
	cancelMode := fs.Bool("cancel", false, "cancel scenario: cooperatively cancel at every ordinal and compare the online abort against crash+recover")
	merge := fs.Bool("merge", false, "merge scenario: a delete of 60% of the rows on wide-keyed indexes, so the leaf walks merge the underfull leaves they leave (sort, hash and partition; with -cancel, the cancel sweep)")
	reader := fs.Bool("reader", false, "attach a concurrent MVCC snapshot reader to the crash (or, with -cancel, the cancel) sweep; the pinned view must stay repeatable throughout")
	verifyDigest := fs.Bool("verify-digest", true, "re-run deterministic sweeps and require identical digests")
	verbose := fs.Bool("v", false, "print every ordinal's outcome")
	metricsJSON := fs.Bool("metrics-json", false, "print the accumulated metrics registry as JSON")
	eventsPath := fs.String("events", "", "write the statement event log (all scenarios, JSONL) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	harness := func(err error) int {
		fmt.Fprintln(stderr, "crashtest:", err)
		return 2
	}

	methods := []string{"sort", "hash", "partition", "auto"}
	if *merge {
		methods = methods[:3]
	}
	if *method != "all" {
		methods = []string{*method}
	}
	// Flag precedence picks the scenarios; the heap-delete ones run once per
	// join method, the others have no join method to vary.
	scenarios, perMethod := []string{"bulk"}, true
	switch {
	case *concurrent:
		scenarios = []string{"concurrent"}
	case *rebalance && *cancelMode:
		scenarios, perMethod = []string{"parted-cancel"}, false
	case *rebalance:
		scenarios, perMethod = []string{"rebalance", "parted"}, false
	case *merge && *cancelMode:
		scenarios = []string{"merge-cancel"}
	case *merge:
		scenarios = []string{"merge"}
	case *lsmMode:
		scenarios, perMethod = []string{"lsm", "lsm-in", "lsm-grow", "lsm-drop", "lsm-heap"}, false
		// lsm-grow and lsm-drop have a fixed size: with -rows they would
		// repeat the default run's sweep, so only the sized ones run.
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "rows" {
				scenarios = []string{"lsm", "lsm-in", "lsm-heap"}
			}
		})
	case *reader && *cancelMode:
		scenarios = []string{"reader-cancel"}
	case *reader:
		scenarios = []string{"reader"}
	case *cancelMode:
		scenarios = []string{"cancel"}
	}
	if !perMethod {
		methods = methods[:1]
	}

	observer := obs.NewObserver()
	failed := 0
	// -at K past one sweep's last I/O skips that sweep — the flag sets that
	// run several (-lsm, -method all) have statements of different lengths
	// — and is an error only when no sweep reached the ordinal.
	var pastEnd error
	reached := false
	for _, base := range scenarios {
		for _, mname := range methods {
			m := bulkdel.Auto
			if mname != "range" {
				var err error
				if m, err = bulkdel.ParseMethod(mname); err != nil {
					return harness(err)
				}
			}
			// auto and range sweep twins of the heap delete: sparse, since
			// the bulk scenario's single-leaf trees leave a walk nothing to
			// seek and no leaf to free, and range, a key range the backend
			// resolves. The sweeps with no join method to vary keep their
			// own scenario.
			name := base
			if m == bulkdel.Auto && perMethod && base != "concurrent" && !*merge {
				name = "sparse"
				if mname == "range" {
					name = "range"
				}
				if base != "bulk" {
					name += "-" + base
				}
			}
			cfg := crashtest.Config{
				Rows: *rows, Victims: *victims, Indexes: *indexes, Method: m,
				CheckpointRows: *checkpointRows, Memory: *memory, BufferBytes: *buffer,
				Seed: *seed, From: *from, To: *to, Stride: *stride,
				TearBytes: *tear, TearWALOnly: *tearWAL,
				Devices: *devices, Parallel: *parallel,
				Observer: observer,
			}
			label := name + ":"
			if perMethod {
				label = fmt.Sprintf("%-9s", mname+":")
			}
			n, err := runScenario(stdout, name, kinds[base], label, cfg, *at, *verbose, *verifyDigest)
			if errors.Is(err, errPastEnd) {
				pastEnd = err
				continue
			}
			if err != nil {
				return harness(err)
			}
			reached = true
			failed += n
		}
	}
	if pastEnd != nil && !reached {
		return harness(pastEnd)
	}

	if *metricsJSON {
		j, err := observer.Registry().JSON()
		if err != nil {
			return harness(err)
		}
		fmt.Fprintf(stdout, "%s\n", j)
	}
	if *eventsPath != "" {
		f, err := os.Create(*eventsPath)
		if err == nil {
			err = observer.Events().WriteJSONL(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return harness(err)
		}
		fmt.Fprintf(stdout, "events: wrote %s\n", *eventsPath)
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "crashtest: %d ordinal(s) failed\n", failed)
		return 1
	}
	return 0
}

// kind is how a scenario's lines are worded.
type kind struct {
	title string // summary line, between the label and the I/O count
	fired string // the per-ordinal "did the fault take effect" column
	// digest marks the digest-comparable sweeps: the summary carries the
	// sweep digest, every ordinal its simulated clock, and a deterministic
	// configuration is swept twice. reference marks the cancel sweep, whose
	// summary carries the cancelled count and the completed-delete digest
	// every ordinal's own digest must equal.
	digest, reference bool
}

var kinds = map[string]kind{
	"bulk":          {fired: "crash", digest: true},
	"merge":         {fired: "crash", digest: true},
	"rebalance":     {fired: "crash", digest: true},
	"parted":        {fired: "crash", digest: true},
	"lsm":           {fired: "crash", digest: true},
	"lsm-in":        {fired: "crash", digest: true},
	"lsm-grow":      {fired: "crash", digest: true},
	"lsm-drop":      {fired: "crash", digest: true},
	"lsm-heap":      {fired: "crash", digest: true},
	"concurrent":    {title: "concurrent 2-table batch: ", fired: "crash"},
	"cancel":        {title: "cancel sweep: ", fired: "cancelled", reference: true},
	"parted-cancel": {title: "cancel sweep: ", fired: "cancelled", reference: true},
	"merge-cancel":  {title: "cancel sweep: ", fired: "cancelled", reference: true},
	"reader":        {title: "reader crash sweep: ", fired: "fired"},
	"reader-cancel": {title: "reader cancel sweep: ", fired: "fired"},
}

// errPastEnd: -at named an ordinal after the swept statement's last I/O.
var errPastEnd = errors.New("ordinal past the statement's last I/O")

// runScenario sweeps (or, with at > 0, reproduces one ordinal of) the named
// scenario and returns the number of failures; the error reports a harness
// failure.
func runScenario(w io.Writer, name string, k kind, label string, cfg crashtest.Config, at int, verbose, verifyDigest bool) (int, error) {
	if at > 0 {
		cfg.From, cfg.To, cfg.Stride = at, at, 1
	}
	sw, err := crashtest.Run(name, cfg)
	if err != nil {
		return 0, err
	}
	for _, r := range sw.Ordinals {
		if verbose || at > 0 || r.Err != "" {
			printOrdinal(w, label, k, r)
		}
	}
	if at > 0 {
		if sw.Ran == 0 {
			err = fmt.Errorf("-at %d: %w (the %s statement performs %d I/Os)", at, errPastEnd, name, sw.TotalIOs)
		}
		return sw.Failed, err
	}
	line := fmt.Sprintf("%s %s%d I/Os, swept %d ordinals, ", label, k.title, sw.TotalIOs, sw.Ran)
	if k.reference {
		line += fmt.Sprintf("%d cancelled, ", sw.Fired)
	}
	line += fmt.Sprintf("%d failed", sw.Failed)
	switch {
	case k.digest:
		line += ", digest " + sw.Digest()
	case k.reference:
		line += ", reference " + sw.Reference
	}
	fmt.Fprintln(w, line)
	// A deterministic configuration (no statement-level goroutines racing
	// for the disk) must reproduce its digest exactly on a second sweep.
	if verifyDigest && k.digest && sw.Deterministic {
		sw2, err := crashtest.Run(name, cfg)
		if err != nil {
			return sw.Failed, err
		}
		if sw2.Digest() != sw.Digest() {
			return sw.Failed, fmt.Errorf("%s sweep is nondeterministic: digest %s then %s",
				strings.TrimRight(label, ": "), sw.Digest(), sw2.Digest())
		}
	}
	return sw.Failed, nil
}

func printOrdinal(w io.Writer, label string, k kind, r crashtest.Result) {
	line := fmt.Sprintf("%s io=%-4d %s=%-5v", label, r.Ordinal, k.fired, r.Fired)
	for _, f := range r.Fields {
		if _, isBool := f.Value.(bool); isBool {
			line += fmt.Sprintf(" %s=%-5v", f.Name, f.Value)
		} else {
			line += fmt.Sprintf(" %s=%-3d", f.Name, f.Value)
		}
	}
	line += fmt.Sprintf(" survivors=%-3d", r.Survivors)
	switch {
	case k.digest:
		line += fmt.Sprintf(" clock=%dus", r.ClockUS)
	case k.reference:
		line += " digest=" + r.Digest
	}
	status := "ok"
	if r.Err != "" {
		status = "FAIL " + r.Err
	}
	fmt.Fprintln(w, line, status)
}
