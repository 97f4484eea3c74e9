package crashtest

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"bulkdel"
	"bulkdel/internal/obs"
	"bulkdel/internal/sim"
)

// sweepAll runs a full-stride sweep for one method and fails the test on
// any ordinal whose invariants break.
func sweepAll(t *testing.T, method bulkdel.Method) *SweepResult {
	t.Helper()
	sw := mustRun(t, "bulk", Config{Method: method})
	if sw.Ran != sw.TotalIOs {
		t.Fatalf("swept %d ordinals, statement performs %d I/Os", sw.Ran, sw.TotalIOs)
	}
	return sw
}

// mustRun sweeps a scenario and fails the test on a harness error or on any
// ordinal whose invariants break.
func mustRun(t *testing.T, scenario string, cfg Config) *SweepResult {
	t.Helper()
	sw, err := Run(scenario, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Ran == 0 {
		t.Fatalf("%s sweep ran no ordinals", scenario)
	}
	for _, f := range sw.Failures() {
		t.Errorf("%s ordinal %d: %s", scenario, f.Ordinal, f.Err)
	}
	return sw
}

func TestSweepEveryOrdinalSortMerge(t *testing.T) {
	sw := sweepAll(t, bulkdel.SortMerge)
	// Every swept ordinal is within the statement, so each must crash.
	for _, r := range sw.Ordinals {
		if !r.Fired {
			t.Fatalf("ordinal %d: crash did not fire", r.Ordinal)
		}
	}
	// The sweep must cross both regimes: early crashes that leave the
	// table intact and late crashes that recovery rolls forward.
	var intact, forward bool
	for _, r := range sw.Ordinals {
		if r.Field("bulk-in-wal") == true {
			forward = true
		} else {
			intact = true
		}
	}
	if !intact || !forward {
		t.Fatalf("sweep did not cross the bulk-start durability boundary (intact=%v forward=%v)", intact, forward)
	}
}

func TestSweepEveryOrdinalHash(t *testing.T) {
	sweepAll(t, bulkdel.Hash)
}

func TestSweepSingleIndexTable(t *testing.T) {
	// Only the access index exists: the statement projects no key lists and
	// has no secondary-index passes, a different protocol shape worth its
	// own exhaustive sweep.
	mustRun(t, "bulk", Config{Method: bulkdel.SortMerge, Indexes: 1})
}

func TestSweepEveryOrdinalHashPartition(t *testing.T) {
	sweepAll(t, bulkdel.HashPartition)
}

// TestSweepDeterministic requires two sweeps of the same config to produce
// identical digests in every scenario that claims determinism, so any
// failing ordinal reproduces exactly.
func TestSweepDeterministic(t *testing.T) {
	for name, sc := range scenarios {
		cfg := Config{Method: bulkdel.SortMerge, Stride: 5}
		if !sc.deterministic(cfg.withDefaults()) {
			continue
		}
		t.Run(name, func(t *testing.T) {
			a, b := mustRun(t, name, cfg), mustRun(t, name, cfg)
			if !a.Deterministic {
				t.Fatal("sweep result does not report the scenario as deterministic")
			}
			if a.Digest() != b.Digest() {
				t.Fatalf("same config, different sweeps:\n  %s\n  %s", a.Digest(), b.Digest())
			}
		})
	}
	// Different seed → different victim set → different digest.
	a := mustRun(t, "bulk", Config{Method: bulkdel.SortMerge, Stride: 3})
	c := mustRun(t, "bulk", Config{Method: bulkdel.SortMerge, Stride: 3, Seed: 99})
	if c.Digest() == a.Digest() {
		t.Fatal("different seeds produced identical digests")
	}
}

func TestSweepParallelPlan(t *testing.T) {
	// A parallel plan on a 3-device array: the secondary-index passes run
	// on concurrent workers, so the kth I/O is no longer a deterministic
	// point in the statement and digests must not be compared — but every
	// ordinal's recovery invariants (consistency, victim atomicity,
	// non-victim survival) must hold regardless of how the goroutines
	// interleaved around the crash.
	sw := mustRun(t, "bulk", Config{Method: bulkdel.SortMerge, Devices: 3, Parallel: 3})
	if sw.Deterministic {
		t.Fatal("a parallel plan on a multi-device array reports a comparable digest")
	}
}

func TestSweepTornWALTail(t *testing.T) {
	// Tear every crashing WAL write mid-page: the log's torn tail must
	// never resurrect records or break recovery, at any ordinal.
	mustRun(t, "bulk", Config{Method: bulkdel.SortMerge, TearBytes: 13, TearWALOnly: true})
}

func TestTornDataPagesLeaveDatabaseReopenable(t *testing.T) {
	// The §3.2 protocol assumes data-page writes are atomic (torn-page
	// *detection* would need page checksums; the WAL, which owns the
	// torn-tail problem, carries per-record CRCs and is swept
	// exhaustively above). A torn data page can therefore lose entries
	// undetectably — but recovery must still terminate and hand back an
	// openable database at every ordinal, never panic or wedge.
	sw, err := Run("bulk", Config{Method: bulkdel.SortMerge, TearBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sw.Ordinals {
		if strings.HasPrefix(r.Err, "recovery failed") ||
			strings.HasPrefix(r.Err, "unexpected non-crash") {
			t.Errorf("ordinal %d (torn write): %s", r.Ordinal, r.Err)
		}
	}
}

// TestRangeAndStrideBoundSweep: From/To/Stride select the same ordinals in
// every scenario and mode — the loop is the driver's, not the scenario's.
func TestRangeAndStrideBoundSweep(t *testing.T) {
	for _, name := range Scenarios() {
		t.Run(name, func(t *testing.T) {
			sw := mustRun(t, name, Config{From: 2, To: 6, Stride: 2})
			var got []int
			for _, r := range sw.Ordinals {
				got = append(got, r.Ordinal)
			}
			if want := []int{2, 4, 6}; !slices.Equal(got, want) {
				t.Fatalf("swept %v, want %v", got, want)
			}
			if sw.Ran != 3 {
				t.Fatalf("Ran = %d, want 3", sw.Ran)
			}
		})
	}
	// To past the statement's end clamps to its last I/O.
	sw := mustRun(t, "lsm", Config{From: 4, To: 1000})
	if last := sw.Ordinals[len(sw.Ordinals)-1].Ordinal; last != sw.TotalIOs {
		t.Fatalf("swept up to %d, statement performs %d I/Os", last, sw.TotalIOs)
	}
}

// TestInjectedErrorNamesPhaseAndStructure checks the non-crash error
// path: a one-shot injected write error must surface from BulkDelete
// wrapped with the executing phase and structure, preserve the sentinel
// for errors.Is, and leave the database recoverable.
func TestInjectedErrorNamesPhaseAndStructure(t *testing.T) {
	cfg := Config{}.withDefaults()
	st, err := bulk.build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db := st.db
	db.Disk().SetFaultPlan(sim.NewFaultPlan().FailWriteAt(3, nil))
	derr := bulk.run(context.Background(), cfg, st, &Result{})
	if derr == nil {
		t.Fatal("BulkDelete succeeded despite the injected write error")
	}
	if !errors.Is(derr, sim.ErrInjected) {
		t.Fatalf("error lost the injection sentinel: %v", derr)
	}
	var fe *sim.FaultError
	if !errors.As(derr, &fe) || fe.Op != "write" {
		t.Fatalf("error lost the fault detail: %v", derr)
	}
	if !strings.Contains(derr.Error(), "core: phase ") {
		t.Fatalf("error does not name the executing phase: %v", derr)
	}
	if !strings.Contains(derr.Error(), "bulkdel: bulk delete on R") {
		t.Fatalf("error does not name the table: %v", derr)
	}

	// The database must still be recoverable after the failed statement.
	disk := db.SimulateCrash()
	disk.SetFaultPlan(nil)
	rdb, rep, rerr := bulkdel.Recover(disk, bulkdel.Options{BufferBytes: cfg.BufferBytes})
	if rerr != nil {
		t.Fatalf("recovery after injected error: %v", rerr)
	}
	var res Result
	if bulk.verify(cfg, st, rdb, rep, &res); res.Err != "" {
		t.Fatalf("recovered state: %s", res.Err)
	}
}

// TestInjectedReadErrorSurfaces covers the read class.
func TestInjectedReadErrorSurfaces(t *testing.T) {
	cfg := Config{}.withDefaults()
	st, err := bulk.build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.db.Disk().SetFaultPlan(sim.NewFaultPlan().FailReadAt(2, nil))
	derr := bulk.run(context.Background(), cfg, st, &Result{})
	if derr == nil {
		t.Fatal("BulkDelete succeeded despite the injected read error")
	}
	if !errors.Is(derr, sim.ErrInjected) {
		t.Fatalf("error lost the injection sentinel: %v", derr)
	}
	if !strings.Contains(derr.Error(), "core: phase ") {
		t.Fatalf("error does not name the executing phase: %v", derr)
	}
}

// TestObserverAccumulatesFaultCounters checks the metrics satellite: a
// shared observer sees the injected faults, the simulated crashes, and
// the recovery runs of a sweep.
func TestObserverAccumulatesFaultCounters(t *testing.T) {
	ob := obs.NewObserver()
	sw, err := Run("bulk", Config{To: 6, Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Failed != 0 {
		t.Fatalf("%d ordinals failed", sw.Failed)
	}
	reg := ob.Registry()
	if got := reg.Counter("crashes_simulated").Value(); got != 6 {
		t.Fatalf("crashes_simulated = %d, want 6", got)
	}
	if got := reg.Counter("recoveries_run").Value(); got != 6 {
		t.Fatalf("recoveries_run = %d, want 6", got)
	}
	if got := reg.Counter("faults_injected").Value(); got < 6 {
		t.Fatalf("faults_injected = %d, want >= 6", got)
	}
}
