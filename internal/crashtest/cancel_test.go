package crashtest

import (
	"testing"

	"bulkdel"
)

// cancelSweepAll runs a full cancel sweep for one method and fails the test
// on any ordinal whose invariants break.
func cancelSweepAll(t *testing.T, method bulkdel.Method, stride int) *SweepResult {
	t.Helper()
	return mustRun(t, "cancel", Config{Method: method, Stride: stride})
}

func TestCancelSweepEveryOrdinalSortMerge(t *testing.T) {
	sw := cancelSweepAll(t, bulkdel.SortMerge, 1)
	// Cancelling after an early I/O must actually interrupt the statement
	// at least once; a sweep where no ordinal fires would mean the cancel
	// checkpoints are dead code.
	if sw.Fired == 0 {
		t.Fatal("no ordinal observed the cancellation")
	}
	// The crash+recover cross-check must cross both regimes: early crashes
	// whose zero-effect state matches the pre-delete digest, and late
	// crashes whose rolled-forward state matches the cancelled runs.
	var zero, forward bool
	for _, r := range sw.Ordinals {
		if r.Field("crash-comparable") == true {
			forward = true
		} else {
			zero = true
		}
	}
	if !zero || !forward {
		t.Fatalf("cancel sweep did not cross the bulk-start durability boundary (zero=%v forward=%v)", zero, forward)
	}
}

func TestCancelSweepHash(t *testing.T) {
	cancelSweepAll(t, bulkdel.Hash, 5)
}

func TestCancelSweepHashPartition(t *testing.T) {
	cancelSweepAll(t, bulkdel.HashPartition, 5)
}

// TestCancelConvergesToCompletedDelete pins the §3.2 semantics the sweep
// relies on: a cancelled bulk delete does not roll back — the online
// abort-to-consistency replay finishes the delete, so every cancelled run
// holds the same survivor count as a completed one.
func TestCancelConvergesToCompletedDelete(t *testing.T) {
	cfg := Config{Method: bulkdel.SortMerge}.withDefaults()
	sw, err := Run("cancel", cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(cfg.Rows - cfg.Victims)
	for _, r := range sw.Ordinals {
		if r.Err != "" {
			t.Fatalf("ordinal %d: %s", r.Ordinal, r.Err)
		}
		if r.Survivors != want {
			t.Fatalf("ordinal %d: %d survivors after cancel, want %d (cancelFired=%v)",
				r.Ordinal, r.Survivors, want, r.Fired)
		}
	}
}
