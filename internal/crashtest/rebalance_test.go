package crashtest

import (
	"testing"
)

func TestRebalanceSweepEveryOrdinal(t *testing.T) {
	sw := mustRun(t, "rebalance", Config{})
	if sw.Ran != sw.TotalIOs {
		t.Fatalf("swept %d ordinals, rebalance performs %d I/Os", sw.Ran, sw.TotalIOs)
	}
	// Every swept ordinal is within the rebalance, so each must crash, and
	// the sweep must cross both regimes: crashes recovered with no move
	// visible in the log, and crashes whose moves recovery replayed.
	var fired, none, replayed bool
	for _, r := range sw.Ordinals {
		if r.Fired {
			fired = true
		}
		if r.Field("replayed") == int64(0) {
			none = true
		} else {
			replayed = true
		}
	}
	if !fired {
		t.Fatal("no ordinal crashed")
	}
	if !none || !replayed {
		t.Fatalf("sweep did not cross the move-start durability boundary (none=%v replayed=%v)", none, replayed)
	}
}
