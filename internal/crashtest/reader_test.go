package crashtest

import (
	"testing"

	"bulkdel"
)

// The reader sweeps attach an MVCC snapshot reader — a View pinned to the
// pre-delete epoch, re-scanning the table in a loop — to the cancel and
// crash scenarios. Each swept ordinal asserts (a) every completed reader
// scan saw the table whole and (b) the table settled at an atomic boundary
// (untouched or fully deleted). Strided: each ordinal builds a fresh
// database and, on the crash path, runs full recovery.

func TestReaderCancelSweep(t *testing.T) {
	requireReaderScans(t, mustRun(t, "reader-cancel", Config{Method: bulkdel.SortMerge, Stride: 7}))
}

func TestReaderCrashSweep(t *testing.T) {
	requireReaderScans(t, mustRun(t, "reader", Config{Method: bulkdel.SortMerge, Stride: 7}))
}

// requireReaderScans: the reader must actually observe mid-statement state
// somewhere in the sweep: a run where no ordinal completed a scan would mean
// the reader was starved — exactly what snapshot reads exist to prevent.
func requireReaderScans(t *testing.T, sw *SweepResult) {
	t.Helper()
	if sw.Deterministic {
		t.Fatal("a reader sweep reports a comparable digest")
	}
	scans := 0
	for _, r := range sw.Ordinals {
		scans += r.ReaderScans
	}
	if scans == 0 {
		t.Fatal("the snapshot reader never completed a scan across the whole sweep")
	}
}
