package crashtest

import (
	"testing"

	"bulkdel"
)

// TestMergeSweep sweeps a delete whose leaf walks merge the underfull leaves
// they leave, under every join method, through a crash and a cancel at every
// ordinal. A crash can tear a merge — the merged-into leaf written, the
// merged one still linked, or the other way round — and recovery must find
// every such tree and rebuild it. The cancelled runs settle on the state the
// record-at-a-time delete leaves.
func TestMergeSweep(t *testing.T) {
	cfg := merge.config(Config{}.withDefaults())
	st, err := merge.build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := st.tables[0].DeleteTraditional(0, st.victims[0], true); err != nil || n != int64(cfg.Victims) {
		t.Fatalf("traditional delete: %d of %d, %v", n, cfg.Victims, err)
	}
	traditional, err := StructureDigest(st.tables[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []bulkdel.Method{bulkdel.SortMerge, bulkdel.Hash, bulkdel.HashPartition} {
		sw := mustRun(t, "merge", Config{Method: m})
		var forward bool
		for _, r := range sw.Ordinals {
			forward = forward || r.Field("bulk-in-wal") == true
		}
		if !forward {
			t.Errorf("%v: no crash landed after the bulk-start record", m)
		}
		sw = mustRun(t, "merge-cancel", Config{Method: m})
		if sw.Fired == 0 {
			t.Errorf("%v: no ordinal observed the cancellation", m)
		}
		if sw.Reference != traditional {
			t.Errorf("%v: the merging walks complete on digest %s, the traditional delete on %s", m, sw.Reference, traditional)
		}
	}
}
