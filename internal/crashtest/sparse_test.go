package crashtest

import "testing"

// sparseTraditionalDigest is the sparse scenario's completed-delete
// StructureDigest as DeleteTraditional(sorted) leaves it: the final state
// the seeking walk must reach.
const sparseTraditionalDigest = "442fef5ba8b3ed11"

// TestSparseSweep sweeps a delete small enough that every index walk seeks
// from victim to victim, with one leaf emptied and freed on the way, through
// a crash and a cancel at every ordinal (cancel ≡ crash at the same ordinal),
// and strided under the snapshot reader. Its final state is the
// record-at-a-time delete's.
func TestSparseSweep(t *testing.T) {
	cfg := sparse.config(Config{}.withDefaults())
	st, err := sparse.build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := st.tables[0].DeleteTraditional(0, st.victims[0], true); err != nil || n != int64(cfg.Victims) {
		t.Fatalf("traditional delete: %d of %d, %v", n, cfg.Victims, err)
	}
	if got, err := StructureDigest(st.tables[0]); err != nil || got != sparseTraditionalDigest {
		t.Fatalf("traditional delete leaves digest %s (%v), recorded %s", got, err, sparseTraditionalDigest)
	}

	sw := mustRun(t, "sparse", Config{})
	var intact, forward bool
	for _, r := range sw.Ordinals {
		if r.Field("bulk-in-wal") == true {
			forward = true
		} else if r.Fired {
			intact = true
		}
	}
	if !intact || !forward {
		t.Fatalf("sweep did not cross the bulk-start durability boundary (intact=%v forward=%v)", intact, forward)
	}
	sw = mustRun(t, "sparse-cancel", Config{})
	if sw.Fired == 0 {
		t.Fatal("no ordinal observed the cancellation")
	}
	if sw.Reference != sparseTraditionalDigest {
		t.Fatalf("the seeking walk completes on digest %s, the traditional delete on %s", sw.Reference, sparseTraditionalDigest)
	}
	requireReaderScans(t, mustRun(t, "sparse-reader", Config{Stride: 7}))
	requireReaderScans(t, mustRun(t, "sparse-reader-cancel", Config{Stride: 7}))
}
