package crashtest

import "testing"

// probeTraditionalDigest is the probe scenario's completed-delete
// StructureDigest as the parent commit (which had no probe arm) left it
// through DeleteTraditional(sorted): the final state the new arm must reach.
const probeTraditionalDigest = "442fef5ba8b3ed11"

// TestProbeSweep sweeps the probe arm — Auto on a delete small enough that
// every index is joined by probes, with one leaf emptied and freed on the
// way — through a crash and a cancel at every ordinal (cancel ≡ crash at the
// same ordinal), and strided under the snapshot reader. Its final state is
// the record-at-a-time delete's.
func TestProbeSweep(t *testing.T) {
	cfg := probe.config(Config{}.withDefaults())
	st, err := probe.build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := st.tables[0].DeleteTraditional(0, st.victims[0], true); err != nil || n != int64(cfg.Victims) {
		t.Fatalf("traditional delete: %d of %d, %v", n, cfg.Victims, err)
	}
	if got, err := StructureDigest(st.tables[0]); err != nil || got != probeTraditionalDigest {
		t.Fatalf("traditional delete leaves digest %s (%v), recorded %s", got, err, probeTraditionalDigest)
	}

	sw := mustRun(t, "probe", Config{})
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
	sw = mustRun(t, "probe-cancel", Config{})
	if sw.Fired == 0 {
		t.Fatal("no ordinal observed the cancellation")
	}
	if sw.Reference != probeTraditionalDigest {
		t.Fatalf("the probe arm completes on digest %s, the traditional delete on %s", sw.Reference, probeTraditionalDigest)
	}
	requireReaderScans(t, mustRun(t, "probe-reader", Config{Stride: 7}))
	requireReaderScans(t, mustRun(t, "probe-reader-cancel", Config{Stride: 7}))
}
