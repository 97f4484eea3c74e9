package bench

import "testing"

// TestLSMHeadToHeadShape runs the lsm spec verified at 1/4 of the usual
// test scale (the LSM side loads through the public API): every run checks
// its database and the rows it deleted, and Run asserts the row's check —
// tombstone I/O identical across selectivities, the ⋈̸-over-B-trees side
// growing with the deleted fraction. Reclaiming also costs more than the
// bare tombstone.
func TestLSMHeadToHeadShape(t *testing.T) {
	var spec Spec
	for _, s := range Specs {
		if s.Name() == "lsm" {
			spec = s
		}
	}
	e, err := (&Runner{Rows: testRows / 4, Seed: 1, verify: true}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	tomb, reclaim := e.Series[1].Points, e.Series[2].Points
	for i := range tomb {
		if reclaim[i].Result.SimTime <= tomb[i].Result.SimTime {
			t.Fatalf("reclaim at %s not slower than the bare tombstone (%v vs %v)",
				tomb[i].X, reclaim[i].Result.SimTime, tomb[i].Result.SimTime)
		}
	}
}
