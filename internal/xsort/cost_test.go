package xsort

import (
	"math"
	"testing"
	"time"

	"bulkdel/internal/sim"
)

// TestSpillCostMatchesPinnedSorts: SpillCost, priced before a sort, comes
// within 5 % of what each pinned spilling sort did — pages, positionings and
// I/O time — and prices a sort that fits in memory at nothing.
func TestSpillCostMatchesPinnedSorts(t *testing.T) {
	cm := sim.DefaultCostModel()
	near := func(est, got float64) bool { return math.Abs(est-got) <= 0.05*got }
	for _, c := range pinnedSpills {
		d := spillPinned(t, c.budget, c.rows)
		st := d.Stats()
		io := d.Clock() - time.Duration(st.Compares)*cm.CPUCompare
		est := SpillCost(cm, int64(c.rows), 8, c.budget)
		if !near(float64(est.Reads+est.Writes), float64(st.Reads+st.Writes)) ||
			!near(float64(est.Positionings), float64(st.RandomOps)) || !near(float64(est.Time), float64(io)) {
			t.Errorf("budget %d, %d rows: estimated %d pages, %d positionings, %v; the sort did %d, %d, %v",
				c.budget, c.rows, est.Reads+est.Writes, est.Positionings, est.Time, st.Reads+st.Writes, st.RandomOps, io)
		}
	}
	if est := SpillCost(cm, 3999, 8, 32000); est != (Cost{}) {
		t.Errorf("3999 rows of a 4000-row budget priced at %+v", est)
	}
	if est := SpillCost(cm, 4000, 8, 32000); est.Writes == 0 {
		t.Error("4000 rows of a 4000-row budget spill, but were priced at nothing")
	}
}
