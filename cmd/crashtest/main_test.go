package main

import (
	"bytes"
	"strings"
	"testing"
)

// runCLI runs the command in-process, requires the given exit status and
// one stdout line per prefix, each starting with its prefix and ending with
// suffix.
func runCLI(t *testing.T, status int, args []string, suffix string, prefixes ...string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := "crashtest " + strings.Join(args, " ")
	if got := run(args, &stdout, &stderr); got != status {
		t.Fatalf("%s: exit status %d, want %d\nstdout:\n%sstderr:\n%s", cmd, got, status, &stdout, &stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if stdout.Len() == 0 {
		lines = nil
	}
	if len(lines) != len(prefixes) {
		t.Fatalf("%s printed %d lines, want %d:\n%s", cmd, len(lines), len(prefixes), &stdout)
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, prefixes[i]) || !strings.HasSuffix(line, suffix) {
			t.Errorf("%s: line %d is %q, want %q…%q", cmd, i, line, prefixes[i], suffix)
		}
	}
}

// TestAtReproducesOneOrdinalInEveryScenario: -at K prints exactly the one
// ordinal line (no sweep, no summary) whatever the scenario and mode — the
// cancel and reader sweeps used to ignore it and run the whole range.
func TestAtReproducesOneOrdinalInEveryScenario(t *testing.T) {
	runCLI(t, 0, []string{"-cancel", "-at", "37", "-method", "sort"}, " ok", "sort:     io=37   cancelled=")
	runCLI(t, 0, []string{"-lsm", "-at", "5"}, " ok", "lsm: io=5    crash=", "lsm-in: io=5    crash=", "lsm-grow: io=5    crash=", "lsm-drop: io=5    crash=", "lsm-heap: io=5    crash=")
	// Past the two short LSM statements, inside the insert streams and the
	// heap delete: the sweeps the ordinal is past are skipped, not an error.
	runCLI(t, 0, []string{"-lsm", "-at", "37"}, " ok", "lsm-grow: io=37   crash=", "lsm-drop: io=37   crash=", "lsm-heap: io=37   crash=")
	runCLI(t, 0, []string{"-rebalance", "-at", "9"}, " ok", "rebalance: io=9    crash=", "parted: io=9    crash=")
	// Past the rebalancing's last I/O, inside the partitioned-heap delete.
	runCLI(t, 0, []string{"-rebalance", "-at", "45"}, " ok", "parted: io=45   crash=")
	runCLI(t, 0, []string{"-at", "37", "-method", "hash"}, " ok", "hash:     io=37   crash=")
	runCLI(t, 0, []string{"-at", "40", "-method", "range"}, " ok", "range:    io=40   crash=")
	runCLI(t, 0, []string{"-reader", "-cancel", "-at", "12", "-method", "sort"}, " ok", "sort:     io=12   fired=")
	// An ordinal past the statement's last I/O is a usage error, not an
	// empty success.
	runCLI(t, 2, []string{"-rebalance", "-at", "100000"}, "")
}

// TestSummaryLines pins the one-line-per-sweep shape of every scenario. A
// digest carries every ordinal's clock since the database opened, so the
// heap scenarios' digests also count the header write each CREATE TABLE
// and the table flush each CREATE INDEX makes before its catalog save.
func TestSummaryLines(t *testing.T) {
	// The heap ⋈̸ reads each victim heap page once, projecting the key lists
	// as it deletes: a logged sort/merge statement is 68 I/Os, not the 73 a
	// separate read-only extraction walk cost.
	runCLI(t, 0, []string{"-method", "sort", "-stride", "9"}, "",
		"sort:     68 I/Os, swept 8 ordinals, 0 failed, digest ")
	// The LSM deletes run on a base whose CompactLSM restarted the drained
	// WAL, so their log flush starts a fresh page and reads no tail back.
	// lsm-grow's sweep crosses a two-output compaction and eight restarts;
	// lsm-drop's, a tenant drop applied in place at its TTL. Every SSTable
	// has one trailer page and every catalog save is one page write. A
	// compaction reads its inputs in chained runs and retires its outputs to
	// the pool's cold end, so they do not evict the inputs' read-ahead: on
	// the 24-frame pool lsm-grow makes 479 I/Os, 9 fewer than when outputs
	// stayed hot (190 either way on a 1 MB pool).
	runCLI(t, 0, []string{"-lsm"}, "",
		"lsm: 6 I/Os, swept 6 ordinals, 0 failed, digest 6e7950983b505717",
		"lsm-in: 7 I/Os, swept 7 ordinals, 0 failed, digest ",
		"lsm-grow: 479 I/Os, swept 479 ordinals, 0 failed, digest e7b631d212ed0735",
		"lsm-drop: 180 I/Os, swept 180 ordinals, 0 failed, digest 43a0f1916548d6a4",
		"lsm-heap: 69 I/Os, swept 69 ordinals, 0 failed, digest 615940b95becf787")
	// rebalance's digest carries the clock of the sort/merge bulk delete its
	// verify runs after recovery, so it moves with the kernels' charges, as
	// parted's does. The rebalancing commits with one catalog save.
	runCLI(t, 0, []string{"-rebalance"}, "",
		"rebalance: 30 I/Os, swept 30 ordinals, 0 failed, digest 3c22567c11cc2436",
		"parted: 85 I/Os, swept 85 ordinals, 0 failed, digest 1b6df6cb05606c0d")
	// -rebalance -cancel cancels the partitioned-heap delete at every
	// ordinal; an online abort that lands in the heap phase finishes on the
	// RID list. Its reference is the completed delete's final state, the same
	// as with the extraction walk.
	runCLI(t, 0, []string{"-rebalance", "-cancel", "-stride", "9"}, " 0 failed, reference 61a84952e18411ee",
		"parted-cancel: cancel sweep: 85 I/Os, swept 10 ordinals, ")
	// A sweep with no join method to vary keeps its scenario under -method
	// auto.
	runCLI(t, 0, []string{"-rebalance", "-method", "auto", "-stride", "9"}, "",
		"rebalance: 30 I/Os, swept 4 ordinals, 0 failed, digest ",
		"parted: 85 I/Os, swept 10 ordinals, 0 failed, digest ")
	runCLI(t, 0, []string{"-cancel", "-method", "hash", "-stride", "9"}, "",
		"hash:     cancel sweep: 62 I/Os, swept 7 ordinals, 7 cancelled, 0 failed, reference d0ec0d93a4ddb929")
	// -method auto sweeps the sparse scenario; its cancelled runs settle on
	// the digest DeleteTraditional(sorted) leaves.
	runCLI(t, 0, []string{"-method", "auto", "-stride", "40"}, "",
		"auto:     322 I/Os, swept 9 ordinals, 0 failed, digest ")
	runCLI(t, 0, []string{"-cancel", "-method", "auto", "-stride", "40"}, " 0 failed, reference 442fef5ba8b3ed11",
		"auto:     cancel sweep: 324 I/Os, swept 9 ordinals, ")
	// -method range sweeps Table.DeleteRange of a key range: the backend
	// resolves it off IA's leaves under the statement's lock, the planner
	// joins the keys.
	runCLI(t, 0, []string{"-method", "range"}, "",
		"range:    75 I/Os, swept 75 ordinals, 0 failed, digest e4ccea8bbb488df7")
	runCLI(t, 0, []string{"-cancel", "-method", "range", "-stride", "9"}, " 0 failed, reference 2abd5124e1c63f92",
		"range:    cancel sweep: 75 I/Os, swept 9 ordinals, 9 cancelled, ")
	// -merge deletes 60 % of the rows on wide-keyed indexes, so the walks
	// merge the underfull leaves they leave and crashes tear the merges; the
	// cancelled runs settle on one state whatever the method.
	runCLI(t, 0, []string{"-merge"}, "",
		"sort:     453 I/Os, swept 453 ordinals, 0 failed, digest 4a770a90a4965d5d",
		"hash:     358 I/Os, swept 358 ordinals, 0 failed, digest 54084f74143e295a",
		"partition: 499 I/Os, swept 499 ordinals, 0 failed, digest fa2b068d2742a543")
	runCLI(t, 0, []string{"-merge", "-cancel", "-stride", "9"}, " 0 failed, reference db3ba020f5d8c28c",
		"sort:     cancel sweep: 451 I/Os, swept 51 ordinals, ",
		"hash:     cancel sweep: 356 I/Os, swept 40 ordinals, ",
		"partition: cancel sweep: 497 I/Os, swept 56 ordinals, ")
	runCLI(t, 0, []string{"-reader", "-method", "sort", "-stride", "20"}, "",
		"sort:     reader crash sweep: 68 I/Os, swept 4 ordinals, 0 failed")
	runCLI(t, 0, []string{"-concurrent", "-method", "sort", "-devices", "3", "-parallel", "2", "-rows", "24", "-stride", "25"}, "",
		"sort:     concurrent 2-table batch: ")
}
