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
	runCLI(t, 0, []string{"-lsm", "-at", "5"}, " ok", "lsm: io=5    crash=", "lsm-in: io=5    crash=", "lsm-heap: io=5    crash=")
	// Past the two short LSM statements, inside the heap delete: the sweeps
	// the ordinal is past are skipped, not an error.
	runCLI(t, 0, []string{"-lsm", "-at", "37"}, " ok", "lsm-heap: io=37   crash=")
	runCLI(t, 0, []string{"-rebalance", "-at", "9"}, " ok", "rebalance: io=9    crash=", "parted: io=9    crash=")
	// Past the rebalancing's last I/O, inside the partitioned-heap delete.
	runCLI(t, 0, []string{"-rebalance", "-at", "45"}, " ok", "parted: io=45   crash=")
	runCLI(t, 0, []string{"-at", "37", "-method", "hash"}, " ok", "hash:     io=37   crash=")
	runCLI(t, 0, []string{"-reader", "-cancel", "-at", "12", "-method", "sort"}, " ok", "sort:     io=12   fired=")
	// An ordinal past the statement's last I/O is a usage error, not an
	// empty success.
	runCLI(t, 2, []string{"-rebalance", "-at", "100000"}, "")
}

// TestSummaryLines pins the one-line-per-sweep shape of every scenario.
func TestSummaryLines(t *testing.T) {
	// The heap ⋈̸ reads each victim heap page once, projecting the key lists
	// as it deletes: a logged sort/merge statement is 68 I/Os, not the 73 a
	// separate read-only extraction walk cost.
	runCLI(t, 0, []string{"-method", "sort", "-stride", "9"}, "",
		"sort:     68 I/Os, swept 8 ordinals, 0 failed, digest ")
	runCLI(t, 0, []string{"-lsm"}, "",
		"lsm: 11 I/Os, swept 11 ordinals, 0 failed, digest ba623159b70f4826",
		"lsm-in: 12 I/Os, swept 12 ordinals, 0 failed, digest ",
		"lsm-heap: 69 I/Os, swept 69 ordinals, 0 failed, digest ")
	// rebalance's digest carries the clock of the sort/merge bulk delete its
	// verify runs after recovery, so it moves with the kernels' charges, as
	// parted's does.
	runCLI(t, 0, []string{"-rebalance"}, "",
		"rebalance: 31 I/Os, swept 31 ordinals, 0 failed, digest 9fe9855e38d7bb4c",
		"parted: 85 I/Os, swept 85 ordinals, 0 failed, digest 9b65a579e15001de")
	// -rebalance -cancel cancels the partitioned-heap delete at every
	// ordinal; an online abort that lands in the heap phase finishes on the
	// RID list. Its reference is the completed delete's final state, the same
	// as with the extraction walk.
	runCLI(t, 0, []string{"-rebalance", "-cancel", "-stride", "9"}, " 0 failed, reference 61a84952e18411ee",
		"parted-cancel: cancel sweep: 85 I/Os, swept 10 ordinals, ")
	// A sweep with no join method to vary keeps its scenario under -method
	// auto.
	runCLI(t, 0, []string{"-rebalance", "-method", "auto", "-stride", "9"}, "",
		"rebalance: 31 I/Os, swept 4 ordinals, 0 failed, digest ",
		"parted: 85 I/Os, swept 10 ordinals, 0 failed, digest ")
	runCLI(t, 0, []string{"-cancel", "-method", "hash", "-stride", "9"}, "",
		"hash:     cancel sweep: 62 I/Os, swept 7 ordinals, 7 cancelled, 0 failed, reference d0ec0d93a4ddb929")
	// -method auto sweeps the sparse scenario; its cancelled runs settle on
	// the digest DeleteTraditional(sorted) leaves.
	runCLI(t, 0, []string{"-method", "auto", "-stride", "40"}, "",
		"auto:     322 I/Os, swept 9 ordinals, 0 failed, digest ")
	runCLI(t, 0, []string{"-cancel", "-method", "auto", "-stride", "40"}, " 0 failed, reference 442fef5ba8b3ed11",
		"auto:     cancel sweep: 324 I/Os, swept 9 ordinals, ")
	runCLI(t, 0, []string{"-reader", "-method", "sort", "-stride", "20"}, "",
		"sort:     reader crash sweep: 68 I/Os, swept 4 ordinals, 0 failed")
	runCLI(t, 0, []string{"-concurrent", "-method", "sort", "-devices", "3", "-parallel", "2", "-rows", "24", "-stride", "25"}, "",
		"sort:     concurrent 2-table batch: ")
}
