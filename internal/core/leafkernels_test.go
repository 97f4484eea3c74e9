package core

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"bulkdel/internal/btree"
	"bulkdel/internal/buffer"
	"bulkdel/internal/keyenc"
	"bulkdel/internal/obs"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
	"bulkdel/internal/wal"
	"bulkdel/internal/xsort"
)

// updateLeafKernels rewrites testdata/leaf_kernels.golden from whatever
// kernels the adapter (leafkernels_adapter_test.go) routes to. The committed
// numbers were recorded from the four hand-unrolled kernels of the commit
// before the walker existed; they are the charge model's contract.
var updateLeafKernels = flag.Bool("update-leaf-kernels", false, "rewrite testdata/leaf_kernels.golden")

const leafEntries = 2400

// leafFixture is one index of leafEntries entries, flushed and evicted so a
// kernel's leaf reads are real disk reads.
type leafFixture struct {
	pool *buffer.Pool
	ix   *IndexRef
	ents []btree.Entry // every entry, in (key, RID) order
}

// leafKeyValue is the field value of entry i: even values only, so the odd
// ones in between are guaranteed misses. Heavy duplicates put 150 entries
// under each of 16 keys.
func leafKeyValue(i int, dups bool) int64 {
	if dups {
		return int64(i/150) * 2
	}
	return int64(i) * 2
}

func buildLeafFixture(t *testing.T, keyLen int, dups bool) *leafFixture {
	t.Helper()
	pool := testPool(256)
	tr, err := btree.Create(pool, keyLen, !dups)
	if err != nil {
		t.Fatal(err)
	}
	f := &leafFixture{pool: pool, ents: make([]btree.Entry, leafEntries)}
	for i := range f.ents {
		f.ents[i] = btree.Entry{
			Key: keyenc.Int64Key(leafKeyValue(i, dups), keyLen),
			RID: record.RID{Page: sim.PageNo(1 + i/40), Slot: uint16(i % 40)},
		}
	}
	i := 0
	err = tr.BulkLoad(func() (btree.Entry, bool, error) {
		if i >= len(f.ents) {
			return btree.Entry{}, false, nil
		}
		i++
		return f.ents[i-1], true, nil
	}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	pool.InvalidateAll()
	f.ix = &IndexRef{Name: "IX", Tree: tr, Unique: !dups}
	return f
}

func (f *leafFixture) fullKey(i int) []byte {
	kl := f.ix.Tree.KeyLen()
	row := make([]byte, kl+record.RIDSize)
	copy(row, f.ents[i].Key)
	record.PutRID(row[kl:], f.ents[i].RID)
	return row
}

func (f *leafFixture) entries(t *testing.T) []string {
	t.Helper()
	var out []string
	err := f.ix.Tree.ScanAll(func(key []byte, rid record.RID) error {
		out = append(out, fmt.Sprintf("%x/%s", key, rid))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sliceRows(rows [][]byte) rowIter {
	i := 0
	return func() ([]byte, bool, error) {
		if i >= len(rows) {
			return nil, false, nil
		}
		i++
		return rows[i-1], true, nil
	}
}

// leafCase is one row of the kernel table.
type leafCase struct {
	kernel string // merge-key, merge-full, probe-rid, probe-full-1, probe-full-k
	keyLen int
	dups   bool
	mode   string // fresh, resumed, readonly, readonly-stop
}

func (c leafCase) name() string {
	d := "unique"
	if c.dups {
		d = "dups"
	}
	// "plain" keeps the names of the committed golden rows.
	return fmt.Sprintf("%s/k%d/%s/plain/%s", c.kernel, c.keyLen, d, c.mode)
}

// leafVictims is what a case asks its kernel to delete, in every shape the
// kernels take it, plus the entries a correct kernel removes.
type leafVictims struct {
	keys    [][]byte                // sorted 8-byte keys (merge-key)
	rows    [][]byte                // sorted key‖RID rows (merge-full, probe-full)
	rids    map[record.RID]struct{} // probe-rid
	removed map[int]bool            // entry ordinals that must be gone afterwards
}

func pickLeafVictims(f *leafFixture, c leafCase) leafVictims {
	v := leafVictims{rids: map[record.RID]struct{}{}, removed: map[int]bool{}}
	kl := f.ix.Tree.KeyLen()
	var hit []int
	if strings.HasSuffix(c.kernel, "-key") {
		// Victim values: a window of present (even) values with absent (odd)
		// ones interleaved, one below the first entry and a tail beyond the
		// last so the list both misses and outlives the leaf chain.
		want := map[int64]bool{}
		vals := []int64{-5}
		lo, hi, step := int64(600), int64(3000), int64(6)
		if c.dups {
			lo, hi, step = 4, 24, 4
		}
		for x := lo; x < hi; x += step {
			vals = append(vals, x, x+1)
			want[x] = true
		}
		vals = append(vals, 1<<40, 1<<40+2)
		for _, x := range vals {
			v.keys = append(v.keys, keyenc.Int64Key(x, keyenc.Int64Width))
		}
		for i := range f.ents {
			if want[leafKeyValue(i, c.dups)] {
				hit = append(hit, i)
			}
		}
	} else {
		// Victim entries: every third entry of a window, so the tail of the
		// chain (and the last range partitions) holds none. The full-key
		// lists also carry rows no entry matches.
		for i := 300; i < 1500; i += 3 {
			hit = append(hit, i)
			v.rows = append(v.rows, f.fullKey(i))
			v.rids[f.ents[i].RID] = struct{}{}
		}
		for _, x := range []int64{-3, 901, 2001} {
			row := make([]byte, kl+record.RIDSize)
			copy(row, keyenc.Int64Key(x, kl))
			record.PutRID(row[kl:], record.RID{Page: 9, Slot: 9})
			v.rows = append(v.rows, row)
		}
		sort.Slice(v.rows, func(a, b int) bool { return bytes.Compare(v.rows[a], v.rows[b]) < 0 })
		v.rids[record.RID{Page: 1 << 20, Slot: 1}] = struct{}{}
	}
	for _, i := range hit {
		v.removed[i] = true
	}
	return v
}

// leafRun is what one kernel invocation is pinned on.
type leafRun struct {
	deleted, applied, emitted, pages int64
	parts                            int
	reads, writes                    uint64
	seq, near, random                uint64
	compares, records                uint64
	err                              string
}

func (r leafRun) String() string {
	return fmt.Sprintf("deleted=%d applied=%d emitted=%d parts=%d pages=%d reads=%d writes=%d seq=%d near=%d random=%d compares=%d records=%d err=%s",
		r.deleted, r.applied, r.emitted, r.parts, r.pages, r.reads, r.writes,
		r.seq, r.near, r.random, r.compares, r.records, r.err)
}

// runLeafKernel invokes the case's kernel once. from > 0 resumes the way
// execCtx.run does: the merge kernels skip the checkpointed victim prefix
// and seek the first remaining victim's leaf. crashAt > 0 injects a crash at
// that noteApplied; stopAt > 0 makes emit end the walk at that hit.
func runLeafKernel(t *testing.T, f *leafFixture, c leafCase, v leafVictims, log *wal.Log,
	ckptRows int, from int64, crashAt int, stopAt int64) leafRun {

	t.Helper()
	disk := f.pool.Disk()
	stmt := obs.NewEventLog().Begin("leaf-kernel", "IX")
	o := Options{Log: log, TxID: 7, CheckpointRows: ckptRows,
		Stmt: stmt, failAfterApplied: crashAt}
	if strings.HasSuffix(c.kernel, "-k") {
		o.Memory = 8000 // four range partitions for the 400-odd victim rows
	}
	e := &execCtx{tgt: &Target{Name: "R", Pool: f.pool}, opts: o.withDefaults()}
	kl := f.ix.Tree.KeyLen()

	var run leafRun
	var emit func(record.RID) error
	del := true
	if strings.HasPrefix(c.mode, "readonly") {
		del = false
	}
	if strings.HasSuffix(c.kernel, "-key") {
		emit = func(record.RID) error {
			run.emitted++
			if stopAt > 0 && run.emitted == stopAt {
				return errFoundMatch
			}
			return nil
		}
	}

	// Everything a kernel is handed is prepared before the counters are
	// read, so the deltas are the kernel's own.
	var rows rowIter
	var keyFile *xsort.RowFile
	var err error
	switch c.kernel {
	case "merge-key":
		rows = sliceRows(v.keys[from:])
		e.applied = from
	case "merge-full":
		rows = sliceRows(v.rows[from:])
		e.applied = from
	case "probe-full-1", "probe-full-k":
		if keyFile, err = xsort.NewRowFile(disk, kl+record.RIDSize, -1); err != nil {
			t.Fatal(err)
		}
		// Routing does not need sorted input; feed it back to front.
		for i := len(v.rows) - 1; i >= 0; i-- {
			if err := keyFile.Append(v.rows[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := keyFile.Seal(); err != nil {
			t.Fatal(err)
		}
	}

	applied0 := e.applied
	s0 := disk.Stats()
	switch c.kernel {
	case "merge-key":
		run.deleted, err = kernelMergeByKey(e, f.ix, rows, del, emit)
	case "merge-full":
		run.deleted, err = kernelMergeByFullKey(e, f.ix, rows)
	case "probe-rid":
		run.deleted, err = kernelProbeByRID(e, f.ix, v.rids)
	default:
		run.deleted, run.parts, err = kernelProbePartitioned(e, f.ix, keyFile)
	}
	s1 := disk.Stats()
	run.applied = e.applied - applied0
	run.pages = stmt.Status().Pages
	run.reads, run.writes = s1.Reads-s0.Reads, s1.Writes-s0.Writes
	run.seq, run.near, run.random = s1.SeqOps-s0.SeqOps, s1.NearOps-s0.NearOps, s1.RandomOps-s0.RandomOps
	run.compares, run.records = s1.Compares-s0.Compares, s1.Records-s0.Records
	run.err = "nil"
	switch {
	case errors.Is(err, errInjectedCrash):
		run.err = "crash"
	case errors.Is(err, errFoundMatch):
		run.err = "stop"
	case err != nil:
		t.Fatalf("%s: %v", c.name(), err)
	}
	return run
}

// checkLeafSurvivors compares the kernel's tree with a second copy of the
// fixture the victims were removed from one Tree.Delete at a time — the
// record-at-a-time path of the traditional plan.
func checkLeafSurvivors(t *testing.T, f *leafFixture, c leafCase, removed map[int]bool) {
	t.Helper()
	ref := buildLeafFixture(t, c.keyLen, c.dups)
	for i := range ref.ents {
		if removed[i] {
			if err := ref.ix.Tree.Delete(ref.ents[i].Key, ref.ents[i].RID); err != nil {
				t.Fatalf("%s: reference delete %d: %v", c.name(), i, err)
			}
		}
	}
	got, want := f.entries(t), ref.entries(t)
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries survive, the record-at-a-time reference keeps %d", c.name(), len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d is %s, reference has %s", c.name(), i, got[i], want[i])
		}
	}
	if f.ix.Tree.Count() != int64(len(want)) {
		t.Fatalf("%s: tree counts %d entries, holds %d", c.name(), f.ix.Tree.Count(), len(want))
	}
	// The walk frees the leaves it empties: the inner levels stay exact.
	if err := f.ix.Tree.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", c.name(), err)
	}
}

// TestLeafKernels pins the index ⋈̸ kernels — merge by key, merge by
// key‖RID, probe by RID, probe by key‖RID over one and over several range
// partitions — on what they leave in the tree and on what they charge: the
// simulated disk's read/write/positioning counters, the compare and record
// charges, the noteApplied count, the leaves counted into the statement's
// progress and the returned delete count.
func TestLeafKernels(t *testing.T) {
	var cases []leafCase
	for _, kernel := range []string{"merge-key", "merge-full", "probe-rid", "probe-full-1", "probe-full-k"} {
		for _, keyLen := range []int{8, 16} {
			for _, dups := range []bool{false, true} {
				modes := []string{"fresh", "resumed"}
				if strings.HasSuffix(kernel, "-key") {
					// The kernels with a read-only form.
					modes = append(modes, "readonly", "readonly-stop")
				}
				for _, mode := range modes {
					cases = append(cases, leafCase{kernel, keyLen, dups, mode})
				}
			}
		}
	}

	var got []string
	for _, c := range cases {
		f := buildLeafFixture(t, c.keyLen, c.dups)
		v := pickLeafVictims(f, c)
		log := wal.Create(f.pool.Disk())
		listLen := len(v.rows)
		if strings.HasSuffix(c.kernel, "-key") {
			listLen = len(v.keys)
		}
		switch c.mode {
		case "fresh":
			run := runLeafKernel(t, f, c, v, log, 64, 0, 0, 0)
			got = append(got, c.name()+" "+run.String())
			checkLeafSurvivors(t, f, c, v.removed)
		case "resumed":
			// Crash halfway down the list, resume from the last checkpoint
			// the crashed attempt made durable.
			crashAt := listLen / 2
			ckpt := max(1, crashAt/3)
			from := int64((crashAt - 1) / ckpt * ckpt)
			if strings.HasPrefix(c.kernel, "probe-") {
				from = 0 // the scans start over
			}
			first := runLeafKernel(t, f, c, v, log, ckpt, 0, crashAt, 0)
			if first.err != "crash" {
				t.Fatalf("%s: first attempt ended %s, want the injected crash", c.name(), first.err)
			}
			second := runLeafKernel(t, f, c, v, log, ckpt, from, 0, 0)
			got = append(got, c.name()+"/crashed "+first.String(), c.name()+" "+second.String())
			checkLeafSurvivors(t, f, c, v.removed)
		case "readonly":
			run := runLeafKernel(t, f, c, v, log, 64, 0, 0, 0)
			if run.emitted != int64(len(v.removed)) {
				t.Fatalf("%s: emitted %d RIDs, want %d", c.name(), run.emitted, len(v.removed))
			}
			got = append(got, c.name()+" "+run.String())
			checkLeafSurvivors(t, f, c, nil)
		case "readonly-stop":
			run := runLeafKernel(t, f, c, v, log, 64, 0, 0, 5)
			if run.err != "stop" || run.emitted != 5 {
				t.Fatalf("%s: ended %s after %d hits, want stop after 5", c.name(), run.err, run.emitted)
			}
			got = append(got, c.name()+" "+run.String())
			checkLeafSurvivors(t, f, c, nil)
		}
	}

	golden := filepath.Join("testdata", "leaf_kernels.golden")
	text := strings.Join(got, "\n") + "\n"
	if *updateLeafKernels {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantText, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(wantText), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d pinned runs, %d recorded in %s", len(got), len(want), golden)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("charge model moved:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
