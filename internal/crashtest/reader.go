package crashtest

import (
	"context"
	"fmt"
	"reflect"
	"slices"

	"bulkdel"
	"bulkdel/internal/sim"
)

// The reader scenarios re-run the crash and cancel sweeps with a concurrent
// MVCC snapshot reader pinned to the pre-delete epoch. The reader opens a
// View before the bulk delete starts and reads it in a loop for as long as
// the statement runs — every scan must return the full pre-delete row
// count, and every lookup of a victim and of a survivor on fields 0 and 1
// the pre-delete rows, through whichever arm the index gates allow, no
// matter how far the delete (or its abort replay) has progressed.
// The reader's page reads share the simulated disk, so the kth-I/O trigger
// fires at a scheduling-dependent point in the statement and these sweeps
// assert per-ordinal invariants — the table settles on the untouched or the
// completed state, never between — rather than cross-run digest equality
// (like parallel sweeps do).

// withReader decorates a scenario's statement with the snapshot reader and
// records how many scans it completed in the reader-scans column; a reader
// failure becomes the ordinal's Err. final asks for one more scan of the
// pinned view after the statement settled — the cancel path, where the
// database outlives the statement.
func withReader(run runFunc, final bool) runFunc {
	return func(ctx context.Context, cfg Config, st *state, res *Result) error {
		rd, err := startSnapReader(st, int64(cfg.Rows))
		if sim.IsCrash(err) {
			res.set("reader-scans", int64(0))
			return err // the power failed before the statement began
		}
		if err != nil {
			res.Err = err.Error()
			return nil
		}
		derr := run(ctx, cfg, st, res)
		scans, err := rd.stop(final)
		res.set("reader-scans", int64(scans))
		if err != nil {
			res.Err = err.Error()
		}
		return derr
	}
}

// snapReader reads a pre-delete View: once synchronously before the
// statement starts (proving the pinned view), then in a loop on its own
// goroutine while the statement runs, and — on the cancel path — once more
// after the statement settles, when the view must still serve every
// pre-delete row out of the retained versions. A crash error ends the
// background loop cleanly (the reader lost the race with a simulated power
// failure); any other error, a scan that does not see every pre-delete
// row, or a lookup run wholly before the power failed that does not return
// its pre-delete row, is reported by stop().
type snapReader struct {
	v    *bulkdel.View
	disk *sim.Disk
	want int64
	keys []int64 // a middle victim and the first survivor
	quit chan struct{}
	done chan error
	bg   chan int
}

func startSnapReader(st *state, wantRows int64) (*snapReader, error) {
	v, err := st.tables[0].View()
	if err != nil {
		return nil, err
	}
	victims, survivor := st.victims[0], int64(0)
	for slices.Contains(victims, survivor) {
		survivor++
	}
	r := &snapReader{
		v:    v,
		disk: st.db.Disk(),
		want: wantRows,
		keys: []int64{victims[len(victims)/2], survivor},
		quit: make(chan struct{}),
		done: make(chan error, 1),
		bg:   make(chan int, 1),
	}
	if err := r.scanOnce(); err != nil {
		v.Close()
		return nil, fmt.Errorf("pre-statement scan: %w", err)
	}
	go func() {
		scans := 0
		defer func() { r.bg <- scans }()
		for {
			select {
			case <-r.quit:
				r.done <- nil
				return
			default:
			}
			if err := r.scanOnce(); err != nil {
				if sim.IsCrash(err) {
					r.done <- nil // power failed mid-read: nothing to assert
					return
				}
				r.done <- err
				return
			}
			scans++
		}
	}()
	return r, nil
}

func (r *snapReader) scanOnce() error {
	var n int64
	if err := r.v.Scan(func(bulkdel.RID, []int64) error { n++; return nil }); err != nil {
		return fmt.Errorf("snapshot reader scan: %w", err)
	}
	if n != r.want {
		return fmt.Errorf("pinned view saw %d rows, want %d (snapshot not repeatable)", n, r.want)
	}
	for _, k := range r.keys {
		want := [][]int64{{k, 3 * k, k % 7}} // populate's row k
		for f := 0; f < 2; f++ {
			crashes := r.disk.Stats().Crashes
			if crashes > 0 {
				// The statement died mid-pass and reopened its half-done
				// trees: a lookup that starts on a dead machine asserts
				// nothing. One that ends before the power fails is held to
				// the rows.
				return nil
			}
			got, err := r.v.Lookup(f, want[0][f])
			if err != nil {
				return fmt.Errorf("snapshot reader lookup: %w", err)
			}
			// A lookup the power failure overlapped may have entered a tree
			// the dead statement had just reopened; the next check ends it.
			if !reflect.DeepEqual(got, want) && r.disk.Stats().Crashes == crashes {
				return fmt.Errorf("pinned view lookup of field %d = %d: %v, want %v", f, want[0][f], got, want)
			}
		}
	}
	return nil
}

// stop ends the reader and returns (scans completed, first reader error).
// With final set — the cancel path, where the database outlives the
// statement — the pinned view is scanned one last time: the delete has
// fully committed (or fully aborted), and the pre-delete snapshot must
// still be served whole from the retained versions.
func (r *snapReader) stop(final bool) (int, error) {
	close(r.quit)
	err := <-r.done
	scans := <-r.bg + 1 // + the synchronous pre-statement scan
	if err == nil && final {
		if ferr := r.scanOnce(); ferr != nil {
			err = fmt.Errorf("post-statement: %w", ferr)
		} else {
			scans++
		}
	}
	r.v.Close()
	return scans, err
}
