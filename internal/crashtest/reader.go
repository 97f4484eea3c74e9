package crashtest

import (
	"context"
	"fmt"

	"bulkdel"
	"bulkdel/internal/sim"
)

// The reader scenarios re-run the crash and cancel sweeps with a concurrent
// MVCC snapshot reader pinned to the pre-delete epoch. The reader opens a
// View before the bulk delete starts and scans it in a loop for as long as
// the statement runs — every scan must return the full pre-delete row
// count, no matter how far the delete (or its abort replay) has progressed.
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
		rd, err := startSnapReader(st.tables[0], int64(cfg.Rows))
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

// snapReader scans a pre-delete View: once synchronously before the
// statement starts (proving the pinned view), then in a loop on its own
// goroutine while the statement runs, and — on the cancel path — once more
// after the statement settles, when the view must still serve every
// pre-delete row out of the retained versions. A crash error ends the
// background loop cleanly (the reader lost the race with a simulated power
// failure); any other error, or a scan that does not see every pre-delete
// row, is reported by stop().
type snapReader struct {
	v    *bulkdel.View
	want int64
	quit chan struct{}
	done chan error
	bg   chan int
}

func startSnapReader(tbl *bulkdel.Table, wantRows int64) (*snapReader, error) {
	v, err := tbl.View()
	if err != nil {
		return nil, err
	}
	r := &snapReader{
		v:    v,
		want: wantRows,
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
