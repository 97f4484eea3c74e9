package core

import (
	"bulkdel/internal/record"
	"bulkdel/internal/xsort"
)

// The entry points TestLeafKernels drives. This file is the only part of
// the test that names production functions, so the table, the checks and the
// recorded numbers in leafkernels_test.go / testdata/leaf_kernels.golden stay
// byte-identical across a kernel rewrite. At the commit the numbers were
// first recorded on, they were mergeDeleteIndexByKey,
// mergeDeleteIndexByFullKey and indexDeleteByRIDProbe.

func kernelMergeByKey(e *execCtx, ix *IndexRef, victims rowIter, del bool,
	emit func(record.RID) error) (int64, error) {
	return e.indexJoin(ix, victims, true, del, emit)
}

func kernelMergeByFullKey(e *execCtx, ix *IndexRef, rows rowIter) (int64, error) {
	return e.indexJoin(ix, rows, false, true, nil)
}

func kernelProbeByRID(e *execCtx, ix *IndexRef, set map[record.RID]struct{}) (int64, error) {
	return walkLeaves(e, ix, nil, nil, &probeMatcher{e: e, ix: ix, rids: set}, true, nil)
}

func kernelProbePartitioned(e *execCtx, ix *IndexRef, rows *xsort.RowFile) (int64, int, error) {
	return indexDeletePartitioned(e, ix, []*xsort.RowFile{rows})
}
