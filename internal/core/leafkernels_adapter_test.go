package core

import "bulkdel/internal/record"

// The entry points TestLeafKernels drives. This file is the only part of
// the test that names production functions, so the table, the checks and the
// recorded numbers in leafkernels_test.go / testdata/leaf_kernels.golden stay
// byte-identical across a kernel rewrite. At the commit the numbers were
// recorded on, the first three were mergeDeleteIndexByKey,
// mergeDeleteIndexByFullKey and indexDeleteByRIDProbe; the last two, the
// probe arm, came later and their lines were appended.

func kernelMergeByKey(e *execCtx, ix *IndexRef, victims rowIter, del bool,
	emit func(record.RID) error, startKey []byte) (int64, error) {
	return walkLeaves(e, ix, startKey, nil, e.mergeByKey(ix, victims), del, emit)
}

func kernelMergeByFullKey(e *execCtx, ix *IndexRef, rows rowIter, startKey []byte) (int64, error) {
	return walkLeaves(e, ix, startKey, nil, e.mergeByFullKey(ix, rows), true, nil)
}

func kernelProbeByRID(e *execCtx, ix *IndexRef, set map[record.RID]struct{}) (int64, error) {
	return walkLeaves(e, ix, nil, nil, &probeMatcher{e: e, ix: ix, rids: set}, true, nil)
}

func kernelProbePartitioned(e *execCtx, ix *IndexRef, rows *rowFile) (int64, int, error) {
	return indexDeletePartitioned(e, ix, []*rowFile{rows})
}

func kernelProbesByKey(e *execCtx, ix *IndexRef, victims rowIter, del bool,
	emit func(record.RID) error) (int64, error) {
	return probeIndex(e, ix, victims, true, del, emit)
}

func kernelProbesByFullKey(e *execCtx, ix *IndexRef, rows rowIter) (int64, error) {
	return probeIndex(e, ix, rows, false, true, nil)
}
