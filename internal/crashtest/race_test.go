//go:build race

package crashtest

func init() { lsmTornGrowStride = 5 }
