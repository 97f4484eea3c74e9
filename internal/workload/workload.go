// Package workload generates the paper's synthetic benchmark database.
//
// The evaluation database (paper §4.1) is one table R with eleven
// attributes A, B, ..., K: initially 1,000,000 tuples of 512 bytes, the
// first ten attributes random integers, the last a garbage string for
// padding. Every attribute is duplicate-free ("because Jannink's B⁺-tree
// implementation does not support duplicates") — generated here as
// independent pseudo-random permutations. The victim table D holds the
// A-values of the records to delete: a random sample sized to the delete
// fraction (1%–20% across the experiments).
//
// All generation is deterministic in the seed, so every experiment is
// exactly reproducible.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"bulkdel/internal/buffer"
	"bulkdel/internal/heap"
	"bulkdel/internal/record"
	"bulkdel/internal/table"
)

// Spec describes a benchmark database.
type Spec struct {
	// Rows is the table size (paper: 1,000,000).
	Rows int
	// Fields is the number of integer attributes (paper: 10).
	Fields int
	// TupleSize pads each record to this many bytes (paper: 512).
	TupleSize int
	// Indexes to create, in order. Index 0 is conventionally I_A over
	// attribute 0, the access path of the benchmark DELETE statement.
	Indexes []table.IndexDef
	// ClusterField, when >= 0, loads the table sorted by that attribute
	// so an index over it is clustered (Experiment 5).
	ClusterField int
	// Seed drives all pseudo-randomness.
	Seed int64
}

// DefaultSpec returns the paper's standard configuration with one
// unclustered index on attribute A.
func DefaultSpec(rows int) Spec {
	return Spec{
		Rows:         rows,
		Fields:       10,
		TupleSize:    512,
		ClusterField: -1,
		Seed:         1,
		Indexes: []table.IndexDef{
			{Name: "IA", Field: 0},
		},
	}
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Rows < 1 {
		return fmt.Errorf("workload: need at least one row")
	}
	if s.Fields < 1 {
		return fmt.Errorf("workload: need at least one field")
	}
	if s.TupleSize < s.Fields*8 {
		return fmt.Errorf("workload: tuple size %d cannot hold %d fields", s.TupleSize, s.Fields)
	}
	if s.ClusterField >= s.Fields {
		return fmt.Errorf("workload: cluster field %d out of range", s.ClusterField)
	}
	for _, def := range s.Indexes {
		if def.Field < 0 || def.Field >= s.Fields {
			return fmt.Errorf("workload: index %s field %d out of range", def.Name, def.Field)
		}
	}
	return nil
}

// permutation returns a duplicate-free pseudo-random sequence of n values.
func permutation(rng *rand.Rand, n int) []int64 {
	p := rng.Perm(n)
	out := make([]int64, n)
	for i, v := range p {
		out[i] = int64(v)
	}
	return out
}

// Generate produces the spec's attribute matrix (row-major) without
// loading a table, so the same logical dataset can be poured into any
// storage backend. Deterministic in the seed.
func Generate(s Spec) ([][]int64, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	cols := make([][]int64, s.Fields)
	for f := range cols {
		cols[f] = permutation(rng, s.Rows)
	}
	rows := make([][]int64, s.Rows)
	for i := range rows {
		vals := make([]int64, s.Fields)
		for f := 0; f < s.Fields; f++ {
			vals[f] = cols[f][i]
		}
		rows[i] = vals
	}
	return rows, nil
}

// Build creates and loads the benchmark table. The returned rows matrix
// holds the generated attribute values (row-major), which experiments use
// to draw victim samples.
func Build(pool *buffer.Pool, s Spec) (*table.Table, [][]int64, error) {
	rows, err := Generate(s)
	if err != nil {
		return nil, nil, err
	}
	order := make([]int, s.Rows)
	for i := range order {
		order[i] = i
	}
	if s.ClusterField >= 0 {
		cf := s.ClusterField
		sort.Slice(order, func(a, b int) bool { return rows[order[a]][cf] < rows[order[b]][cf] })
	}

	schema := record.Schema{NumFields: s.Fields, Size: s.TupleSize}
	tbl, err := table.Create(pool, "R", schema, heap.PartitionSpec{})
	if err != nil {
		return nil, nil, err
	}
	rec := make([]byte, s.TupleSize)
	for _, i := range order {
		if err := schema.EncodeInto(rec, rows[i]); err != nil {
			return nil, nil, err
		}
		if _, err := tbl.Heap.Insert(rec); err != nil {
			return nil, nil, err
		}
	}
	for _, def := range s.Indexes {
		if s.ClusterField >= 0 && def.Field == s.ClusterField {
			def.Clustered = true
		}
		if _, err := tbl.CreateIndex(def); err != nil {
			return nil, nil, err
		}
	}
	return tbl, rows, nil
}

// VictimSample draws a duplicate-free sample of attribute-`field` values
// covering `fraction` of the rows — the paper's table D. Deterministic in
// the seed.
func VictimSample(rows [][]int64, field int, fraction float64, seed int64) []int64 {
	n := len(rows)
	k := int(float64(n)*fraction + 0.5)
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	out := make([]int64, k)
	for i := 0; i < k; i++ {
		out[i] = rows[perm[i]][field]
	}
	return out
}
