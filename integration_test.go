package bulkdel

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestRandomizedEngineAgainstModel drives the whole engine — inserts,
// single-row deletes, bulk deletes with every method, bulk updates, and
// crash/recovery cycles — against an in-memory reference model, verifying
// full table contents and index consistency after every phase.
func TestRandomizedEngineAgainstModel(t *testing.T) {
	run := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, err := Open(Options{})
		if err != nil {
			t.Log(err)
			return false
		}
		tbl, err := db.CreateTable("R", 3, 64)
		if err != nil {
			t.Log(err)
			return false
		}
		if err := tbl.CreateIndex(IndexOptions{Name: "IA", Field: 0, Unique: true}); err != nil {
			t.Log(err)
			return false
		}
		if err := tbl.CreateIndex(IndexOptions{Name: "IB", Field: 1}); err != nil {
			t.Log(err)
			return false
		}

		// model: field0 -> [field0, field1, field2]
		model := map[int64][3]int64{}
		nextKey := int64(0)
		addRow := func() bool {
			k := nextKey
			nextKey++
			row := [3]int64{k, rng.Int63n(1 << 40), rng.Int63n(97)}
			if _, err := tbl.Insert(row[0], row[1], row[2]); err != nil {
				t.Logf("insert %d: %v", k, err)
				return false
			}
			model[k] = row
			return true
		}
		for i := 0; i < 800; i++ {
			if !addRow() {
				return false
			}
		}

		verify := func(tag string) bool {
			if err := tbl.Check(); err != nil {
				t.Logf("%s: %v", tag, err)
				return false
			}
			if tbl.Count() != int64(len(model)) {
				t.Logf("%s: count %d, model %d", tag, tbl.Count(), len(model))
				return false
			}
			seen := 0
			err := tbl.Scan(func(_ RID, fields []int64) error {
				want, ok := model[fields[0]]
				if !ok {
					t.Logf("%s: unexpected row %v", tag, fields)
					return errStopIntegration
				}
				if want[1] != fields[1] || want[2] != fields[2] {
					t.Logf("%s: row %d = %v, want %v", tag, fields[0], fields, want)
					return errStopIntegration
				}
				seen++
				return nil
			})
			if err != nil {
				return false
			}
			return seen == len(model)
		}

		methods := []Method{SortMerge, Hash, HashPartition, Auto}
		for phase := 0; phase < 6; phase++ {
			switch rng.Intn(5) {
			case 0: // burst of inserts
				for i := 0; i < 100+rng.Intn(200); i++ {
					if !addRow() {
						return false
					}
				}
			case 1: // single-row deletes via lookup
				for i := 0; i < 30 && len(model) > 0; i++ {
					for k := range model {
						rows, err := tbl.Lookup(0, k)
						if err != nil || len(rows) != 1 {
							t.Logf("lookup %d: %v %v", k, rows, err)
							return false
						}
						rids, err := heapOf(tbl).IndexOnField(0).Tree.Search(
							heapOf(tbl).IndexOnField(0).EncodeKey(k))
						if err != nil || len(rids) != 1 {
							t.Logf("rid lookup %d failed", k)
							return false
						}
						if err := tbl.DeleteRow(rids[0]); err != nil {
							t.Logf("delete row %d: %v", k, err)
							return false
						}
						delete(model, k)
						break
					}
				}
			case 2: // bulk delete of a random subset (plus absent keys)
				var vs []int64
				for k := range model {
					if rng.Intn(4) == 0 {
						vs = append(vs, k)
					}
					if len(vs) >= 300 {
						break
					}
				}
				vs = append(vs, nextKey+100, nextKey+101) // absent
				m := methods[rng.Intn(len(methods))]
				res, err := tbl.BulkDelete(0, vs, BulkOptions{
					Method: m, Memory: 64 << 10,
				})
				if err != nil {
					t.Logf("bulk delete (%v): %v", m, err)
					return false
				}
				want := int64(len(vs) - 2)
				if res.Deleted != want {
					t.Logf("bulk delete removed %d, want %d", res.Deleted, want)
					return false
				}
				for _, k := range vs[:len(vs)-2] {
					delete(model, k)
				}
			case 3: // bulk update of field1 for a random subset
				var vs []int64
				for k := range model {
					if rng.Intn(5) == 0 {
						vs = append(vs, k)
					}
					if len(vs) >= 200 {
						break
					}
				}
				res, err := tbl.BulkUpdate(0, vs, 1,
					func(v int64) int64 { return v + 1_000_000_000_000 }, BulkOptions{Memory: 64 << 10})
				if err != nil {
					t.Logf("bulk update: %v", err)
					return false
				}
				if res.Updated != int64(len(vs)) {
					t.Logf("bulk update touched %d, want %d", res.Updated, len(vs))
					return false
				}
				for _, k := range vs {
					row := model[k]
					row[1] += 1_000_000_000_000
					model[k] = row
				}
			case 4: // crash and recover
				if err := db.Flush(); err != nil {
					t.Log(err)
					return false
				}
				disk := db.SimulateCrash()
				db2, _, err := Recover(disk, Options{})
				if err != nil {
					t.Logf("recover: %v", err)
					return false
				}
				db = db2
				tbl = db.Table("R")
				if tbl == nil {
					t.Log("table lost in recovery")
					return false
				}
			}
			if !verify("phase") {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 4}
	if testing.Short() {
		cfg.MaxCount = 1
	}
	if err := quick.Check(run, cfg); err != nil {
		t.Fatal(err)
	}
}

var errStopIntegration = &integrationStop{}

type integrationStop struct{}

func (*integrationStop) Error() string { return "integration: stop scan" }
