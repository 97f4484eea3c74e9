package bulkdel

import (
	"encoding/binary"
	"encoding/json"
	"testing"

	"bulkdel/internal/lsm"
	"bulkdel/internal/sim"
)

// A catalog names each SSTable by file, device and page count only (the
// table's trailer says the rest), so an LSM table spread over 28 tables
// still commits in one page — one write per flush or compaction.
func TestLSMCatalogOf28TablesFitsOnePage(t *testing.T) {
	db, err := Open(Options{Devices: 3})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTableLSM("R", 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("H", 3, 64); err != nil {
		t.Fatal(err)
	}
	tbl.b = newLSMBackend(tbl, db.newLSMTree(64, lsm.Options{MemLimit: 8}))
	tables := func() int {
		n := 0
		for _, lvl := range tbl.LSMManifest().Levels {
			n += len(lvl)
		}
		return n
	}
	for i := int64(0); tables() < 28; i++ {
		if i == 20000 {
			t.Fatalf("%d inserts built only %d tables", i, tables())
		}
		if _, err := tbl.Insert((i*7919)%10007, i, i); err != nil {
			t.Fatal(err)
		}
	}
	_, blob, err := db.catalogBlob()
	if err != nil {
		t.Fatal(err)
	}
	if catalogPages(len(blob)) != 1 {
		t.Fatalf("catalog of %d tables is %d bytes, %d pages", tables(), len(blob), catalogPages(len(blob)))
	}
	if err := db.saveCatalog(); err != nil {
		t.Fatal(err)
	}
	if live := db.catSlots.live; live.cap != 1 {
		t.Fatalf("live catalog slot spans %d pages", live.cap)
	}
	t.Logf("%d tables: catalog blob %d bytes", tables(), len(blob))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// What the catalog leaves out comes back from the trailers.
	want := tbl.LSMManifest()
	db2, _, err := Recover(db.SimulateCrash(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(db2.Table("R").LSMManifest())
	if w, _ := json.Marshal(want); string(got) != string(w) {
		t.Fatalf("reopened manifest\n%s\nwant\n%s", got, w)
	}
}

// A save torn at any byte leaves its slot failing the CRC: the load falls
// back to the generation before it, and the next save goes to the torn
// slot's region, not over the one that survived.
func TestTornCatalogSaveFallsBack(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("A", 2, 16); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	before := db.catSlots
	disk := db.disk
	// I/O 1 writes B's heap header, I/O 2 is the catalog save.
	disk.SetFaultPlan(sim.NewFaultPlan().CrashAtIO(2).TearWrite(48))
	if _, err := db.CreateTable("B", 2, 16); !sim.IsCrash(err) {
		t.Fatalf("create under a crash plan: %v", err)
	}
	disk.SetFaultPlan(nil)
	torn := make([]byte, sim.PageSize)
	if err := disk.ReadPage(0, sim.PageNo(before.other.start), torn); err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint64(torn[catHdrMagic:]) != catMagic || binary.LittleEndian.Uint64(torn[catHdrGen:]) != before.gen+1 {
		t.Fatal("the crash did not tear the catalog save")
	}
	root, slots, err := loadCatalog(disk)
	if err != nil {
		t.Fatal(err)
	}
	if slots != before || len(root.Tables) != 1 || root.Tables[0].Name != "A" {
		t.Fatalf("loaded generation %d %+v with %d tables, want the save before the tear (%+v)", slots.gen, slots, len(root.Tables), before)
	}
	db2, _, err := Recover(disk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.CreateTable("C", 2, 16); err != nil {
		t.Fatal(err)
	}
	if db2.catSlots.live != before.other || db2.catSlots.gen != before.gen+1 {
		t.Fatalf("save after recovery went to %+v gen %d, want %+v gen %d", db2.catSlots.live, db2.catSlots.gen, before.other, before.gen+1)
	}
}

// FuzzCatalogLoad: whatever file 0 holds — raw pages, or an arbitrary blob
// in a slot whose CRC checks — loadCatalog returns a catalog or an error,
// never a panic.
func FuzzCatalogLoad(f *testing.F) {
	db, err := Open(Options{Devices: 2})
	if err != nil {
		f.Fatal(err)
	}
	tbl, err := db.CreateTableLSM("L", 2, 16)
	if err != nil {
		f.Fatal(err)
	}
	for i := int64(0); i < 300; i++ {
		if _, err := tbl.Insert(i, i); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := db.CreateTable("H", 2, 16); err != nil {
		f.Fatal(err)
	}
	_, blob, err := db.catalogBlob()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob, true)
	n, _ := db.disk.NumPages(0)
	file := make([]byte, 0, int(n)*sim.PageSize)
	for p := sim.PageNo(0); p < n; p++ {
		pg := make([]byte, sim.PageSize)
		if err := db.disk.ReadPage(0, p, pg); err != nil {
			f.Fatal(err)
		}
		file = append(file, pg...)
	}
	f.Add(file, false)
	f.Fuzz(func(t *testing.T, data []byte, framed bool) {
		if len(data) > 4*sim.PageSize {
			data = data[:4*sim.PageSize]
		}
		var pages [][]byte
		if framed {
			self := catalogRegion{cap: catalogPages(len(data))}
			pages = encodeSlot(data, 1, self, catalogRegion{})
		} else {
			for off := 0; off < len(data); off += sim.PageSize {
				pg := make([]byte, sim.PageSize)
				copy(pg, data[off:])
				pages = append(pages, pg)
			}
		}
		disk := sim.NewDisk(sim.DefaultCostModel())
		id := disk.CreateFile()
		for range pages {
			if _, err := disk.Allocate(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := disk.WriteRun(id, 0, pages); err != nil {
			t.Fatal(err)
		}
		root, _, err := loadCatalog(disk)
		if framed && err == nil && !json.Valid(data) {
			t.Fatalf("invalid JSON loaded as %+v", root)
		}
	})
}

// A CREATE TABLE is durable once it returns: the catalog save that commits
// it comes after the new heap's header page is on disk, so a crash right
// after it recovers an empty, usable table (it used to name a file that was
// not yet a heap: "heap: file 2 is not a heap file").
func TestCreateTableSurvivesCrash(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("A", 2, 16); err != nil {
		t.Fatal(err)
	}
	db2, _, err := Recover(db.SimulateCrash(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl := db2.Table("A")
	if tbl == nil || tbl.Count() != 0 {
		t.Fatalf("recovered table %v", tbl)
	}
	if _, err := tbl.Insert(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}

// A CREATE INDEX is durable once it returns: the table, the new tree with
// its meta page included, is on disk before the catalog save that names the
// tree, so a crash right after it recovers the index, and its entries name
// rows on disk whether or not they were flushed before (it used to name a
// file that was not yet an index: "btree: file 3 is not an index file").
func TestCreateIndexSurvivesCrash(t *testing.T) {
	for _, flushed := range []bool{true, false} {
		db, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable("A", 2, 16)
		if err != nil {
			t.Fatal(err)
		}
		for i := range int64(100) {
			if _, err := tbl.Insert(i, 2*i); err != nil {
				t.Fatal(err)
			}
		}
		if flushed {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := tbl.CreateIndex(IndexOptions{Name: "IA", Field: 0, Unique: true}); err != nil {
			t.Fatal(err)
		}
		db2, _, err := Recover(db.SimulateCrash(), Options{})
		if err != nil {
			t.Fatalf("flushed=%v: %v", flushed, err)
		}
		tbl = db2.Table("A")
		if tbl == nil || tbl.Count() != 100 || len(tbl.IndexNames()) != 1 {
			t.Fatalf("flushed=%v: recovered table %v", flushed, tbl)
		}
		if err := tbl.Check(); err != nil {
			t.Fatalf("flushed=%v: %v", flushed, err)
		}
	}
}
