package bulkdel

import (
	"errors"
	"testing"
)

// fkFixture: orders (parent) ← lines (child, FK on field 0), and a
// grandchild notes referencing lines' field 1.
func fkFixture(t *testing.T, action RefAction) (*DB, *Table, *Table) {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	orders, err := db.CreateTable("orders", 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := orders.CreateIndex(IndexOptions{Name: "id", Field: 0, Unique: true}); err != nil {
		t.Fatal(err)
	}
	lines, err := db.CreateTable("lines", 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := lines.CreateIndex(IndexOptions{Name: "order", Field: 0}); err != nil {
		t.Fatal(err)
	}
	if err := lines.CreateIndex(IndexOptions{Name: "lineid", Field: 1, Unique: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := orders.Insert(int64(i), int64(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	// 3 lines per order for the first 300 orders.
	lineID := int64(0)
	for o := 0; o < 300; o++ {
		for l := 0; l < 3; l++ {
			if _, err := lines.Insert(int64(o), lineID, int64(l)); err != nil {
				t.Fatal(err)
			}
			lineID++
		}
	}
	if err := db.AddForeignKey(lines, 0, orders, 0, action); err != nil {
		t.Fatal(err)
	}
	return db, orders, lines
}

func TestForeignKeyRestrictBlocks(t *testing.T) {
	_, orders, lines := fkFixture(t, Restrict)
	before := orders.Count()
	_, err := orders.BulkDelete(0, []int64{5, 450}, BulkOptions{})
	var restricted *ErrRestricted
	if !errors.As(err, &restricted) {
		t.Fatalf("expected ErrRestricted, got %v", err)
	}
	if restricted.Child != "lines" {
		t.Fatalf("restricted by %q", restricted.Child)
	}
	// Nothing was touched — "no work needs to be undone".
	if orders.Count() != before {
		t.Fatalf("count changed to %d", orders.Count())
	}
	if err := orders.Check(); err != nil {
		t.Fatal(err)
	}
	if err := lines.Check(); err != nil {
		t.Fatal(err)
	}
	// Victims without children delete fine.
	res, err := orders.BulkDelete(0, []int64{450, 460}, BulkOptions{})
	if err != nil || res.Deleted != 2 {
		t.Fatalf("unreferenced delete: %v %v", res, err)
	}
}

func TestForeignKeyCascade(t *testing.T) {
	_, orders, lines := fkFixture(t, Cascade)
	res, err := orders.BulkDelete(0, []int64{1, 2, 400}, BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 3 {
		t.Fatalf("deleted %d orders", res.Deleted)
	}
	if res.Cascaded != 6 { // orders 1 and 2 have 3 lines each; 400 none
		t.Fatalf("cascaded %d, want 6", res.Cascaded)
	}
	if lines.Count() != 900-6 {
		t.Fatalf("lines count %d", lines.Count())
	}
	for _, o := range []int64{1, 2} {
		if rows, _ := lines.Lookup(0, o); len(rows) != 0 {
			t.Fatalf("lines of order %d survived", o)
		}
	}
	if err := orders.Check(); err != nil {
		t.Fatal(err)
	}
	if err := lines.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestForeignKeyMultiLevelCascade(t *testing.T) {
	db, orders, lines := fkFixture(t, Cascade)
	notes, err := db.CreateTable("notes", 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := notes.CreateIndex(IndexOptions{Name: "line", Field: 0}); err != nil {
		t.Fatal(err)
	}
	// Two notes per line id for the first 100 lines.
	for l := 0; l < 100; l++ {
		for k := 0; k < 2; k++ {
			if _, err := notes.Insert(int64(l), int64(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// notes.field0 references lines.field1 (the unique line id).
	if err := db.AddForeignKey(notes, 0, lines, 1, Cascade); err != nil {
		t.Fatal(err)
	}
	// Deleting order 0 cascades into its 3 lines (ids 0,1,2), each of
	// which cascades into 2 notes.
	res, err := orders.BulkDelete(0, []int64{0}, BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 1 || res.Cascaded != 3+6 {
		t.Fatalf("deleted=%d cascaded=%d, want 1/9", res.Deleted, res.Cascaded)
	}
	if notes.Count() != 200-6 {
		t.Fatalf("notes count %d", notes.Count())
	}
	for _, tblx := range []*Table{orders, lines, notes} {
		if err := tblx.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestForeignKeyValidation(t *testing.T) {
	db, orders, lines := fkFixture(t, Restrict)
	if err := db.AddForeignKey(nil, 0, orders, 0, Restrict); err == nil {
		t.Fatal("nil child accepted")
	}
	if err := db.AddForeignKey(lines, 9, orders, 0, Restrict); err == nil {
		t.Fatal("bad child field accepted")
	}
	if err := db.AddForeignKey(lines, 0, orders, 9, Restrict); err == nil {
		t.Fatal("bad parent field accepted")
	}
	if err := db.AddForeignKey(lines, 2, orders, 0, Restrict); err == nil {
		t.Fatal("unindexed child field accepted")
	}
	if len(db.ForeignKeys()) != 1 {
		t.Fatalf("fk count %d", len(db.ForeignKeys()))
	}
	// Deleting the parent by a different field than the referenced one
	// projects the doomed rows' referenced keys first: many of the
	// orders with field1 == 3 have lines, so RESTRICT still fires and
	// nothing is modified.
	before := orders.Count()
	_, err := orders.BulkDelete(1, []int64{3}, BulkOptions{})
	var restricted *ErrRestricted
	if !errors.As(err, &restricted) {
		t.Fatalf("indirect restrict not enforced: %v", err)
	}
	if orders.Count() != before {
		t.Fatal("restricted delete modified the table")
	}
}

func TestForeignKeyIndirectCascade(t *testing.T) {
	// Cascade driven by a delete on a *different* parent attribute: the
	// doomed orders' ids are projected read-only, then the lines cascade.
	db, orders, lines := fkFixture(t, Cascade)
	_ = db
	// Delete all orders with field1 == 2: ids 2, 9, 16, ... Every such
	// id below 300 has 3 lines.
	res, err := orders.BulkDelete(1, []int64{2}, BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantOrders := int64(0)
	wantLines := int64(0)
	for i := 0; i < 500; i++ {
		if i%7 == 2 {
			wantOrders++
			if i < 300 {
				wantLines += 3
			}
		}
	}
	if res.Deleted != wantOrders || res.Cascaded != wantLines {
		t.Fatalf("deleted=%d cascaded=%d, want %d/%d", res.Deleted, res.Cascaded, wantOrders, wantLines)
	}
	if err := orders.Check(); err != nil {
		t.Fatal(err)
	}
	if err := lines.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestForeignKeySurvivesRecovery(t *testing.T) {
	db, orders, _ := fkFixture(t, Restrict)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	disk := db.SimulateCrash()
	db2, _, err := Recover(disk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(db2.ForeignKeys()) != 1 {
		t.Fatalf("fk lost in recovery: %d", len(db2.ForeignKeys()))
	}
	orders2 := db2.Table("orders")
	_ = orders
	_, err = orders2.BulkDelete(0, []int64{5}, BulkOptions{})
	var restricted *ErrRestricted
	if !errors.As(err, &restricted) {
		t.Fatalf("restrict not enforced after recovery: %v", err)
	}
}

func TestRefActionString(t *testing.T) {
	if Restrict.String() != "restrict" || Cascade.String() != "cascade" {
		t.Fatal("RefAction strings")
	}
}

// TestForeignKeyDiamondCascade cascades into the same grandchild from two
// branches: P → A → C and P → B → C. The second visit to C must still hold
// C's exclusive lock (cascade children are kept locked until the statement's
// ReleaseAll — an early release after the first visit would let another
// statement take C while this one mutates it again), and the revisit must
// be a clean no-op for the already-deleted rows.
func TestForeignKeyDiamondCascade(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, fields int, indexed ...IndexOptions) *Table {
		tbl, err := db.CreateTable(name, fields, 48)
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range indexed {
			if err := tbl.CreateIndex(ix); err != nil {
				t.Fatal(err)
			}
		}
		return tbl
	}
	p := mk("P", 1, IndexOptions{Name: "id", Field: 0, Unique: true})
	a := mk("A", 2, IndexOptions{Name: "id", Field: 0, Unique: true}, IndexOptions{Name: "pref", Field: 1})
	b := mk("B", 2, IndexOptions{Name: "id", Field: 0, Unique: true}, IndexOptions{Name: "pref", Field: 1})
	c := mk("C", 3, IndexOptions{Name: "aref", Field: 1}, IndexOptions{Name: "bref", Field: 2})
	for i := int64(0); i < 10; i++ {
		if _, err := p.Insert(i); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Insert(100+i, i); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Insert(200+i, i); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Insert(300+i, 100+i, 200+i); err != nil {
			t.Fatal(err)
		}
	}
	for _, fk := range []struct {
		child  *Table
		cf     int
		parent *Table
	}{
		{a, 1, p}, {b, 1, p}, {c, 1, a}, {c, 2, b},
	} {
		if err := db.AddForeignKey(fk.child, fk.cf, fk.parent, 0, Cascade); err != nil {
			t.Fatal(err)
		}
	}

	res, err := p.BulkDelete(0, []int64{0, 1, 2}, BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 3 A rows + 3 C rows (via A) + 3 B rows + 0 C rows (via B: already
	// deleted by the first branch).
	if res.Deleted != 3 || res.Cascaded != 9 {
		t.Fatalf("deleted=%d cascaded=%d, want 3/9", res.Deleted, res.Cascaded)
	}
	for tbl, want := range map[*Table]int64{p: 7, a: 7, b: 7, c: 7} {
		if err := tbl.Check(); err != nil {
			t.Fatalf("%s: %v", tbl.Name(), err)
		}
		if got := tbl.Count(); got != want {
			t.Fatalf("%s has %d rows, want %d", tbl.Name(), got, want)
		}
	}
}

// TestForeignKeyRejectsLSMTables: an LSM delete writes tombstones without
// enumerating its victims, so the vertical RESTRICT/CASCADE phase has
// nothing to probe — a foreign key with an LSM table on either side used to
// be accepted and then silently not enforced (deleting parent rows left the
// child rows dangling). It is now refused at registration, and nothing
// reaches the FK list or the catalog.
func TestForeignKeyRejectsLSMTables(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	parent, err := db.CreateTableLSM("orders", 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	child, err := db.CreateTable("lines", 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := child.CreateIndex(IndexOptions{Name: "order", Field: 0}); err != nil {
		t.Fatal(err)
	}
	for o := 0; o < 10; o++ {
		if _, err := parent.Insert(int64(o), int64(o)); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < 5; l++ {
			if _, err := child.Insert(int64(o), int64(l)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, action := range []RefAction{Restrict, Cascade} {
		if err := db.AddForeignKey(child, 0, parent, 0, action); err == nil {
			t.Fatalf("%v foreign key with an LSM parent accepted", action)
		}
		if err := db.AddForeignKey(parent, 0, child, 0, action); err == nil {
			t.Fatalf("%v foreign key with an LSM child accepted", action)
		}
	}
	if fks := db.ForeignKeys(); len(fks) != 0 {
		t.Fatalf("rejected foreign keys were registered: %+v", fks)
	}
	// Not in the catalog either: the recovered database has none, and the
	// unconstrained parent delete leaves the child alone.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	rdb, _, err := Recover(db.SimulateCrash(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fks := rdb.ForeignKeys(); len(fks) != 0 {
		t.Fatalf("recovered catalog carries foreign keys: %+v", fks)
	}
	if _, err := rdb.Table("orders").BulkDelete(0, []int64{1, 2, 3}, BulkOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := rdb.Table("lines").Count(); got != 50 {
		t.Fatalf("child has %d rows, want 50", got)
	}
}
