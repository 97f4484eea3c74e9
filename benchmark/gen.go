package main

import (
	"math/rand"
	"strconv"
)

// opKind is the statement kind a latency sample is filed under.
type opKind uint8

const (
	opPoint opKind = iota
	opInsert
	opRange
	opDelete
	numKinds
)

var kindNames = [numKinds]string{"point", "insert", "range", "delete"}

// fgKinds are the foreground statement kinds: everything but deletes.
var fgKinds = []opKind{opPoint, opInsert, opRange}

// op is one generated statement: its SQL text for the wire, session and
// parse depths, the fields the root-API depth needs to issue the equivalent
// bulkdel.Table call, and what the shadow model says it must return. The
// program under test sees only sql (or the API call); want never leaves the
// harness.
type op struct {
	kind opKind
	sql  string
	// a is the key of a point read or insert; [a, hi] the closed range of
	// a range read or range delete.
	a, hi int64
	// victims is the IN-list of a delete issued as BulkDelete(0, victims).
	victims []int64
	// rangeDel marks a delete that the API depth issues as DeleteRange.
	rangeDel bool
	// want is the number of rows a read must return or a delete must report
	// as affected; -1 when the engine does not report a count (an LSM range
	// tombstone is blind).
	want int64
	// purge marks a mixed_heap delete that the foreground hands to the purge
	// connection, which first sends SET concurrent = on or off.
	purge      bool
	concurrent bool
}

// generator is a workload's seeded statement stream and its shadow model.
// Every method is deterministic in the seed and the calls made so far.
type generator interface {
	// ddl returns the CREATE TABLE statement and, for heap tables, the
	// CREATE INDEX statements to run once the rows are loaded.
	ddl() (table string, indexes []string)
	// preload emits the initial rows in load order.
	preload(emit func(row [3]int64) error) error
	// round returns the next round of statements and advances the model as
	// if each had run, in order.
	round() []op
	// live is the model's row count.
	live() int64
	// probe returns n keys the model holds and n it does not.
	probe(n int) (present, absent []int64)
	// fresh returns n keys the model has never held and records them as
	// inserted; the caller must insert them.
	fresh(n int) []int64
}

// mix64 is the splitmix64 finalizer: the non-key attributes of a row are
// pseudo-random functions of its key, so the model needs to remember keys
// only and every attribute stays (nearly) duplicate-free like the paper's.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rowOf returns the full row for a key.
func rowOf(a int64) [3]int64 {
	return [3]int64{a, int64(mix64(uint64(a)) >> 24), int64(mix64(uint64(a)^0x9e3779b97f4a7c15) >> 24)}
}

// stmts renders the statements of one table.
type stmts struct {
	table, key string
}

func (s stmts) point(a int64) string {
	b := make([]byte, 0, 48)
	b = append(b, "SELECT * FROM "...)
	b = append(b, s.table...)
	b = append(b, " WHERE "...)
	b = append(b, s.key...)
	b = append(b, " = "...)
	return string(strconv.AppendInt(b, a, 10))
}

func (s stmts) insert(a int64) string {
	r := rowOf(a)
	b := make([]byte, 0, 80)
	b = append(b, "INSERT INTO "...)
	b = append(b, s.table...)
	b = append(b, " VALUES ("...)
	b = strconv.AppendInt(b, r[0], 10)
	b = append(b, ", "...)
	b = strconv.AppendInt(b, r[1], 10)
	b = append(b, ", "...)
	b = strconv.AppendInt(b, r[2], 10)
	return string(append(b, ')'))
}

func (s stmts) between(verb string, lo, hi int64) string {
	b := make([]byte, 0, 80)
	b = append(b, verb...)
	b = append(b, s.table...)
	b = append(b, " WHERE "...)
	b = append(b, s.key...)
	b = append(b, " BETWEEN "...)
	b = strconv.AppendInt(b, lo, 10)
	b = append(b, " AND "...)
	return string(strconv.AppendInt(b, hi, 10))
}

func (s stmts) rangeRead(lo, hi int64) string { return s.between("SELECT * FROM ", lo, hi) }
func (s stmts) rangeDel(lo, hi int64) string  { return s.between("DELETE FROM ", lo, hi) }

func (s stmts) deleteIn(keys []int64) string {
	b := make([]byte, 0, 32+12*len(keys))
	b = append(b, "DELETE FROM "...)
	b = append(b, s.table...)
	b = append(b, " WHERE "...)
	b = append(b, s.key...)
	b = append(b, " IN ("...)
	for i, k := range keys {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = strconv.AppendInt(b, k, 10)
	}
	return string(append(b, ')'))
}

var heapStmts = stmts{table: "r", key: "a"}

func heapDDL(recSize int) (string, []string) {
	return "CREATE TABLE r (a, b, c) RECORD SIZE " + strconv.Itoa(recSize), []string{
		"CREATE UNIQUE INDEX ia ON r (a)",
		"CREATE INDEX ib ON r (b)",
		"CREATE INDEX ic ON r (c)",
	}
}

// keySet is the shadow model of a heap table: the live keys, samplable
// uniformly and removable in O(1).
type keySet struct {
	keys []int64
	pos  map[int64]int32
}

func newKeySet(n int) *keySet {
	return &keySet{keys: make([]int64, 0, n), pos: make(map[int64]int32, n)}
}

func (s *keySet) has(k int64) bool { _, ok := s.pos[k]; return ok }

func (s *keySet) add(k int64) {
	s.pos[k] = int32(len(s.keys))
	s.keys = append(s.keys, k)
}

func (s *keySet) remove(k int64) {
	i := s.pos[k]
	last := s.keys[len(s.keys)-1]
	s.keys[i] = last
	s.pos[last] = i
	s.keys = s.keys[:len(s.keys)-1]
	delete(s.pos, k)
}

func (s *keySet) any(rng *rand.Rand) int64 { return s.keys[rng.Intn(len(s.keys))] }

// countIn counts live keys among lo, lo+step, ..., <= hi.
func (s *keySet) countIn(lo, hi, step int64) int64 {
	var n int64
	for k := lo; k <= hi; k += step {
		if s.has(k) {
			n++
		}
	}
	return n
}

// kindSequence returns a shuffled sequence holding counts[k] ops of kind k.
func kindSequence(rng *rand.Rand, counts [numKinds]int) []opKind {
	var seq []opKind
	for k, n := range counts {
		for i := 0; i < n; i++ {
			seq = append(seq, opKind(k))
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// ---------------------------------------------------------------- oltp_heap

// oltpGen: keys 4i are preloaded in random order, fresh inserts land on
// 4u+2 (random positions between them), odd keys never exist.
type oltpGen struct {
	rng     *rand.Rand
	w       *workload
	set     *keySet
	n       int64
	perKind [numKinds]int
}

func newOLTPGen(w *workload, seed int64) *oltpGen {
	per := w.perRound
	g := &oltpGen{rng: rand.New(rand.NewSource(seed)), w: w, n: int64(w.rows), set: newKeySet(w.rows)}
	g.perKind[opPoint] = per * 60 / 100
	g.perKind[opInsert] = per * 25 / 100
	g.perKind[opRange] = per - g.perKind[opPoint] - g.perKind[opInsert]
	return g
}

func (g *oltpGen) ddl() (string, []string) { return heapDDL(g.w.recSize) }

func (g *oltpGen) preload(emit func([3]int64) error) error {
	for _, i := range g.rng.Perm(int(g.n)) {
		k := int64(i) * 4
		g.set.add(k)
		if err := emit(rowOf(k)); err != nil {
			return err
		}
	}
	return nil
}

func (g *oltpGen) freshKey() int64 {
	for {
		k := g.rng.Int63n(4*g.n)*4 + 2
		if !g.set.has(k) {
			g.set.add(k)
			return k
		}
	}
}

func (g *oltpGen) absentKey() int64 { return g.rng.Int63n(16*g.n)*2 + 1 }

// oltpRangeWidth makes a range read return about twenty rows at the
// preloaded key spacing of four.
const oltpRangeWidth = 80

func (g *oltpGen) round() []op {
	ops := make([]op, 0, g.w.perRound+1)
	for _, kind := range kindSequence(g.rng, g.perKind) {
		switch kind {
		case opPoint:
			k, want := g.set.any(g.rng), int64(1)
			if g.rng.Intn(20) == 0 {
				k, want = g.absentKey(), 0
			}
			ops = append(ops, op{kind: opPoint, sql: heapStmts.point(k), a: k, want: want})
		case opInsert:
			k := g.freshKey()
			ops = append(ops, op{kind: opInsert, sql: heapStmts.insert(k), a: k, want: 1})
		case opRange:
			lo := g.rng.Int63n(g.n) * 4
			hi := lo + oltpRangeWidth - 1
			ops = append(ops, op{kind: opRange, sql: heapStmts.rangeRead(lo, hi), a: lo, hi: hi,
				want: g.set.countIn(lo, hi, 2)})
		}
	}
	// One small DELETE closes the round — the bulk operator near its
	// smallest input — so the delete metrics are defined on this workload
	// too. Its index passes read the leaves up to the last victim's, so a
	// handful of uniform victims costs nearly a full pass every time; one
	// victim would cost anything from nothing to a full pass.
	victims := make([]int64, g.w.victims)
	for i := range victims {
		victims[i] = g.set.any(g.rng)
		g.set.remove(victims[i])
	}
	return append(ops, op{kind: opDelete, sql: heapStmts.deleteIn(victims), victims: victims, want: int64(len(victims))})
}

func (g *oltpGen) live() int64 { return int64(len(g.set.keys)) }

func (g *oltpGen) probe(n int) (present, absent []int64) {
	for i := 0; i < n; i++ {
		present = append(present, g.set.any(g.rng))
		absent = append(absent, g.absentKey())
	}
	return present, absent
}

func (g *oltpGen) fresh(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = g.freshKey()
	}
	return out
}

// ---------------------------------------------------------------- bulk_heap

// bulkGen: keys 2i are preloaded in random order; each round deletes a
// uniform sample of the live keys, probes victims and survivors, and
// refills with as many fresh keys drawn from a key space eight times wider.
type bulkGen struct {
	rng *rand.Rand
	w   *workload
	set *keySet
	n   int64
}

func newBulkGen(w *workload, seed int64) *bulkGen {
	return &bulkGen{rng: rand.New(rand.NewSource(seed)), w: w, n: int64(w.rows), set: newKeySet(w.rows * 2)}
}

func (g *bulkGen) ddl() (string, []string) { return heapDDL(g.w.recSize) }

func (g *bulkGen) preload(emit func([3]int64) error) error {
	for _, i := range g.rng.Perm(int(g.n)) {
		k := int64(i) * 2
		g.set.add(k)
		if err := emit(rowOf(k)); err != nil {
			return err
		}
	}
	return nil
}

func (g *bulkGen) freshKey() int64 {
	for {
		k := (g.n + g.rng.Int63n(7*g.n)) * 2
		if !g.set.has(k) {
			g.set.add(k)
			return k
		}
	}
}

// bulkRangeWidth returns twenty rows from the untouched preloaded keys.
const bulkRangeWidth = 40

func (g *bulkGen) round() []op {
	nv := g.w.victims
	ops := make([]op, 0, 1+g.w.perRound+nv)

	victims := make([]int64, nv)
	for i := range victims {
		k := g.set.any(g.rng)
		g.set.remove(k)
		victims[i] = k
	}
	ops = append(ops, op{kind: opDelete, victims: victims, want: int64(nv)})

	// Probes: half the point reads on victims (must be gone), half on
	// survivors, and the short ranges, in random order.
	var counts [numKinds]int
	counts[opRange] = g.w.perRound / 11
	counts[opPoint] = g.w.perRound - counts[opRange]
	nthPoint := 0
	for _, kind := range kindSequence(g.rng, counts) {
		if kind == opRange {
			lo := g.rng.Int63n(g.n) * 2
			hi := lo + bulkRangeWidth - 1
			ops = append(ops, op{kind: opRange, a: lo, hi: hi, want: g.set.countIn(lo, hi, 2)})
			continue
		}
		k, want := g.set.any(g.rng), int64(1)
		if nthPoint%2 == 0 {
			k, want = victims[g.rng.Intn(nv)], 0
		}
		nthPoint++
		ops = append(ops, op{kind: opPoint, a: k, want: want})
	}

	for i := 0; i < nv; i++ {
		ops = append(ops, op{kind: opInsert, a: g.freshKey(), want: 1})
	}
	return ops
}

func (g *bulkGen) live() int64 { return int64(len(g.set.keys)) }

func (g *bulkGen) probe(n int) (present, absent []int64) {
	for i := 0; i < n; i++ {
		present = append(present, g.set.any(g.rng))
		absent = append(absent, g.rng.Int63n(16*g.n)*2+1)
	}
	return present, absent
}

func (g *bulkGen) fresh(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = g.freshKey()
	}
	return out
}

// --------------------------------------------------------------- mixed_heap

// mixedGen: keys grow monotonically. The foreground reads the live window
// and inserts at its head; every w.victims inserts it hands the purge
// connection a range DELETE of the oldest w.victims keys. From that point
// on it reads only above that range, so every expected result is fixed by
// the stream alone, whatever the interleaving of the two connections.
type mixedGen struct {
	rng *rand.Rand
	w   *workload
	// [tail, head) is the window the foreground may read; keys below gone
	// were purged by a delete the foreground has already waited for.
	head, tail, gone int64
	sincePurge       int
	purges           int
	extra            int64 // keys handed out by fresh above the window
	perKind          [numKinds]int
}

func newMixedGen(w *workload, seed int64) *mixedGen {
	g := &mixedGen{rng: rand.New(rand.NewSource(seed)), w: w, head: int64(w.rows)}
	g.perKind[opPoint] = w.perRound * 50 / 100
	g.perKind[opInsert] = w.perRound * 40 / 100
	g.perKind[opRange] = w.perRound - g.perKind[opPoint] - g.perKind[opInsert]
	return g
}

func (g *mixedGen) ddl() (string, []string) { return heapDDL(g.w.recSize) }

func (g *mixedGen) preload(emit func([3]int64) error) error {
	for k := int64(0); k < g.head; k++ {
		if err := emit(rowOf(k)); err != nil {
			return err
		}
	}
	return nil
}

// mixedFreshBase keeps probe inserts clear of the keys the stream will use.
const mixedFreshBase = 1 << 40

func (g *mixedGen) absentKey() int64 {
	if g.gone > 0 && g.rng.Intn(2) == 0 {
		return g.rng.Int63n(g.gone)
	}
	return mixedFreshBase/2 + g.rng.Int63n(1<<20)
}

const mixedRangeWidth = 20

func (g *mixedGen) round() []op {
	ops := make([]op, 0, g.w.perRound+2)
	for _, kind := range kindSequence(g.rng, g.perKind) {
		switch kind {
		case opPoint:
			k, want := g.tail+g.rng.Int63n(g.head-g.tail), int64(1)
			if g.rng.Intn(20) == 0 {
				k, want = g.absentKey(), 0
			}
			ops = append(ops, op{kind: opPoint, sql: heapStmts.point(k), a: k, want: want})
		case opRange:
			lo := g.tail + g.rng.Int63n(g.head-g.tail-mixedRangeWidth)
			hi := lo + mixedRangeWidth - 1
			ops = append(ops, op{kind: opRange, sql: heapStmts.rangeRead(lo, hi), a: lo, hi: hi, want: mixedRangeWidth})
		case opInsert:
			k := g.head
			g.head++
			ops = append(ops, op{kind: opInsert, sql: heapStmts.insert(k), a: k, want: 1})
			if g.sincePurge++; g.sincePurge == g.w.victims {
				g.sincePurge = 0
				lo, hi := g.tail, g.tail+int64(g.w.victims)-1
				concurrent := g.purges%2 == 0
				g.purges++
				// The foreground waits for the previous purge before it
				// hands over this one, so everything below lo is gone.
				g.gone, g.tail = lo, hi+1
				ops = append(ops, op{kind: opDelete, sql: heapStmts.rangeDel(lo, hi), a: lo, hi: hi,
					rangeDel: true, want: int64(g.w.victims), purge: true, concurrent: concurrent})
			}
		}
	}
	return ops
}

func (g *mixedGen) live() int64 { return g.head - g.tail + g.extra }

func (g *mixedGen) probe(n int) (present, absent []int64) {
	for i := 0; i < n; i++ {
		present = append(present, g.tail+g.rng.Int63n(g.head-g.tail))
		absent = append(absent, g.absentKey())
	}
	return present, absent
}

func (g *mixedGen) fresh(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = mixedFreshBase + g.extra
		g.extra++
	}
	return out
}

// --------------------------------------------------------------- lsm_tenant

const (
	tenantShift = 20
	tenantSpan  = 1 << tenantShift
	// lsmRangeWidth is a twentieth of a tenant's key space.
	lsmRangeWidth = tenantSpan / 20
	lsmTenants    = 100
)

var lsmStmts = stmts{table: "t", key: "k"}

type tenant struct {
	id    int64
	items []int64
	has   map[int64]struct{}
}

func (t *tenant) key(item int64) int64 { return t.id<<tenantShift + item }

// lsmGen: key = tenant<<20 + item with random items, so inserts arrive in
// random key order. Each round ends by dropping the oldest tenant with one
// range DELETE and starting a new, empty one.
type lsmGen struct {
	rng     *rand.Rand
	w       *workload
	tenants []*tenant // live, oldest first
	nextID  int64
	rows    int64
	perKind [numKinds]int
	dead    int // of perKind[opPoint], reads in dropped tenants
}

func newLSMGen(w *workload, seed int64) *lsmGen {
	g := &lsmGen{rng: rand.New(rand.NewSource(seed)), w: w, nextID: 1}
	g.perKind[opInsert] = w.perRound
	g.perKind[opPoint] = 10
	g.dead = 2
	g.perKind[opRange] = 8
	return g
}

func (g *lsmGen) ddl() (string, []string) {
	return "CREATE TABLE t (k, v, w) RECORD SIZE " + strconv.Itoa(g.w.recSize) + " BACKEND LSM", nil
}

func (g *lsmGen) addTenant() *tenant {
	t := &tenant{id: g.nextID, has: make(map[int64]struct{})}
	g.nextID++
	g.tenants = append(g.tenants, t)
	return t
}

func (g *lsmGen) newItem(t *tenant) int64 {
	for {
		it := g.rng.Int63n(tenantSpan)
		if _, dup := t.has[it]; !dup {
			t.has[it] = struct{}{}
			t.items = append(t.items, it)
			g.rows++
			return t.key(it)
		}
	}
}

func (g *lsmGen) preload(emit func([3]int64) error) error {
	per := g.w.rows / lsmTenants
	keys := make([]int64, 0, per*lsmTenants)
	for i := 0; i < lsmTenants; i++ {
		t := g.addTenant()
		for j := 0; j < per; j++ {
			keys = append(keys, g.newItem(t))
		}
	}
	g.rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		if err := emit(rowOf(k)); err != nil {
			return err
		}
	}
	return nil
}

func (g *lsmGen) anyTenant() *tenant { return g.tenants[g.rng.Intn(len(g.tenants))] }

// liveKey picks a key of a random tenant that has one.
func (g *lsmGen) liveKey() int64 {
	for {
		if t := g.anyTenant(); len(t.items) > 0 {
			return t.key(t.items[g.rng.Intn(len(t.items))])
		}
	}
}

// deadKey picks a key below the oldest live tenant: a dropped tenant's, or
// tenant 0's, which never existed.
func (g *lsmGen) deadKey() int64 {
	oldest := g.tenants[0].id
	lo := oldest - 50
	if lo < 0 {
		lo = 0
	}
	return (lo+g.rng.Int63n(oldest-lo))<<tenantShift + g.rng.Int63n(tenantSpan)
}

func (g *lsmGen) round() []op {
	ops := make([]op, 0, g.w.perRound+32)
	nthPoint := 0
	for _, kind := range kindSequence(g.rng, g.perKind) {
		switch kind {
		case opInsert:
			k := g.newItem(g.anyTenant())
			ops = append(ops, op{kind: opInsert, sql: lsmStmts.insert(k), a: k, want: 1})
		case opPoint:
			k, want := g.liveKey(), int64(1)
			if nthPoint < g.dead {
				k, want = g.deadKey(), 0
			}
			nthPoint++
			ops = append(ops, op{kind: opPoint, sql: lsmStmts.point(k), a: k, want: want})
		case opRange:
			t := g.anyTenant()
			first := g.rng.Int63n(tenantSpan - lsmRangeWidth)
			var want int64
			for _, it := range t.items {
				if it >= first && it < first+lsmRangeWidth {
					want++
				}
			}
			lo, hi := t.key(first), t.key(first+lsmRangeWidth-1)
			ops = append(ops, op{kind: opRange, sql: lsmStmts.rangeRead(lo, hi), a: lo, hi: hi, want: want})
		}
	}
	old := g.tenants[0]
	g.tenants = g.tenants[1:]
	g.rows -= int64(len(old.items))
	g.addTenant()
	lo, hi := old.key(0), old.key(tenantSpan-1)
	return append(ops, op{kind: opDelete, sql: lsmStmts.rangeDel(lo, hi), a: lo, hi: hi, rangeDel: true, want: -1})
}

func (g *lsmGen) live() int64 { return g.rows }

func (g *lsmGen) probe(n int) (present, absent []int64) {
	for i := 0; i < n; i++ {
		present = append(present, g.liveKey())
		absent = append(absent, g.deadKey())
	}
	return present, absent
}

func (g *lsmGen) fresh(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = g.newItem(g.anyTenant())
	}
	return out
}
