package crystal

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/rockclean/rock/internal/data"
)

func sampleRel(t *testing.T) *data.Relation {
	t.Helper()
	rel := data.NewRelation(schemaOf("Store",
		data.Attribute{Name: "city", Type: data.TString},
		data.Attribute{Name: "sales", Type: data.TFloat},
	))
	rel.Insert("s1", data.S("Beijing"), data.F(15))
	rel.Insert("s2", data.S("Shanghai"), data.F(10))
	rel.Insert("s3", data.S("Beijing"), data.F(11))
	rel.Insert("s4", data.Null(data.TString), data.F(9))
	return rel
}

// dictOf is the dictionary the column cache builds for rel.attr.
func dictOf(t *testing.T, rel *data.Relation, attr string) *Dictionary {
	t.Helper()
	col, _ := NewCache().Column(rel, attr)
	if col == nil {
		t.Fatalf("no column %s.%s", rel.Schema.Name, attr)
	}
	return col.Dict
}

// postingOf is rel.attr's posting list of v through the column store
// (nil when the attribute or the value is unknown).
func postingOf(cs *ColumnStore, attr string, v data.Value) []int {
	col, _ := cs.Column(attr)
	if col == nil {
		return nil
	}
	id, ok := col.Dict.ID(v)
	if !ok {
		return nil
	}
	return col.PostingList(id)
}

func TestDictionarySortedIDs(t *testing.T) {
	rel := sampleRel(t)
	d := dictOf(t, rel, "city")
	// 3 distinct: null, Beijing, Shanghai.
	if d.Size() != 3 {
		t.Fatalf("size=%d", d.Size())
	}
	bid, ok1 := d.ID(data.S("Beijing"))
	sid, ok2 := d.ID(data.S("Shanghai"))
	if !ok1 || !ok2 || bid >= sid {
		t.Error("ids must follow sorted value order (Beijing < Shanghai)")
	}
	if _, ok := d.ID(data.S("Chengdu")); ok {
		t.Error("unseen value must miss")
	}
	if v, ok := d.Value(bid); !ok || v.Str() != "Beijing" {
		t.Error("value round trip")
	}
	if _, ok := d.Value(99); ok {
		t.Error("bad id must miss")
	}
	if _, err := BuildColumn(rel, "ghost"); err == nil {
		t.Error("unknown attribute must error")
	}
}

func TestColumnStorePostings(t *testing.T) {
	rel := sampleRel(t)
	cs, err := BuildColumnStore(rel)
	if err != nil {
		t.Fatal(err)
	}
	beijing := postingOf(cs, "city", data.S("Beijing"))
	if len(beijing) != 2 || beijing[0] != 0 || beijing[1] != 2 {
		t.Errorf("postings=%v", beijing)
	}
	if got := postingOf(cs, "city", data.S("Nowhere")); got != nil {
		t.Error("unseen value yields nil")
	}
	if got := postingOf(cs, "ghost", data.S("x")); got != nil {
		t.Error("unknown attr yields nil")
	}
	// Null values also group.
	nulls := postingOf(cs, "city", data.Null(data.TString))
	if len(nulls) != 1 || nulls[0] != 3 {
		t.Errorf("null postings=%v", nulls)
	}
}

func TestColumnIDAtDenseLayout(t *testing.T) {
	rel := sampleRel(t)
	col, err := BuildColumn(rel, "city")
	if err != nil {
		t.Fatal(err)
	}
	// Every tuple's id must round-trip through the dense slice back to a
	// value equal to the raw one.
	for _, tp := range rel.Tuples {
		id, ok := col.IDAt(tp.TID)
		if !ok {
			t.Fatalf("tid %d missing from dense column", tp.TID)
		}
		v, ok := col.Dict.Value(id)
		if !ok || !v.Equal(tp.Values[0]) {
			t.Errorf("tid %d: id %d resolves to %v, want %v", tp.TID, id, v, tp.Values[0])
		}
	}
	// Out-of-range and negative TIDs miss instead of panicking.
	if _, ok := col.IDAt(len(rel.Tuples) + 10); ok {
		t.Error("unseen TID must miss")
	}
	if _, ok := col.IDAt(-1); ok {
		t.Error("negative TID must miss")
	}
	// Tuples inserted after the build are unseen until a Refresh.
	nt := rel.Insert("s5", data.S("Chengdu"), data.F(3))
	if _, ok := col.IDAt(nt.TID); ok {
		t.Error("post-build insert must miss before Refresh")
	}
	col.Refresh(rel, map[int]bool{nt.TID: true})
	id, ok := col.IDAt(nt.TID)
	if !ok {
		t.Fatal("post-Refresh insert must hit")
	}
	if v, _ := col.Dict.Value(id); v.Str() != "Chengdu" {
		t.Errorf("refreshed value = %v", v)
	}
}

func TestColumnRefreshAfterSetValue(t *testing.T) {
	rel := sampleRel(t)
	col, err := BuildColumn(rel, "city")
	if err != nil {
		t.Fatal(err)
	}
	if !rel.SetValue(1, "city", data.S("Beijing")) {
		t.Fatal("SetValue failed")
	}
	col.Refresh(rel, map[int]bool{1: true})
	bid, _ := col.Dict.ID(data.S("Beijing"))
	if id, ok := col.IDAt(1); !ok || id != bid {
		t.Errorf("IDAt(1)=%d ok=%v, want Beijing id %d", id, ok, bid)
	}
	if got := col.Postings[bid]; len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("Beijing postings after refresh = %v", got)
	}
	sid, _ := col.Dict.ID(data.S("Shanghai"))
	if got := col.Postings[sid]; len(got) != 0 {
		t.Errorf("Shanghai postings must drain, got %v", got)
	}
}

func TestDictionaryInternAppends(t *testing.T) {
	rel := sampleRel(t)
	d := dictOf(t, rel, "city")
	bid, _ := d.ID(data.S("Beijing"))
	if got := d.Intern(data.S("Beijing")); got != bid {
		t.Errorf("re-interning must return the existing id: got %d want %d", got, bid)
	}
	size := d.Size()
	nid := d.Intern(data.S("Chengdu"))
	if int(nid) != size || d.Size() != size+1 {
		t.Errorf("new value must append: id=%d size=%d (was %d)", nid, d.Size(), size)
	}
	if got := d.Intern(data.S("Chengdu")); got != nid {
		t.Error("appended id must be stable")
	}
}

func TestDictionaryNumericCanonicalIDs(t *testing.T) {
	// Cross-type numerics equal under Value.Equal share one interned id, so
	// id equality agrees with value equality (the hot paths depend on it).
	d := dictOf(t, data.NewRelation(schemaOf("E", data.Attribute{Name: "a", Type: data.TInt})), "a")
	i5 := d.Intern(data.I(5))
	if f5 := d.Intern(data.F(5)); f5 != i5 {
		t.Errorf("I(5) and F(5) interned as %d and %d, want one id", i5, f5)
	}
	if t5 := d.Intern(data.TS(5)); t5 != i5 {
		t.Error("TS(5) must share the numeric id")
	}
	if h := d.Intern(data.F(5.5)); h == i5 {
		t.Error("F(5.5) must get its own id")
	}
	nid := d.Intern(data.Null(data.TInt))
	if got, ok := d.NullID(); !ok || got != nid {
		t.Error("NullID must report the interned null")
	}
	if sid := d.Intern(data.S("5")); sid == i5 {
		t.Error("S(\"5\") must not collide with numeric 5")
	}
}

// skuFixture builds n tuples over 97 distinct skus with a null every 41st.
func skuFixture(t *testing.T, n int) *data.Relation {
	t.Helper()
	rel := data.NewRelation(schemaOf("Ev",
		data.Attribute{Name: "sku", Type: data.TString},
		data.Attribute{Name: "qty", Type: data.TInt},
	))
	for i := 0; i < n; i++ {
		sku := data.S(fmt.Sprintf("S%d", i%97))
		if i%41 == 0 {
			sku = data.Null(data.TString)
		}
		rel.Insert(fmt.Sprintf("e%d", i), sku, data.I(int64(i%13)))
	}
	return rel
}

// checkPostingSorted verifies a posting list is strictly ascending.
func checkPostingSorted(p []int) error {
	if !sort.IntsAreSorted(p) {
		return fmt.Errorf("crystal: posting list not sorted")
	}
	for i := 1; i < len(p); i++ {
		if p[i] == p[i-1] {
			return fmt.Errorf("crystal: duplicate TID %d in posting list", p[i])
		}
	}
	return nil
}

// TestRefreshEmptiesPostingBucket moves every carrier of one value to
// another: the vacated bucket must come back empty with no stale TIDs,
// the receiving bucket stays sorted, and dictionary lookups of the
// vacated value yield an empty posting view.
func TestRefreshEmptiesPostingBucket(t *testing.T) {
	rel := data.NewRelation(schemaOf("R", data.Attribute{Name: "a", Type: data.TString}))
	for i := 0; i < 30; i++ {
		v := "keep"
		if i%3 == 0 {
			v = "gone"
		}
		rel.Insert(fmt.Sprintf("e%d", i), data.S(v))
	}
	cs, err := BuildColumnStore(rel)
	if err != nil {
		t.Fatal(err)
	}
	col := cs.Columns["a"]
	goneID, ok := col.Dict.ID(data.S("gone"))
	if !ok || len(col.PostingList(goneID)) == 0 {
		t.Fatal("fixture must intern 'gone' with carriers")
	}
	dirty := map[int]bool{}
	for _, tp := range rel.Tuples {
		if tp.Values[0].Equal(data.S("gone")) {
			rel.SetValue(tp.TID, "a", data.S("keep"))
			dirty[tp.TID] = true
		}
	}
	cs.Refresh(dirty)

	if p := col.PostingList(goneID); len(p) != 0 {
		t.Fatalf("vacated bucket still holds %v", p)
	}
	if view := postingOf(cs, "a", data.S("gone")); len(view) != 0 {
		t.Fatalf("posting list of the vacated value must be empty, got %v", view)
	}
	keep := postingOf(cs, "a", data.S("keep"))
	if len(keep) != rel.Len() {
		t.Fatalf("receiving bucket has %d TIDs, want every one of %d", len(keep), rel.Len())
	}
	if err := checkPostingSorted(keep); err != nil {
		t.Fatal(err)
	}
	for _, tp := range rel.Tuples {
		id, ok := col.IDAt(tp.TID)
		if !ok || id == goneID {
			t.Fatalf("TID %d still maps to the vacated id", tp.TID)
		}
	}
}

// liveEncoded checks the invariant the executor's columnar jobs rely on
// instead of a completeness gate: every live TID has the id of its value,
// and every posting list holds only live TIDs carrying that id, sorted.
func liveEncoded(col *Column, rel *data.Relation) error {
	ai := rel.Schema.Index(col.Attr)
	for _, tp := range rel.Tuples {
		id, ok := col.IDAt(tp.TID)
		if !ok {
			return fmt.Errorf("live TID %d has no id", tp.TID)
		}
		if v, _ := col.Dict.Value(id); !v.Equal(tp.Values[ai]) {
			return fmt.Errorf("TID %d holds %q, its value is %q", tp.TID, v.Key(), tp.Values[ai].Key())
		}
	}
	for id, p := range col.Postings {
		if err := checkPostingSorted(p); err != nil {
			return err
		}
		for _, tid := range p {
			if rel.Get(tid) == nil {
				return fmt.Errorf("posting list %d holds deleted TID %d", id, tid)
			}
			if got, _ := col.IDAt(tid); got != ValueID(id) {
				return fmt.Errorf("posting list %d holds TID %d of id %d", id, tid, got)
			}
		}
	}
	return nil
}

// TestRefreshKeepsEveryLiveTIDEncoded: after an insert, an update or a
// delete, a Refresh of the written TIDs leaves every live TID with an id
// and every posting list with live TIDs only — on the column itself and
// on a Cache's column refreshed through a batch of Writes.
func TestRefreshKeepsEveryLiveTIDEncoded(t *testing.T) {
	rel := skuFixture(t, 100)
	col, _ := BuildColumn(rel, "sku")
	if err := liveEncoded(col, rel); err != nil {
		t.Fatalf("fresh build: %v", err)
	}
	db := data.NewDatabase()
	db.Add(rel)
	cache := NewCache()
	cached, _ := cache.Column(rel, "sku")
	for _, step := range []struct {
		name  string
		write func() int
	}{
		{"insert", func() int { return rel.Insert("late", data.S("S1"), data.I(1)).TID }},
		{"insert new value", func() int { return rel.Insert("later", data.S("fresh"), data.I(1)).TID }},
		{"update", func() int { tid := rel.Tuples[5].TID; rel.SetValue(tid, "sku", data.S("S2")); return tid }},
		{"update to null", func() int { tid := rel.Tuples[6].TID; rel.SetValue(tid, "sku", data.Null(data.TString)); return tid }},
		{"delete", func() int { tid := rel.Tuples[0].TID; rel.Delete(tid); return tid }},
		{"delete the newest", func() int { tid := rel.Tuples[rel.Len()-1].TID; rel.Delete(tid); return tid }},
	} {
		w := NewWrites(db)
		tid := step.write()
		w.Wrote("Ev", tid)
		col.Refresh(rel, map[int]bool{tid: true})
		if err := liveEncoded(col, rel); err != nil {
			t.Fatalf("after %s and Refresh: %v", step.name, err)
		}
		if n := cache.Refresh(db, w); n != 1 {
			t.Fatalf("after %s: Cache.Refresh refreshed %d columns, want 1", step.name, n)
		}
		got, built := cache.Column(rel, "sku")
		if built || got != cached {
			t.Fatalf("after %s: the cache rebuilt a column its batch accounted for", step.name)
		}
		if err := liveEncoded(got, rel); err != nil {
			t.Fatalf("after %s and Cache.Refresh: %v", step.name, err)
		}
	}
}

// schemaOf is must.Schema for this package, which must cannot serve: its
// rule parser imports predicate, and predicate imports crystal.
func schemaOf(name string, attrs ...data.Attribute) *data.Schema {
	s, err := data.NewSchema(name, attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// TestRefreshMatchesFreshBuild: on seeded random deltas — updates to
// existing and to new values, a value left with no tuples, inserts and
// deletes — a refreshed column holds the same value at every TID and the
// same posting lists, by value, as a column built afresh.
func TestRefreshMatchesFreshBuild(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rel := skuFixture(t, 400)
		col, err := BuildColumn(rel, "sku")
		if err != nil {
			t.Fatal(err)
		}
		dirty := map[int]bool{}
		set := func(tid int, v data.Value) {
			if rel.SetValue(tid, "sku", v) {
				dirty[tid] = true
			}
		}
		for i := 0; i < 60; i++ {
			tid := rng.Intn(rel.NextTID())
			switch rng.Intn(3) {
			case 0:
				set(tid, data.S(fmt.Sprintf("S%d", rng.Intn(97))))
			case 1:
				set(tid, data.S(fmt.Sprintf("new%d", rng.Intn(4))))
			default:
				set(tid, data.Null(data.TString))
			}
		}
		gone := data.S(fmt.Sprintf("S%d", 1+rng.Intn(96)))
		for _, tp := range rel.Tuples {
			if tp.Values[0].Equal(gone) {
				set(tp.TID, data.S("S0"))
			}
		}
		for i := 0; i < 20; i++ {
			tp := rel.Insert(fmt.Sprintf("n%d", i), data.S(fmt.Sprintf("S%d", rng.Intn(120))), data.I(1))
			dirty[tp.TID] = true
		}
		for i := 0; i < 3; i++ {
			tid := rel.Tuples[rng.Intn(rel.Len())].TID
			rel.Delete(tid)
			dirty[tid] = true
		}
		col.Refresh(rel, dirty)
		fresh, err := BuildColumn(rel, "sku")
		if err != nil {
			t.Fatal(err)
		}
		if err := sameByValue(col, fresh, rel); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// sameByValue compares two columns of one relation by the values they
// hold: a refreshed dictionary numbers its new values differently.
func sameByValue(got, want *Column, rel *data.Relation) error {
	if len(got.IDs) != len(want.IDs) {
		return fmt.Errorf("covers %d TIDs, the fresh build %d", len(got.IDs), len(want.IDs))
	}
	key := func(c *Column, tid int) string {
		id, ok := c.IDAt(tid)
		if !ok {
			return "<none>"
		}
		v, _ := c.Dict.Value(id)
		return v.Key()
	}
	for tid := range want.IDs {
		if g, w := key(got, tid), key(want, tid); g != w {
			return fmt.Errorf("TID %d holds %q, the fresh build %q", tid, g, w)
		}
	}
	for id := ValueID(0); int(id) < want.Dict.Size(); id++ {
		v, _ := want.Dict.Value(id)
		gid, ok := got.Dict.ID(v)
		if !ok {
			return fmt.Errorf("value %q missing from the refreshed dictionary", v.Key())
		}
		if !slices.Equal(got.PostingList(gid), want.PostingList(id)) {
			return fmt.Errorf("value %q: postings %v, the fresh build %v", v.Key(), got.PostingList(gid), want.PostingList(id))
		}
	}
	for id := ValueID(0); int(id) < got.Dict.Size(); id++ {
		v, _ := got.Dict.Value(id)
		if _, ok := want.Dict.ID(v); !ok && len(got.PostingList(id)) > 0 {
			return fmt.Errorf("value %q still has carriers %v", v.Key(), got.PostingList(id))
		}
	}
	return nil
}
