package crystal

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/rockclean/rock/internal/data"
)

func cityAt(t *testing.T, col *Column, tid int) string {
	t.Helper()
	id, ok := col.IDAt(tid)
	if !ok {
		t.Fatalf("TID %d missing from the column", tid)
	}
	v, _ := col.Dict.Value(id)
	return v.String()
}

// TestCacheNeverServesAStaleColumn: a SetValue or an Insert the cache was
// never told about is followed by a rebuild, never a stale read; a refresh
// that accounts for every write since the column's stamp keeps the column
// and drops its translations, and one that missed a write, before the
// batch or during it, leaves it to rebuild.
func TestCacheNeverServesAStaleColumn(t *testing.T) {
	rel := sampleRel(t)
	db := data.NewDatabase()
	db.Add(rel)
	c := NewCache()
	first, built := c.Column(rel, "city")
	if !built || first == nil {
		t.Fatal("a cold cache must build the column")
	}
	if again, built := c.Column(rel, "city"); built || again != first {
		t.Fatal("an unchanged relation must be served the same column")
	}

	rel.SetValue(1, "city", data.S("Chengdu"))
	col, built := c.Column(rel, "city")
	if !built || col == first || cityAt(t, col, 1) != "Chengdu" {
		t.Fatal("an untold SetValue must rebuild the column")
	}
	nt := rel.Insert("s5", data.S("Wuhan"), data.F(1))
	col, built = c.Column(rel, "city")
	if !built || cityAt(t, col, nt.TID) != "Wuhan" {
		t.Fatal("an untold Insert must rebuild the column")
	}

	c.Translation("Store", "city", col, "Store", "city", col)
	w := NewWrites(db)
	rel.SetValue(0, "city", data.S("Xian"))
	w.Wrote("Store", 0)
	if n := c.Refresh(db, w); n != 1 {
		t.Fatalf("a refresh covering every write refreshed %d columns, want 1", n)
	}
	kept, built := c.Column(rel, "city")
	if built || kept != col || cityAt(t, kept, 0) != "Xian" {
		t.Fatal("a refreshed column must be served as it is, current")
	}
	if tr := c.Translation("Store", "city", kept, "Store", "city", kept); len(tr) != kept.Dict.Size() {
		t.Fatal("a refresh must drop the column's translations")
	}

	// The column was stamped before the batch began, but a write the batch
	// never saw came first.
	rel.SetValue(2, "city", data.S("Dalian"))
	w = NewWrites(db)
	rel.SetValue(3, "city", data.S("Harbin"))
	w.Wrote("Store", 3)
	if n := c.Refresh(db, w); n != 0 {
		t.Fatal("a refresh that missed a write before the batch must not re-stamp the column")
	}
	col, built = c.Column(rel, "city")
	if !built || cityAt(t, col, 2) != "Dalian" || cityAt(t, col, 3) != "Harbin" {
		t.Fatal("a column that missed a write must be rebuilt")
	}

	// The column is stamped where the batch began, but a write the batch
	// never saw came in during it.
	w = NewWrites(db)
	rel.SetValue(0, "city", data.S("Lanzhou"))
	w.Wrote("Store", 0)
	rel.SetValue(1, "city", data.S("Kunming"))
	if n := c.Refresh(db, w); n != 0 {
		t.Fatal("a refresh that missed a write during the batch must not re-stamp the column")
	}
	col, built = c.Column(rel, "city")
	if !built || cityAt(t, col, 0) != "Lanzhou" || cityAt(t, col, 1) != "Kunming" {
		t.Fatal("a column that missed a write must be rebuilt")
	}
}

// TestCacheKeysOnTheRelationNotItsName: an env over another relation with
// the same name never gets this relation's column.
func TestCacheKeysOnTheRelationNotItsName(t *testing.T) {
	a, b := sampleRel(t), sampleRel(t)
	b.SetValue(0, "city", data.S("Lhasa"))
	c := NewCache()
	colA, _ := c.Column(a, "city")
	colB, built := c.Column(b, "city")
	if !built || colB == colA || cityAt(t, colB, 0) != "Lhasa" {
		t.Fatal("another relation of the same name was served the first one's column")
	}
	if colA, _ = c.Column(a, "city"); cityAt(t, colA, 0) != "Beijing" {
		t.Fatal("the first relation was served the second one's column")
	}
}

// TestCacheBuildsEachColumnOnceUnderContention: many readers on a cold
// cache, across two attributes, encode each column exactly once and all
// read the same one.
func TestCacheBuildsEachColumnOnceUnderContention(t *testing.T) {
	rel := skuFixture(t, 20000)
	c := NewCache()
	attrs := []string{"sku", "qty"}
	const readers = 16
	got := make([][]*Column, readers)
	builds := make([]int, readers)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range attrs {
				col, built := c.Column(rel, attrs[(w+i)%len(attrs)])
				got[w] = append(got[w], col)
				if built {
					builds[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, b := range builds {
		total += b
	}
	if total != len(attrs) {
		t.Fatalf("%d builds for %d columns", total, len(attrs))
	}
	for w := range got {
		for i := range attrs {
			attr := attrs[(w+i)%len(attrs)]
			if want, _ := c.Column(rel, attr); got[w][i] != want {
				t.Fatalf("reader %d read another %s column", w, attr)
			}
		}
	}
}

// TestCacheTupleIndexesTrackShape: the EID index a cache keeps answers
// like a scan of the relation after every kind of write — appends extend
// it, a delete rebuilds it, a value write leaves it — listing tuples in
// TID order, and a block view a caller holds never sees a later append
// (TestColumnarPartitionsAreTIDAscending compares the blocks themselves
// with fresh ones).
func TestCacheTupleIndexesTrackShape(t *testing.T) {
	rel := skuFixture(t, 60)
	// Repeat EIDs so chains are longer than one.
	for i := 0; i < 20; i++ {
		rel.Insert(fmt.Sprintf("e%d", i%7), data.S("S1"), data.I(1))
	}
	c := NewCache()
	eids := []string{"e0", "e3", "e6", "e59", "late", "nobody"}
	check := func(stage string) {
		t.Helper()
		for _, eid := range eids {
			got := c.TuplesOfEID(rel, eid)
			want := (*Cache)(nil).TuplesOfEID(rel, eid)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: TuplesOfEID(%q) = %v, a scan finds %v", stage, eid, tidsOfTuples(got), tidsOfTuples(want))
			}
		}
	}
	check("fresh")
	held := c.Blocks(rel, 3)
	heldLens := []int{len(held[0].Tuples), len(held[1].Tuples), len(held[2].Tuples)}
	for i := 0; i < 9; i++ {
		rel.Insert([]string{"late", "e3", "e0"}[i%3], data.S("S2"), data.I(2))
	}
	check("after appends")
	for i, b := range held {
		if len(b.Tuples) != heldLens[i] || cap(b.Tuples) != heldLens[i] || cap(b.TIDs) != heldLens[i] {
			t.Fatalf("held block %d: len %d cap %d, want both %d", i, len(b.Tuples), cap(b.Tuples), heldLens[i])
		}
	}
	rel.Delete(c.TuplesOfEID(rel, "e3")[1].TID)
	check("after a delete")
	rel.SetValue(rel.Tuples[0].TID, "sku", data.S("S9"))
	rel.Insert("e6", data.S("S3"), data.I(3))
	check("after a value write and an append")
}

func tidsOfTuples(ts []*data.Tuple) []int {
	out := make([]int, len(ts))
	for i, tu := range ts {
		out[i] = tu.TID
	}
	return out
}

// TestCacheTupleIndexesConcurrentReaders: executors ask one cache for
// blocks and EID lookups from every worker at once; the first reader
// after the relation grew extends the kept indexes while the others wait
// or read views they already hold.
func TestCacheTupleIndexesConcurrentReaders(t *testing.T) {
	rel := skuFixture(t, 300)
	c := NewCache()
	held := c.Blocks(rel, 4)
	for i := 0; i < 50; i++ {
		rel.Insert(fmt.Sprintf("e%d", i%9), data.S("S1"), data.I(1))
	}
	wantBlocks := (*Cache)(nil).Blocks(rel, 4)
	wantEIDs := (*Cache)(nil).TuplesOfEID(rel, "e3")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, b := range held {
				for i, tu := range b.Tuples {
					if b.TIDs[i] != tu.TID {
						t.Error("a held view changed under an extension")
						return
					}
				}
			}
			if !reflect.DeepEqual(c.Blocks(rel, 4), wantBlocks) {
				t.Error("concurrent Blocks differ from a fresh partition")
			}
			if !reflect.DeepEqual(c.TuplesOfEID(rel, "e3"), wantEIDs) {
				t.Error("concurrent TuplesOfEID differs from a scan")
			}
		}()
	}
	wg.Wait()
}
