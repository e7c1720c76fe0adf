package crystal

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/rockclean/rock/internal/data"
)

// ascendingBlock reports a block that is not strictly TID-ascending or
// whose TIDs are not its tuples'.
func ascendingBlock(block Block) error {
	if len(block.TIDs) != len(block.Tuples) {
		return fmt.Errorf("%d TIDs for %d tuples", len(block.TIDs), len(block.Tuples))
	}
	for i, tu := range block.Tuples {
		if block.TIDs[i] != tu.TID {
			return fmt.Errorf("TIDs[%d] = %d, the tuple's TID %d", i, block.TIDs[i], tu.TID)
		}
		if i > 0 && tu.TID <= block.Tuples[i-1].TID {
			return fmt.Errorf("TID %d follows TID %d", tu.TID, block.Tuples[i-1].TID)
		}
	}
	return nil
}

// TestColumnarPartitionsAreTIDAscending: the executor's columnar jobs
// take every partition to be strictly TID-ascending and treat any other
// as an error. Every block a Cache partitions into is, before and after
// inserts (which extend the kept blocks) and a delete (which rebuilds
// them); it equals a fresh partition; and every UnitsFor unit restricts
// its variables to such blocks.
func TestColumnarPartitionsAreTIDAscending(t *testing.T) {
	rel := skuFixture(t, 200)
	other := data.NewRelation(schemaOf("Other", data.Attribute{Name: "a", Type: data.TString}))
	for i := 0; i < 37; i++ {
		other.Insert(fmt.Sprintf("o%d", i), data.S(fmt.Sprintf("a%d", i%5)))
	}
	db := data.NewDatabase()
	db.Add(rel)
	db.Add(other)
	atoms := [][]Atom{
		{{Rel: "Ev", Var: "t"}},
		{{Rel: "Ev", Var: "t"}, {Rel: "Ev", Var: "s"}},
		{{Rel: "Ev", Var: "t"}, {Rel: "Other", Var: "s"}, {Rel: "Ev", Var: "u"}},
	}
	cache := NewCache()
	check := func(stage string) {
		t.Helper()
		for _, b := range []int{1, 3, 8} {
			blocks := cache.Partition(db, b)
			fresh := (*Cache)(nil).Partition(db, b)
			live := 0
			for name, bs := range blocks {
				if !reflect.DeepEqual(bs, fresh[name]) {
					t.Fatalf("%s: the kept %s blocks of %d differ from a fresh partition", stage, name, b)
				}
				for i, block := range bs {
					if err := ascendingBlock(block); err != nil {
						t.Fatalf("%s: %s block %d of %d: %v", stage, name, i, b, err)
					}
					if name == "Ev" {
						live += len(block.Tuples)
					}
				}
			}
			if live != rel.Len() {
				t.Fatalf("%s: blocks of %d hold %d Ev tuples, the relation %d", stage, b, live, rel.Len())
			}
			for _, as := range atoms {
				units := UnitsFor(as, blocks)
				if len(units) == 0 {
					t.Fatalf("%s: no units over %d blocks", stage, b)
				}
				for _, u := range units {
					for v, block := range u.Restrict {
						if err := ascendingBlock(block); err != nil {
							t.Fatalf("%s: unit %s restricts %s: %v", stage, u.Part, v, err)
						}
					}
				}
			}
		}
	}
	check("fresh")
	for i := 0; i < 25; i++ {
		rel.Insert(fmt.Sprintf("late%d", i), data.S("S1"), data.I(1))
	}
	check("after inserts")
	rel.Delete(rel.Tuples[17].TID)
	check("after a delete")
}
