package crystal

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/rockclean/rock/internal/data"
)

func TestRingPlacementStable(t *testing.T) {
	r := NewRing(32)
	r.AddNode("node-a")
	r.AddNode("node-b")
	r.AddNode("node-c")
	if r.AddNode("node-a") {
		t.Error("duplicate add must report false")
	}
	// Same key, same owner.
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("obj/%d", i)
		if r.Owner(k) != r.Owner(k) {
			t.Fatal("owner must be deterministic")
		}
	}
	// Keys in distinct clusters (the text before '/') spread over every
	// node.
	owners := map[string]bool{}
	for i := 0; i < 100; i++ {
		owners[r.Owner(fmt.Sprintf("c%d/obj", i))] = true
	}
	if len(owners) != 3 {
		t.Errorf("100 keys landed on %d nodes, want all 3: %v", len(owners), owners)
	}
}

func TestRingMinimalRemapping(t *testing.T) {
	r := NewRing(64)
	for i := 0; i < 5; i++ {
		r.AddNode(fmt.Sprintf("node-%d", i))
	}
	const n = 1000
	before := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%d/obj", i)
		before[k] = r.Owner(k)
	}
	r.AddNode("node-new")
	moved := 0
	for k, old := range before {
		if r.Owner(k) != old {
			moved++
		}
	}
	// Consistent hashing: roughly 1/6 of keys move; fail above 1/3.
	if moved == 0 || moved > n/3 {
		t.Errorf("moved %d of %d keys on node add", moved, n)
	}
	// Every key that moved, moved to the new node.
	for k, old := range before {
		if now := r.Owner(k); now != old && now != "node-new" {
			t.Fatalf("key %s moved from %s to %s, not to the new node", k, old, now)
		}
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(8)
	if r.Owner("x") != "" {
		t.Error("empty ring owns nothing")
	}
}

func TestSchedulerAffinityAndStealing(t *testing.T) {
	ring := NewRing(32)
	nodes := []string{"n1", "n2", "n3"}
	for _, n := range nodes {
		ring.AddNode(n)
	}
	s := NewScheduler(nodes)
	for i := 0; i < 30; i++ {
		u := &WorkUnit{ID: i, Part: fmt.Sprintf("p%d/b", i), EstCost: float64(1 + i%3)}
		s.Assign(ring, u)
	}
	if s.Pending() != 30 {
		t.Fatalf("pending=%d", s.Pending())
	}
	// Drain everything from one node with stealing on: it must empty the
	// whole system.
	drained := 0
	for u := s.Next("n1", true); u != nil; u = s.Next("n1", true) {
		drained++
	}
	if drained != 30 {
		t.Errorf("drained %d of 30", drained)
	}
	if s.Steals() == 0 {
		t.Error("stealing must have occurred")
	}
	// Without stealing, an empty queue yields nil.
	if u := s.Next("n1", false); u != nil {
		t.Error("no-steal next on empty queue must be nil")
	}
}

func TestSchedulerBalancedAssignment(t *testing.T) {
	s := NewScheduler([]string{"a", "b"})
	for i := 0; i < 10; i++ {
		s.AssignExcluding(&WorkUnit{ID: i, EstCost: 1}, nil)
	}
	if la, lb := s.Load("a"), s.Load("b"); la != lb {
		t.Errorf("balanced assign skewed: %f vs %f", la, lb)
	}
}

// Property: the ring's owner function is total and consistent for any key.
func TestRingOwnerTotal(t *testing.T) {
	r := NewRing(16)
	r.AddNode("n1")
	r.AddNode("n2")
	f := func(key string) bool {
		o := r.Owner(key)
		return (o == "n1" || o == "n2") && o == r.Owner(key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

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
