package data

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestTemporalRelationStamps(t *testing.T) {
	r := NewRelation(MustSchema("R", Attribute{"A", TString}))
	tp := r.Insert("e1", S("v"))
	tr := NewTemporalRelation(r)
	if _, ok := tr.Timestamp(tp.TID, "A"); ok {
		t.Error("no stamp yet")
	}
	tr.Stamp(tp.TID, "A", 100)
	if ts, ok := tr.Timestamp(tp.TID, "A"); !ok || ts != 100 {
		t.Error("stamp lost")
	}
}

func TestTemporalOrderTransitivity(t *testing.T) {
	o := NewTemporalOrder("R", "A")
	o.AddWeak(1, 2)
	o.AddWeak(2, 3)
	if !o.Leq(1, 3) {
		t.Error("transitive Leq failed")
	}
	if o.Leq(3, 1) {
		t.Error("reverse must not hold")
	}
	if !o.Leq(5, 5) {
		t.Error("Leq must be reflexive")
	}
	if o.Less(1, 3) {
		t.Error("no strict edge, Less must be false")
	}
	o.AddStrict(3, 4)
	if !o.Less(1, 4) {
		t.Error("weak path + strict edge must give Less")
	}
	if !o.Leq(1, 4) {
		t.Error("strict implies weak")
	}
	if o.Less(4, 4) {
		t.Error("Less must be irreflexive")
	}
}

func TestTemporalOrderCycleDetection(t *testing.T) {
	o := NewTemporalOrder("R", "A")
	o.AddWeak(1, 2)
	o.AddWeak(2, 1) // ties are fine
	if hasStrictCycle(o) {
		t.Error("weak cycle alone is valid (a tie)")
	}
	o.AddStrict(1, 2)
	if !hasStrictCycle(o) {
		t.Error("strict edge inside weak cycle must be invalid")
	}
}

func TestTemporalOrderLatest(t *testing.T) {
	o := NewTemporalOrder("R", "A")
	o.AddStrict(1, 2)
	o.AddStrict(2, 3)
	// The chain closes transitively: 3 is the one candidate no other is
	// strictly more current than.
	if !o.Less(1, 3) || o.Less(3, 1) || o.Less(3, 2) {
		t.Error("strict chain 1 < 2 < 3 must make 3 the latest")
	}
	// Incomparable elements are both maximal.
	if o.Less(3, 9) || o.Less(9, 3) {
		t.Error("3 and 9 are unrelated: neither is more current")
	}
}

func TestSeedFromTimestamps(t *testing.T) {
	db := NewDatabase()
	r := NewRelation(MustSchema("R", Attribute{"A", TString}))
	t1 := r.Insert("e1", S("old"))
	t2 := r.Insert("e2", S("new"))
	t3 := r.Insert("e3", S("tie"))
	db.Add(r)
	ti := NewTemporalInstance(db)
	tr := ti.Stamps["R"]
	tr.Stamp(t1.TID, "A", 10)
	tr.Stamp(t2.TID, "A", 20)
	tr.Stamp(t3.TID, "A", 20)
	ti.SeedFromTimestamps()
	o := ti.Order("R", "A")
	if !o.Less(t1.TID, t2.TID) {
		t.Error("earlier stamp must be strictly older")
	}
	if !o.Leq(t2.TID, t3.TID) || !o.Leq(t3.TID, t2.TID) {
		t.Error("equal stamps must be weakly ordered both ways")
	}
	if o.Less(t2.TID, t3.TID) {
		t.Error("equal stamps must not be strict")
	}
	if hasStrictCycle(o) {
		t.Error("seeding must produce a valid order")
	}
}

// Property: seeding from any set of timestamps never creates an invalid
// (strict-cyclic) order, because strict edges always follow strictly
// increasing timestamps.
func TestSeedFromTimestampsAlwaysValid(t *testing.T) {
	f := func(stamps []int8) bool {
		db := NewDatabase()
		r := NewRelation(MustSchema("R", Attribute{"A", TString}))
		for range stamps {
			r.Insert("e", S("v"))
		}
		db.Add(r)
		ti := NewTemporalInstance(db)
		for i, s := range stamps {
			ti.Stamps["R"].Stamp(r.Tuples[i].TID, "A", int64(s))
		}
		ti.SeedFromTimestamps()
		return !hasStrictCycle(ti.Order("R", "A"))
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTemporalOrderCloneAndPairs(t *testing.T) {
	o := NewTemporalOrder("R", "A")
	o.AddWeak(1, 2)
	o.AddStrict(2, 3)
	c := o.Clone()
	c.AddStrict(3, 1) // mutate the clone only
	if o.Less(3, 1) {
		t.Error("clone mutated the original")
	}
	if !c.Less(2, 3) || !c.Leq(1, 2) {
		t.Error("clone lost edges")
	}
	pairs := o.Pairs()
	if len(pairs) != 2 {
		t.Errorf("pairs=%v", pairs)
	}
	if !o.Less(2, 3) || o.Less(1, 2) {
		t.Error("only the 2 < 3 edge is strict")
	}
}

func TestCellRefString(t *testing.T) {
	c := CellRef{Rel: "Person", TID: 7, Attr: "home"}
	if c.String() != "Person[7].home" {
		t.Errorf("cellref string=%q", c.String())
	}
}

// TestTemporalOrderMatchesClosure checks Leq and Less against a
// Floyd–Warshall closure over random DAGs: Leq(i, j) is reflexive-
// transitive reachability, Less(i, j) a path from i to j with a strict
// edge on it. Nodes are scattered TIDs, so the search cannot lean on
// their order.
func TestTemporalOrderMatchesClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(11)
		tid := rng.Perm(10 * n)[:n] // node i's TID; edges go from lower to higher i
		o := NewTemporalOrder("R", "A")
		var edge, strict [12][12]bool
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				switch rng.Intn(6) {
				case 0:
					o.AddWeak(tid[i], tid[j])
					edge[i][j] = true
				case 1:
					o.AddStrict(tid[i], tid[j])
					edge[i][j], strict[i][j] = true, true
				}
			}
		}
		reach := edge // paths of one or more edges
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					reach[i][j] = reach[i][j] || reach[i][k] && reach[k][j]
				}
			}
		}
		upto := func(i, j int) bool { return i == j || reach[i][j] }
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				less := false
				for k := 0; k < n && !less; k++ {
					for l := 0; l < n; l++ {
						if strict[k][l] && upto(i, k) && upto(l, j) {
							less = true
							break
						}
					}
				}
				if got, want := o.Leq(tid[i], tid[j]), upto(i, j); got != want {
					t.Fatalf("trial %d: Leq(%d, %d) = %v, closure says %v", trial, tid[i], tid[j], got, want)
				}
				if got := o.Less(tid[i], tid[j]); got != less {
					t.Fatalf("trial %d: Less(%d, %d) = %v, closure says %v", trial, tid[i], tid[j], got, less)
				}
			}
		}
	}
}

// TestTemporalOrderQueriesDoNotAllocate pins that a warm Leq or Less
// query, hit or miss, allocates nothing: it reads two bits of the
// reachability index the first query built.
func TestTemporalOrderQueriesDoNotAllocate(t *testing.T) {
	o := NewTemporalOrder("R", "A")
	for i := 0; i < 50; i++ {
		o.AddWeak(i, i+1)
	}
	o.AddStrict(20, 21)
	for name, q := range map[string]func() bool{
		"Leq hit":       func() bool { return o.Leq(0, 50) },
		"Leq miss":      func() bool { return o.Leq(50, 0) },
		"Less hit":      func() bool { return o.Less(0, 50) },
		"Less miss":     func() bool { return o.Less(30, 50) },
		"no successors": func() bool { return o.Less(51, 0) },
	} {
		q()
		if n := testing.AllocsPerRun(100, func() { q() }); n != 0 {
			t.Errorf("%s: %v allocations per query, want 0", name, n)
		}
	}
}

// hasStrictCycle reports whether the order is invalid: some pair with
// both t1 ≺ t2 and t2 ⪯ t1 in the closure (paper §4.1 validity condition
// (b)).
func hasStrictCycle(o *TemporalOrder) bool {
	for from, tos := range o.strictSucc {
		for to := range tos {
			if o.Leq(to, from) {
				return true
			}
		}
	}
	return false
}

// bfsReach is the reference reachability: a breadth-first search over
// (node, strict edge used) states for a path of one or more edges from
// one node to another, with a strict edge on it when strict is set.
func bfsReach(o *TemporalOrder, from, to int, strict bool) bool {
	type state struct {
		node   int
		strict bool
	}
	seen := map[state]bool{}
	queue := []state{{from, false}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for next := range o.succ[cur.node] {
			st := state{next, cur.strict || o.strictSucc[cur.node][next]}
			if next == to && (st.strict || !strict) {
				return true
			}
			if !seen[st] {
				seen[st] = true
				queue = append(queue, st)
			}
		}
	}
	return false
}

// checkAgainstBFS fails unless Leq and Less agree with the reference
// search on every ordered pair of nodes.
func checkAgainstBFS(t *testing.T, when string, o *TemporalOrder, nodes []int) {
	t.Helper()
	for _, a := range nodes {
		for _, b := range nodes {
			if got, want := o.Leq(a, b), a == b || bfsReach(o, a, b, false); got != want {
				t.Fatalf("%s: Leq(%d, %d) = %v, BFS says %v", when, a, b, got, want)
			}
			if got, want := o.Less(a, b), a != b && bfsReach(o, a, b, true); got != want {
				t.Fatalf("%s: Less(%d, %d) = %v, BFS says %v", when, a, b, got, want)
			}
		}
	}
}

// TestTemporalIndexMatchesBFS checks the reachability index against a
// breadth-first search on random graphs of weak and strict edges in
// both directions, so cycles (strict ones included) occur: once when
// the first query builds the index from the edges, and again after each
// insert made after the build, which updates the index in place. Nodes
// are scattered TIDs, and some appear only in later inserts.
func TestTemporalIndexMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(14)
		nodes := rng.Perm(20 * n)[:n]
		o := NewTemporalOrder("R", "A")
		addRandom := func(k int) {
			for ; k > 0; k-- {
				a, b := nodes[rng.Intn(n)], nodes[rng.Intn(n)]
				if rng.Intn(3) == 0 {
					o.AddStrict(a, b)
				} else {
					o.AddWeak(a, b)
				}
			}
		}
		addRandom(rng.Intn(2 * n))
		checkAgainstBFS(t, "after the build", o, nodes)
		for step := 0; step < n; step++ {
			addRandom(1)
			checkAgainstBFS(t, "after an insert", o, nodes)
		}
	}
}

// TestTemporalIndexConcurrentReaders has readers race to build and query
// one index (run under -race), then inserts between reader waves, as the
// fix set's contract allows, and checks every wave against the BFS.
func TestTemporalIndexConcurrentReaders(t *testing.T) {
	o := NewTemporalOrder("R", "A")
	for i := 0; i < 40; i++ {
		o.AddWeak(i, i+1)
		if i%7 == 0 {
			o.AddStrict(i, i+2)
		}
	}
	nodes := make([]int, 45)
	for i := range nodes {
		nodes[i] = i
	}
	for wave := 0; wave < 3; wave++ {
		want := make([][2]bool, 0, len(nodes)*len(nodes))
		for _, a := range nodes {
			for _, b := range nodes {
				want = append(want, [2]bool{a == b || bfsReach(o, a, b, false), a != b && bfsReach(o, a, b, true)})
			}
		}
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				k := 0
				for _, a := range nodes {
					for _, b := range nodes {
						if got := [2]bool{o.Leq(a, b), o.Less(a, b)}; got != want[k] {
							t.Errorf("wave %d: (Leq, Less)(%d, %d) = %v, BFS says %v", wave, a, b, got, want[k])
							return
						}
						k++
					}
				}
			}()
		}
		wg.Wait()
		o.AddStrict(41+wave, 3*wave)
		o.AddWeak(10*wave+5, 42+wave)
	}
}

// BenchmarkTemporalLeq queries a complete DAG of 186 nodes (every pair
// of distinct timestamps ordered, strictly), the shape timestamp seeding
// gives an order whose every cell carries a distinct timestamp.
func BenchmarkTemporalLeq(b *testing.B) {
	const n = 186
	o := NewTemporalOrder("R", "A")
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			o.AddStrict(i, j)
		}
	}
	o.Leq(0, 1) // builds the index
	b.ResetTimer()
	hits := 0
	for k := 0; k < b.N; k++ {
		i, j := k%n, (k*7+3)%n
		if o.Leq(i, j) {
			hits++
		}
		if o.Less(j, i) {
			hits++
		}
	}
	benchSink = hits
}

var benchSink int
