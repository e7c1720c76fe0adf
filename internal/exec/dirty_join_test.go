package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/rockclean/rock/internal/crystal"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/must"
	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/ree"
)

// dirtyJoinEnv is the fixture of the dirty-side join oracle: R(k) joins
// itself, A(x) joins B(y) through a translation (each holds values the
// other's dictionary lacks), every column has nulls, and the env's view
// moves one tuple in ten onto another value of its own column, a value
// only the other relation holds, a value no dictionary holds, null, or
// its raw value, and shadows those tuples.
func dirtyJoinEnv(rng *rand.Rand, n int) *predicate.Env {
	db := data.NewDatabase()
	for _, spec := range []struct{ rel, attr, own string }{{"R", "k", "r"}, {"A", "x", "a"}, {"B", "y", "b"}} {
		rel := data.NewRelation(must.Schema(spec.rel, data.Attribute{Name: spec.attr, Type: data.TString}))
		for i := 0; i < n; i++ {
			var v data.Value
			switch d := rng.Intn(20); {
			case d < 2:
				v = data.Null(data.TString)
			case d < 5:
				v = data.S(fmt.Sprintf("%s-only%d", spec.own, rng.Intn(3)))
			default:
				v = data.S(fmt.Sprintf("v%d", rng.Intn(12)))
			}
			rel.Insert(fmt.Sprintf("%s%d", spec.own, i), v)
		}
		db.Add(rel)
	}
	view := map[string]map[int]data.Value{}
	shadow := map[string]map[int]bool{}
	for _, name := range []string{"R", "A", "B"} {
		view[name], shadow[name] = map[int]data.Value{}, map[int]bool{}
		for _, t := range db.Rel(name).Tuples {
			if rng.Intn(10) != 0 {
				continue
			}
			shadow[name][t.TID] = true
			switch rng.Intn(5) {
			case 0:
				view[name][t.TID] = data.S(fmt.Sprintf("v%d", rng.Intn(12)))
			case 1:
				view[name][t.TID] = data.S(fmt.Sprintf("%s-only%d", []string{"a", "b"}[rng.Intn(2)], rng.Intn(3)))
			case 2:
				view[name][t.TID] = data.S(fmt.Sprintf("nowhere%d", rng.Intn(2)))
			case 3:
				view[name][t.TID] = data.Null(data.TString)
			}
		}
	}
	env := predicate.NewEnv(db)
	env.View = newTestView(func(rel string, t *data.Tuple, attr string) data.Value {
		if v, ok := view[rel][t.TID]; ok {
			return v
		}
		return t.Values[0]
	}, shadow)
	return env
}

// randomDirty marks a few random tuples of each relation dirty — or, now
// and then, half of them (the dense case the join walks in full) or none
// (a nil set).
func randomDirty(rng *rand.Rand, n int) map[string]map[int]bool {
	out := map[string]map[int]bool{}
	for _, name := range []string{"R", "A", "B"} {
		k := rng.Intn(6)
		switch rng.Intn(6) {
		case 0:
			continue
		case 1:
			k = n / 2
		}
		out[name] = map[int]bool{}
		for i := 0; i < k; i++ {
			out[name][rng.Intn(n)] = true
		}
	}
	return out
}

// TestDirtyPostingJoinMatchesFilteredFullJoin: under a dirty filter the
// posting join visits only the t that can pair with a dirty tuple. Its
// pairs, in order, must be the unfiltered join's pairs with a dirty side
// — over random dirty sets, shadowed t and s, null join values, view
// values absent from the s-side dictionary, a cross-relation join through
// a translation, and whole relations as well as blocks.
func TestDirtyPostingJoinMatchesFilteredFullJoin(t *testing.T) {
	const n = 400
	sparse, runs := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		env := dirtyJoinEnv(rng, n)
		reg := obs.New()
		e := New(env)
		e.SetObs(reg)
		for _, src := range []string{"R(t) ^ R(s) ^ t.k = s.k -> t.eid = s.eid", "A(t) ^ B(s) ^ t.x = s.y -> t.eid = s.eid"} {
			r := must.Rule(src, env.DB)
			p := r.X[0]
			relT, relS := env.DB.Rel(r.RelOf(p.T)), env.DB.Rel(r.RelOf(p.S))
			for _, b := range []int{1, 3} {
				blocksT, blocksS := env.Columns.Blocks(relT, b), env.Columns.Blocks(relS, b)
				for i := range blocksT {
					for j := range blocksS {
						restrict := map[string]crystal.Block{p.T: blocksT[i], p.S: blocksS[j]}
						if b == 1 {
							restrict = nil // whole relations: partitionOf's own block
						}
						all := joinPairs(t, e, r, Options{RestrictVar: restrict})
						for trial := 0; trial < 8; trial++ {
							dirty := randomDirty(rng, n)
							opts := Options{RestrictVar: restrict, Dirty: dirty}
							var want [][2]int
							for _, pr := range all {
								if dirty[relT.Schema.Name][pr[0]] || dirty[relS.Schema.Name][pr[1]] {
									want = append(want, pr)
								}
							}
							before := reg.CounterValue("exec.vec.dirty_side_joins")
							got := joinPairs(t, e, r, opts)
							runs++
							if reg.CounterValue("exec.vec.dirty_side_joins") > before {
								sparse++
							}
							if !slices.Equal(got, want) {
								t.Fatalf("seed %d, %s, blocks %d/%d of %d, dirty %v:\n got %v\nwant %v", seed, src, i, j, b, dirty, got, want)
							}
						}
					}
				}
			}
		}
	}
	if sparse < runs/2 {
		t.Fatalf("%d of %d filtered joins took the dirty-side walk, want at least half", sparse, runs)
	}
}

// joinPairs runs r's driving equality join alone and returns its pairs
// as TIDs, in emission order.
func joinPairs(t *testing.T, e *Executor, r *ree.Rule, opts Options) [][2]int {
	t.Helper()
	fr, err := r.Compile(e.env.DB)
	if err != nil {
		t.Fatal(err)
	}
	p := fr.X[0]
	pairs, err := e.hashJoin(fr, p, opts, e.partitionOf(fr, p.TSlot, opts), e.partitionOf(fr, p.SSlot, opts))
	if err != nil {
		t.Fatal(err)
	}
	out := make([][2]int, len(pairs))
	for i, pr := range pairs {
		out[i] = [2]int{pr[0].TID, pr[1].TID}
	}
	putPairBuf(pairs)
	return out
}
