package ml_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/rockclean/rock/internal/chase"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/ml"
	"github.com/rockclean/rock/internal/workload"
)

// corrStrengthDigests are the SHA-256 digests of every Strength answer
// TestCorrStrengthPinnedApps asks, recorded on the string-keyed model the
// interned one replaced: the ids must score every query bit-identically.
var corrStrengthDigests = map[string]string{
	"bank":      "5d39fe801d2eb43877d8aedb1bfb4a2044e4cf825069a874f145cdf22e4047fb",
	"logistics": "9deaf1f80f56c9d11ae202b39919b4273141b3240409ad5d49712c8d78ddb5b2",
	"sales":     "d42f876cfcef69a3dd58b422225436543dcb275d54c6009a151e597b3a280155",
}

// TestCorrStrengthPinnedApps pins Mc's strengths on the three generated
// applications at N = 300. The queries cover what a chase can ask: every
// tuple as loaded and as a clean leaves it (validated cells over raw
// values), every attribute, and every value its column holds in either
// form, in a fixed order; the digest covers each answer's float bits.
func TestCorrStrengthPinnedApps(t *testing.T) {
	apps := map[string]func(workload.Config) *workload.Dataset{
		"bank": workload.Bank, "logistics": workload.Logistics, "sales": workload.Sales,
	}
	for name, gen := range apps {
		t.Run(name, func(t *testing.T) {
			ds := gen(workload.Config{N: 300, Seed: 11})
			env := ds.BuildEnv()
			opts := chase.DefaultOptions()
			opts.Workers, opts.Parallel = 1, false
			eng := chase.New(env, ds.Rules, ds.Gamma, opts)
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			u := eng.Truth()
			h := sha256.New()
			queries := 0
			var buf [8]byte
			for _, relName := range ds.DB.Names() {
				rel := ds.DB.Rel(relName)
				mc := env.Corr["M_c_"+relName]
				if mc == nil {
					t.Fatalf("no correlation model for %s", relName)
				}
				var tuples []*data.Tuple
				for _, tp := range rel.Tuples {
					tuples = append(tuples, tp)
					view := tp.Clone()
					changed := false
					for i, a := range rel.Schema.Attrs {
						if v, ok := u.Cell(relName, tp.EID, a.Name); ok {
							view.Values[i] = v
							changed = true
						}
					}
					if changed {
						tuples = append(tuples, view)
					}
				}
				for bi := range rel.Schema.Attrs {
					seen := map[string]data.Value{}
					for _, tp := range tuples {
						seen[tp.Values[bi].Key()] = tp.Values[bi]
					}
					keys := make([]string, 0, len(seen))
					for k := range seen {
						keys = append(keys, k)
					}
					sort.Strings(keys)
					for _, tp := range tuples {
						for _, k := range keys {
							s := mc.Strength(tp, nil, bi, seen[k])
							binary.BigEndian.PutUint64(buf[:], math.Float64bits(s))
							h.Write(buf[:])
							queries++
						}
					}
				}
			}
			got := fmt.Sprintf("%x", h.Sum(nil))
			t.Logf("%s: %d queries, digest %s", name, queries, got)
			if want := corrStrengthDigests[name]; got != want {
				t.Errorf("%s: Strength digest %s, want %s", name, got, want)
			}
		})
	}
}

// TestCorrIDsAgreeWithValueKey checks that Mc counts a value by its Key:
// I(3), F(3) and TS(3) are one value, -0 and +0 are two, every NaN is one,
// and nulls, typed or not, are neither counted nor scored. The pinned
// strengths were recorded on the string-keyed model.
func TestCorrIDsAgreeWithValueKey(t *testing.T) {
	s := must(data.NewSchema("R",
		data.Attribute{Name: "k", Type: data.TString},
		data.Attribute{Name: "n", Type: data.TFloat},
	))
	r := data.NewRelation(s)
	for i := 0; i < 3; i++ {
		r.Insert("e", data.S("three"), data.I(3))
		r.Insert("e", data.S("three"), data.F(3))
		r.Insert("e", data.S("three"), data.TS(3))
		r.Insert("e", data.S("neg"), data.F(math.Copysign(0, -1)))
		r.Insert("e", data.S("pos"), data.F(0))
		r.Insert("e", data.S("nan"), data.F(math.NaN()))
		r.Insert("e", data.S("nan"), data.F(-math.NaN()))
		r.Insert("e", data.S("null"), data.Null(data.TInt))
		r.Insert("e", data.Null(data.TString), data.F(3))
	}
	m := ml.NewCorrelationModel("M_c", s)
	m.Train(r.Tuples)
	probe := func(k data.Value) *data.Tuple {
		return &data.Tuple{EID: "p", Values: []data.Value{k, data.Null(data.TFloat)}}
	}
	three := probe(data.S("three"))
	for _, c := range []data.Value{data.F(3), data.TS(3)} {
		if a, b := m.Strength(three, nil, 1, data.I(3)), m.Strength(three, nil, 1, c); a != b {
			t.Errorf("Strength(I(3)) = %v, Strength(%v) = %v: one value, two scores", a, c, b)
		}
	}
	cases := []struct {
		name string
		t    *data.Tuple
		b    int
		c    data.Value
		want uint64
	}{
		{"three/I3", three, 1, data.I(3), 0x3feb1d501f444c6e},
		{"neg/-0", probe(data.S("neg")), 1, data.F(math.Copysign(0, -1)), 0x3fee7254813da5e2},
		{"neg/+0", probe(data.S("neg")), 1, data.F(0), 0x3fbd89d89d81f0ff},
		{"pos/+0", probe(data.S("pos")), 1, data.F(0), 0x3fee7254813da5e2},
		{"nan/NaN", probe(data.S("nan")), 1, data.F(math.NaN()), 0x3fed214a9e6bb49a},
		{"three/NaN", three, 1, data.F(math.NaN()), 0x3f98618618602d6e},
		{"null/typed", probe(data.S("null")), 1, data.Null(data.TInt), 0},
		{"nullanchor", probe(data.Null(data.TString)), 1, data.F(3), 0},
		{"n3/k", &data.Tuple{EID: "p", Values: []data.Value{data.Null(data.TString), data.TS(3)}}, 0, data.S("three"), 0x3fe71d501f444c6e},
		{"n-0/k", &data.Tuple{EID: "p", Values: []data.Value{data.Null(data.TString), data.F(math.Copysign(0, -1))}}, 0, data.S("neg"), 0x3fee7254813da5e2},
		{"nNaN/k", &data.Tuple{EID: "p", Values: []data.Value{data.Null(data.TString), data.F(math.NaN())}}, 0, data.S("nan"), 0x3fed214a9e6bb49a},
	}
	for _, c := range cases {
		if got := math.Float64bits(m.Strength(c.t, nil, c.b, c.c)); got != c.want {
			t.Errorf("%s: Strength = %v (%#x), want %v (%#x)", c.name, math.Float64frombits(got), got, math.Float64frombits(c.want), c.want)
		}
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
