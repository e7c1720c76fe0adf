package ml

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/rockclean/rock/internal/data"
)

func TestEmbedSimilarStringsAreClose(t *testing.T) {
	a := Embed("5 Beijing West Road")
	b := Embed("5 Beijing  West Road ") // whitespace noise
	c := Embed("IPhone 14 discount code 41")
	if Cosine(a, b) < 0.95 {
		t.Errorf("near-identical strings similarity too low: %f", Cosine(a, b))
	}
	if Cosine(a, c) > 0.5 {
		t.Errorf("unrelated strings similarity too high: %f", Cosine(a, c))
	}
}

func TestStringSimBounds(t *testing.T) {
	f := func(a, b string) bool {
		s := StringSim(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if StringSim("same", "same") != 1 {
		t.Error("identical strings must score 1")
	}
	if StringSim("Same ", " saME") != 1 {
		t.Error("case/space-insensitive identity must score 1")
	}
}

func TestVectorOps(t *testing.T) {
	v := Embed("hello")
	if math.Abs(v.Norm()-1) > 1e-9 {
		t.Errorf("embeddings must be unit norm, got %f", v.Norm())
	}
	var zero Vector
	if zero.Normalize().Norm() != 0 {
		t.Error("zero vector normalizes to itself")
	}
	if Cosine(zero, v) != 0 {
		t.Error("cosine with zero vector is 0")
	}
	w := v.Scale(2)
	if math.Abs(w.Norm()-2) > 1e-9 {
		t.Error("scale broken")
	}
	if math.Abs(Cosine(v, w)-1) > 1e-9 {
		t.Error("cosine must be scale-invariant")
	}
}

func TestEmbedValuesSkipsNulls(t *testing.T) {
	vals := []data.Value{data.S("beijing"), data.Null(data.TString)}
	only := []data.Value{data.S("beijing")}
	if Cosine(EmbedValues(vals), EmbedValues(only)) < 0.999 {
		t.Error("nulls must not perturb the embedding")
	}
	var empty Vector
	if EmbedValues([]data.Value{data.Null(data.TString)}) != empty {
		t.Error("all-null vector embeds to zero")
	}
}

func TestSimilarityMatcher(t *testing.T) {
	m := NewSimilarityMatcher("M_ER", 0.8)
	if m.Name() != "M_ER" {
		t.Error("name")
	}
	same := []data.Value{data.S("IPhone 14 (Discount ID 41)")}
	near := []data.Value{data.S("IPhone 14 (Discount Code 41)")}
	far := []data.Value{data.S("Mate X2 (Limited Sold)")}
	if !m.Predict(same, near) {
		t.Errorf("near-duplicate commodities must match: conf=%f", m.Confidence(same, near))
	}
	if m.Predict(same, far) {
		t.Errorf("different commodities must not match: conf=%f", m.Confidence(same, far))
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Get("nope"); err == nil {
		t.Error("missing model must error")
	}
	m := NewSimilarityMatcher("M_ER", 0.8)
	r.Register(m)
	got, err := r.Get("M_ER")
	if err != nil || got != Model(m) {
		t.Error("registry lookup failed")
	}
	if len(r.Names()) != 1 {
		t.Error("names")
	}
}

func TestCachedModel(t *testing.T) {
	calls := 0
	inner := &FuncModel{ModelName: "f", Threshold: 0.5, Score: func(l, r []data.Value) float64 {
		calls++
		return 0.9
	}}
	c := NewCachedModel(inner)
	l := []data.Value{data.S("a")}
	r := []data.Value{data.S("b")}
	if !c.Predict(l, r) || !c.Predict(l, r) || c.Confidence(l, r) != 0.9 {
		t.Error("cached decisions wrong")
	}
	if calls != 1 {
		t.Errorf("inner model called %d times, want 1", calls)
	}
	if h, m := c.hits.Load(), c.misses.Load(); h+m != 3 || h != 2 {
		t.Errorf("stats=%d/%d", h, h+m)
	}
}

// embedByGramStrings is Embed as first written: every gram built as a
// string and hashed with hash/fnv. The in-place hashing must agree with it
// bit for bit.
func embedByGramStrings(s string) Vector {
	var v Vector
	s = normalize(s)
	if s == "" {
		return v
	}
	grams := func(n int) []string {
		runes := []rune(" " + s + " ")
		if len(runes) < n {
			return []string{string(runes)}
		}
		var out []string
		for i := 0; i+n <= len(runes); i++ {
			out = append(out, string(runes[i:i+n]))
		}
		return out
	}
	all := append(grams(2), grams(3)...)
	for _, tok := range strings.Fields(s) {
		all = append(all, "#"+tok+"#")
	}
	for _, g := range all {
		h := fnv.New32a()
		h.Write([]byte(g))
		sum := h.Sum32()
		sign := 1.0
		if (sum>>16)&1 == 1 {
			sign = -1.0
		}
		v[sum%EmbedDim] += sign
	}
	return v.Normalize()
}

func TestEmbedMatchesGramStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	alphabet := []rune("abcXYZ 019.-\tÉé中  ")
	inputs := []string{"", " ", "a", "ab", "Huawei Flagship", "  Mate  X2 (Limited)  ", "\xff\xfe bad utf8", "北京 上海"}
	for i := 0; i < 500; i++ {
		r := make([]rune, rng.Intn(90))
		for j := range r {
			r[j] = alphabet[rng.Intn(len(alphabet))]
		}
		inputs = append(inputs, string(r))
	}
	for _, s := range inputs {
		if got, want := Embed(s), embedByGramStrings(s); got != want {
			t.Fatalf("Embed(%q) differs from the gram-string reference", s)
		}
	}
}
