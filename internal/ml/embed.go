// Package ml provides the machine-learning substrate that Rock embeds in
// REE++ rules as predicates. The paper uses heavyweight neural models (Bert
// matchers, an LSTM path aligner, a pairwise neural ranker, graph + language
// model embeddings); this package substitutes lightweight, dependency-free
// equivalents that honour the same Boolean-predicate contracts (see
// DESIGN.md, "Scope and substitutions"):
//
//   - character n-gram hashing embeddings with cosine similarity stand in
//     for transformer text encoders;
//   - a threshold matcher over those embeddings stands in for Bert-style ER
//     models M(t[A̅], s[B̅]);
//   - a pairwise logistic ranker trained in a creator–critic loop stands in
//     for the Mrank temporal ranking model;
//   - co-occurrence statistics and kNN value suggestion stand in for the
//     Mc correlation and Md imputation models;
//   - LSH over embedding sign bits provides the blocking used to avoid
//     quadratic ML inference (paper §5.3);
//   - a coordinate-descent LASSO and a stump-ensemble feature ranker stand
//     in for the polynomial-expression learner and XGBoost (paper §5.4).
package ml

import (
	"math"
	"strings"
	"sync"
	"unicode/utf8"

	"github.com/rockclean/rock/internal/data"
)

// EmbedDim is the dimensionality of the hashing embeddings. 64 keeps the
// vectors cache-friendly while leaving cosine similarities well-behaved for
// realistic strings.
const EmbedDim = 64

// Vector is a dense embedding.
type Vector [EmbedDim]float64

// Embed maps a string to a vector by hashing its character trigrams (plus
// whole tokens) into buckets — the classic "hashing trick". Similar strings
// share many n-grams and therefore land close in cosine space.
func Embed(s string) Vector { return embedNormalized(normalize(s)) }

// embedNormalized is Embed of a normalised string. Every gram — each 2-
// and 3-rune window of the space-padded string, and each token wrapped
// in '#' — is hashed in place (FNV-32a over its UTF-8 bytes), so no gram
// string is ever built.
func embedNormalized(s string) Vector {
	var v Vector
	if s == "" {
		return v
	}
	add := func(sum uint32) {
		sign := 1.0
		if (sum>>16)&1 == 1 {
			sign = -1.0
		}
		v[sum%EmbedDim] += sign
	}
	var buf [64]rune
	runes := append(buf[:0], ' ')
	for _, r := range s {
		runes = append(runes, r)
	}
	runes = append(runes, ' ')
	for _, n := range [2]int{2, 3} {
		if len(runes) < n {
			add(hashRunes(runes))
			continue
		}
		for i := 0; i+n <= len(runes); i++ {
			add(hashRunes(runes[i : i+n]))
		}
	}
	// normalize leaves the tokens joined by single spaces.
	for start, i := 0, 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ' ' {
			h := fnvByte(fnvOffset, '#')
			for j := start; j < i; j++ {
				h = fnvByte(h, s[j])
			}
			add(fnvByte(h, '#'))
			start = i + 1
		}
	}
	return v.Normalize()
}

// FNV-32a, inline.
const (
	fnvOffset uint32 = 2166136261
	fnvPrime  uint32 = 16777619
)

func fnvByte(h uint32, b byte) uint32 { return (h ^ uint32(b)) * fnvPrime }

// hashRunes is the FNV-32a hash of the UTF-8 encoding of runes.
func hashRunes(runes []rune) uint32 {
	h := fnvOffset
	var enc [utf8.UTFMax]byte
	for _, r := range runes {
		n := utf8.EncodeRune(enc[:], r)
		for _, b := range enc[:n] {
			h = fnvByte(h, b)
		}
	}
	return h
}

// EmbedValues embeds a vector of attribute values by averaging their
// individual embeddings (numeric values embed via their textual rendering,
// prefixed so "12" the price and "12" the street number hash apart less
// often than raw digits would).
func EmbedValues(vals []data.Value) Vector {
	var acc Vector
	n := 0
	for _, val := range vals {
		if val.IsNull() {
			continue
		}
		acc = acc.Add(Embed(val.String()))
		n++
	}
	if n == 0 {
		return acc
	}
	return acc.Scale(1 / float64(n)).Normalize()
}

func normalize(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(s)), " ")
}

// Add returns v + w.
func (v Vector) Add(w Vector) Vector {
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// Scale returns v * k.
func (v Vector) Scale(k float64) Vector {
	for i := range v {
		v[i] *= k
	}
	return v
}

// Dot returns the inner product.
func (v Vector) Dot(w Vector) float64 {
	s := 0.0
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm returns the Euclidean norm.
func (v Vector) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Normalize returns v scaled to unit norm (or v itself if zero).
func (v Vector) Normalize() Vector {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Cosine returns the cosine similarity of two vectors in [-1, 1]; zero
// vectors yield 0.
func Cosine(a, b Vector) float64 {
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	return a.Dot(b) / (na * nb)
}

// StringSim is a convenience: the maximum of embedding-cosine similarity
// and edit similarity, in [0, 1]. The blend mirrors production ER
// matchers: n-gram cosine captures token overlap on long values, edit
// similarity captures single-typo corruptions of short values (where a
// character swap destroys most n-grams).
func StringSim(a, b string) float64 {
	na, nb := normalize(a), normalize(b)
	if na == nb {
		return 1
	}
	c := Cosine(embedNormalized(na), embedNormalized(nb))
	if c < 0 {
		c = 0
	}
	// The O(len²) edit-distance pass only changes the outcome for short
	// values (a typo in a long string barely moves 1 - dist/len, and
	// n-gram cosine already covers token overlap), so pathological long
	// pairs short-circuit to cosine-only similarity.
	if len(na) > MaxEditLen || len(nb) > MaxEditLen {
		return c
	}
	if e := EditSim(na, nb); e > c {
		return e
	}
	return c
}

// MaxEditLen is the per-string length cutoff beyond which StringSim
// skips the quadratic Damerau-Levenshtein pass.
const MaxEditLen = 256

// EditSim is normalised Damerau-Levenshtein similarity:
// 1 - dist/max(len). Transpositions count as one edit.
func EditSim(a, b string) float64 {
	la, lb := len(a), len(b)
	if la == 0 && lb == 0 {
		return 1
	}
	max := la
	if lb > max {
		max = lb
	}
	d := damerau(a, b)
	return 1 - float64(d)/float64(max)
}

// damerauScratch recycles the three DP rows damerau needs; pooling them
// removes three allocations per EditSim call on the chase hot path.
type damerauScratch struct{ rows []int }

var damerauPool = sync.Pool{New: func() interface{} { return &damerauScratch{} }}

// damerau computes the Damerau-Levenshtein distance (optimal string
// alignment variant) between byte strings.
func damerau(a, b string) int {
	la, lb := len(a), len(b)
	w := lb + 1
	sc := damerauPool.Get().(*damerauScratch)
	if cap(sc.rows) < 3*w {
		sc.rows = make([]int, 3*w)
	}
	rows := sc.rows[:3*w]
	prev2 := rows[0*w : 1*w : 1*w]
	prev := rows[1*w : 2*w : 2*w]
	cur := rows[2*w : 3*w : 3*w]
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := cur[j-1] + 1 // insertion
			if v := prev[j] + 1; v < m {
				m = v // deletion
			}
			if v := prev[j-1] + cost; v < m {
				m = v // substitution
			}
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				if v := prev2[j-2] + 1; v < m {
					m = v // transposition
				}
			}
			cur[j] = m
		}
		prev2, prev, cur = prev, cur, prev2
	}
	d := prev[lb]
	damerauPool.Put(sc)
	return d
}
