package ml

import "math/rand"

// LSH implements random-hyperplane locality-sensitive hashing over the
// package's embeddings: Rock uses it to block candidate pairs for ML
// predicates M(t[A̅], s[B̅]) so that ML inference avoids the quadratic
// all-pairs sweep (paper §5.3: "If M(t[A],s[B]) = true, then
// LSH(t[A]) = LSH(s[B]) with high probability"). Vectors are hashed into
// `Bands` independent signatures of `BitsPerBand` sign bits; two vectors
// are candidates iff they share at least one band signature.
type LSH struct {
	Bands       int
	BitsPerBand int
	planes      [][]Vector // [band][bit]
}

// NewLSH builds hash planes deterministically from the seed. Typical
// settings: 8 bands of 6 bits catch cosine ≳ 0.8 pairs with high recall.
func NewLSH(bands, bitsPerBand int, seed int64) *LSH {
	rng := rand.New(rand.NewSource(seed))
	l := &LSH{Bands: bands, BitsPerBand: bitsPerBand}
	l.planes = make([][]Vector, bands)
	for b := range l.planes {
		l.planes[b] = make([]Vector, bitsPerBand)
		for i := range l.planes[b] {
			var v Vector
			for d := range v {
				v[d] = rng.NormFloat64()
			}
			l.planes[b][i] = v.Normalize()
		}
	}
	return l
}

// Signatures returns one band signature per band for the vector.
func (l *LSH) Signatures(v Vector) []uint64 {
	sigs := make([]uint64, l.Bands)
	for b := 0; b < l.Bands; b++ {
		var sig uint64
		for i := 0; i < l.BitsPerBand; i++ {
			sig <<= 1
			if l.planes[b][i].Dot(v) >= 0 {
				sig |= 1
			}
		}
		sigs[b] = sig
	}
	return sigs
}

// Blocker groups items (identified by int ids) into LSH buckets and
// returns the candidates a probe vector shares a bucket with. It is the
// filter of the filter-and-verify paradigm of paper §5.4 ("ML
// predication"): the model then verifies only the candidates.
type Blocker struct {
	lsh     *LSH
	buckets []map[uint64][]int // per band
	n       int
}

// NewBlocker creates a blocker with the given LSH family.
func NewBlocker(lsh *LSH) *Blocker {
	b := &Blocker{lsh: lsh, buckets: make([]map[uint64][]int, lsh.Bands)}
	for i := range b.buckets {
		b.buckets[i] = make(map[uint64][]int)
	}
	return b
}

// Add indexes an item's vector under its id.
func (b *Blocker) Add(id int, v Vector) {
	sigs := b.lsh.Signatures(v)
	for band, sig := range sigs {
		b.buckets[band][sig] = append(b.buckets[band][sig], id)
	}
	b.n++
}

// CandidatesOf returns the ids sharing at least one bucket with v,
// excluding exclude, in band order and, within a bucket, in insertion
// order — so a probe's candidate order is deterministic.
func (b *Blocker) CandidatesOf(v Vector, exclude int) []int {
	sigs := b.lsh.Signatures(v)
	seen := make(map[int]bool)
	var out []int
	for band, sig := range sigs {
		for _, id := range b.buckets[band][sig] {
			if id != exclude && !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// Size returns the number of indexed items.
func (b *Blocker) Size() int { return b.n }
