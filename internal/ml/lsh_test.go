package ml

import (
	"fmt"
	"testing"
)

func TestLSHRecallAndFiltering(t *testing.T) {
	lsh := NewLSH(8, 6, 1)
	b := NewBlocker(lsh)
	// 30 near-duplicate pairs plus 60 random strings.
	var vecs []Vector
	wantPairs := map[[2]int]bool{}
	for i := 0; i < 30; i++ {
		s := fmt.Sprintf("ACME Global Trading Co branch %d", i)
		wantPairs[[2]int{len(vecs), len(vecs) + 1}] = true
		vecs = append(vecs, Embed(s), Embed(s+" ltd"))
	}
	for i := 0; i < 60; i++ {
		vecs = append(vecs, Embed(fmt.Sprintf("totally unrelated %d %d xyz", i*17, i*i)))
	}
	for id, v := range vecs {
		b.Add(id, v)
	}
	// Probe the index with every item, as the executor probes one block
	// with the tuples of another; an unordered pair is one candidate.
	cands := map[[2]int]bool{}
	for id, v := range vecs {
		for _, other := range b.CandidatesOf(v, id) {
			cands[[2]int{min(id, other), max(id, other)}] = true
		}
	}
	found := 0
	for p := range wantPairs {
		if cands[p] {
			found++
		}
	}
	n := len(vecs)
	recall := float64(found) / float64(len(wantPairs))
	if recall < 0.9 {
		t.Errorf("LSH recall=%f want >= 0.9", recall)
	}
	allPairs := n * (n - 1) / 2
	if len(cands) >= allPairs {
		t.Errorf("LSH produced %d candidates out of %d possible — no filtering", len(cands), allPairs)
	}
}

func TestLSHDeterministic(t *testing.T) {
	a := NewLSH(4, 8, 42)
	b := NewLSH(4, 8, 42)
	v := Embed("same input")
	sa, sb := a.Signatures(v), b.Signatures(v)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatal("same seed must produce same signatures")
		}
	}
}

func TestBlockerCandidatesOf(t *testing.T) {
	lsh := NewLSH(8, 6, 2)
	b := NewBlocker(lsh)
	b.Add(0, Embed("Huawei Mate X2 Limited Sold"))
	b.Add(1, Embed("Huawei Mate X2 (Limited Sold)"))
	b.Add(2, Embed("completely different thing entirely"))
	got := b.CandidatesOf(Embed("Huawei Mate X2 Limited"), -1)
	has := map[int]bool{}
	for _, id := range got {
		has[id] = true
	}
	if !has[0] || !has[1] {
		t.Errorf("expected near duplicates in candidates, got %v", got)
	}
	if b.Size() != 3 {
		t.Error("size")
	}
	// exclude works
	got = b.CandidatesOf(Embed("Huawei Mate X2 Limited"), 0)
	for _, id := range got {
		if id == 0 {
			t.Error("excluded id returned")
		}
	}
}
