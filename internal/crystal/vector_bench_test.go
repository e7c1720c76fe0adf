package crystal

import (
	"math/rand"
	"sort"
	"testing"
)

// BenchmarkPostingIntersect times the galloping sorted intersection on
// the imbalanced shape posting-probe joins hit: a short posting list
// against a large partition TID array.
func BenchmarkPostingIntersect(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	hay := make([]int, 1<<20)
	for i := range hay {
		hay[i] = i * 2
	}
	needles := make([]int, 1024)
	for i := range needles {
		needles[i] = rng.Intn(1 << 21)
	}
	seen := map[int]bool{}
	out := needles[:0]
	for _, x := range needles {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	needles = out
	sort.Ints(needles)
	var dst []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = IntersectPositions(dst[:0], needles, hay)
	}
}
