package crystal

import (
	"math/rand"
	"sort"
	"testing"
)

// refIntersect is the naive reference for both intersection kernels.
func refIntersect(a, b []int) []int {
	in := make(map[int]bool, len(b))
	for _, x := range b {
		in[x] = true
	}
	var out []int
	for _, x := range a {
		if in[x] {
			out = append(out, x)
		}
	}
	return out
}

func sortedSet(rng *rand.Rand, n, span int) []int {
	seen := make(map[int]bool, n)
	for len(seen) < n {
		seen[rng.Intn(span)] = true
	}
	out := make([]int, 0, n)
	for x := range seen {
		out = append(out, x)
	}
	sort.Ints(out)
	return out
}

func TestBitmapSetClear(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		bits := make([]uint64, BitmapWords(n))
		if want := (n + 63) / 64; len(bits) != want {
			t.Fatalf("n=%d: %d words, want %d", n, len(bits), want)
		}
		for i := range bits {
			bits[i] = 0xdeadbeef // dirty
		}
		BitmapClearAll(bits)
		for _, w := range bits {
			if w != 0 {
				t.Fatalf("n=%d: ClearAll left bits", n)
			}
		}
	}
}

// TestIntersectKernels sweeps size ratios that exercise all three
// strategies (merge walk, gallop-needles, gallop-hay) against the naive
// reference, for values and for positions.
func TestIntersectKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := [][2]int{{0, 10}, {10, 0}, {5, 5}, {100, 100}, {3, 400}, {400, 3}, {50, 1000}, {1000, 50}, {1, 1}}
	for _, sh := range shapes {
		for trial := 0; trial < 20; trial++ {
			a := sortedSet(rng, sh[0], 2000)
			b := sortedSet(rng, sh[1], 2000)
			want := refIntersect(a, b)

			got := IntersectSorted(nil, a, b)
			if len(got) != len(want) {
				t.Fatalf("IntersectSorted %v: got %d want %d", sh, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("IntersectSorted %v: mismatch at %d", sh, i)
				}
			}

			pos := IntersectPositions(nil, a, b)
			if len(pos) != len(want) {
				t.Fatalf("IntersectPositions %v: got %d want %d", sh, len(pos), len(want))
			}
			for i, p := range pos {
				if i > 0 && pos[i-1] >= p {
					t.Fatalf("IntersectPositions %v: positions not ascending", sh)
				}
				if b[p] != want[i] {
					t.Fatalf("IntersectPositions %v: b[%d]=%d want %d", sh, p, b[p], want[i])
				}
			}
		}
	}
}

func TestGallopGE(t *testing.T) {
	s := []int{2, 4, 4, 8, 16, 32}
	// note: inputs are sets in production, but gallopGE itself only
	// needs non-decreasing order.
	cases := []struct{ x, lo, want int }{
		{1, 0, 0}, {2, 0, 0}, {3, 0, 1}, {4, 0, 1}, {5, 0, 3},
		{33, 0, 6}, {16, 3, 4}, {16, 5, 5}, {2, 5, 5}, {99, 6, 6},
	}
	for _, c := range cases {
		if got := gallopGE(s, c.x, c.lo); got != c.want {
			t.Errorf("gallopGE(%d, lo=%d) = %d, want %d", c.x, c.lo, got, c.want)
		}
	}
}
