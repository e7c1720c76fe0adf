package crystal

// Sorted-set kernels for the interned hot path (paper §5.1 "crystal
// blocks"): the executor selects by intersecting posting lists with a
// partition's TID array and enumerates equality joins from the sorted
// posting lists via galloping intersection — block-at-a-time work instead
// of the branchy tuple-at-a-time loops the dense layout replaced. The
// bitmap helpers size and clear the posting join's shadow bits.
//
// All intersection kernels assume strictly ascending inputs (posting
// lists and partition TID arrays are sets ordered by TID). Positions are
// int32: a single relation stays below 2³¹ tuples by the ValueID design
// (uint32 ids at 10⁷–10⁸ tuples).

// BitmapWords returns the number of uint64 words covering n positions.
func BitmapWords(n int) int { return (n + 63) / 64 }

// BitmapClearAll zeroes every word.
func BitmapClearAll(bits []uint64) {
	for w := range bits {
		bits[w] = 0
	}
}

// gallopGE returns the smallest index i in s[lo:] with s[i] >= x:
// exponential probing from lo, then binary search inside the located
// range. O(log d) where d is the distance from lo — the frontier-driven
// cost that makes intersecting a short posting list against a long
// partition linear in the short side.
func gallopGE(s []int, x, lo int) int {
	n := len(s)
	if lo >= n || s[lo] >= x {
		return lo
	}
	step := 1
	hi := lo + 1
	for hi < n && s[hi] < x {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	if hi > n {
		hi = n
	}
	// binary search in (lo, hi]
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// IntersectSorted appends to dst the values common to a and b (both
// strictly ascending) and returns the extended slice. The shorter side
// drives: when the lengths are imbalanced the kernel gallops through the
// longer side, otherwise it merge-walks.
func IntersectSorted(dst, a, b []int) []int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst
	}
	if len(b) >= 8*len(a) {
		lo := 0
		for _, x := range a {
			lo = gallopGE(b, x, lo)
			if lo == len(b) {
				break
			}
			if b[lo] == x {
				dst = append(dst, x)
				lo++
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// IntersectPositions appends to dst the positions p in hay (strictly
// ascending) whose value also occurs in needles (strictly ascending), in
// ascending position order. The executor uses it to turn a posting list
// (needles) into a selection over a partition's TID array (hay) — the
// resulting positions index the partition's tuple slice directly, so
// matched tuples materialize without any per-tuple map probe.
func IntersectPositions(dst []int32, needles, hay []int) []int32 {
	if len(needles) == 0 || len(hay) == 0 {
		return dst
	}
	switch {
	case len(hay) >= 8*len(needles):
		// Short needle set against a long partition: gallop the frontier.
		lo := 0
		for _, x := range needles {
			lo = gallopGE(hay, x, lo)
			if lo == len(hay) {
				break
			}
			if hay[lo] == x {
				dst = append(dst, int32(lo))
				lo++
			}
		}
	case len(needles) >= 8*len(hay):
		// Long needle set (a dense posting) against a short partition:
		// walk the partition, gallop through the needles.
		lo := 0
		for p, x := range hay {
			lo = gallopGE(needles, x, lo)
			if lo == len(needles) {
				break
			}
			if needles[lo] == x {
				dst = append(dst, int32(p))
				lo++
			}
		}
	default:
		i, j := 0, 0
		for i < len(needles) && j < len(hay) {
			switch {
			case needles[i] < hay[j]:
				i++
			case needles[i] > hay[j]:
				j++
			default:
				dst = append(dst, int32(j))
				i++
				j++
			}
		}
	}
	return dst
}
