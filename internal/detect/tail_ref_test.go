package detect

import (
	"container/heap"
	"context"
	"errors"
	"sort"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/ree"
)

// This file keeps detection's string-keyed tail — the merge on Error.Key,
// the cover over cells ranked by CellRef.String, the score with map-held
// bigrams — as the reference the pointer-free tail is held to.

// strTail is the string-keyed tail over the units' slots: merge on Key in
// plan order, attribute, sort by key.
func strTail(results []*unitResult, db *data.Database) ([]*Error, bool, error) {
	merged, partial, err := strMerge(results)
	if err != nil {
		return nil, partial, err
	}
	out := strAttributeCulprits(merged.errs, merged.keys, strCulpritScoreFn(db))
	sort.Sort(out)
	return out.errs, partial, nil
}

// strMerge folds the slots in plan order, each Key once.
func strMerge(results []*unitResult) (*strErrorSet, bool, error) {
	merged, partial := &strErrorSet{}, false
	for _, res := range results {
		cut := errors.Is(res.err, context.Canceled) || errors.Is(res.err, context.DeadlineExceeded)
		if res.err != nil && !cut {
			return nil, partial, res.err
		}
		partial = partial || cut
		for _, e := range res.errs {
			merged.add(e, e.Key())
		}
	}
	return merged, partial, nil
}

// strCulpritScoreFn builds the culprit tie-break score over one database
// (shared with the SQL-engine baselines, which run the same rules): the
// cell's column value frequency plus a character-bigram plausibility term
// in [0, 1). Typos and corrupted numbers are rare in their columns and
// contain bigrams the column has never seen elsewhere, so lower scores
// mark the likelier culprit. A column's statistics are built on the first
// score asked of it.
func strCulpritScoreFn(db *data.Database) func(data.CellRef) float64 {
	type colKey struct{ rel, attr string }
	type colStats struct {
		freq      map[data.Canon]int
		bigrams   map[string]int
		total     int
		maxBigram int
	}
	cache := map[colKey]*colStats{}
	// stats is asked only of a cell rel holds, so c.Attr is in its schema.
	stats := func(rel *data.Relation, c data.CellRef) *colStats {
		k := colKey{c.Rel, c.Attr}
		if st := cache[k]; st != nil {
			return st
		}
		ai := rel.Schema.Index(c.Attr)
		st := &colStats{freq: map[data.Canon]int{}, bigrams: map[string]int{}}
		for _, t := range rel.Tuples {
			v := t.Values[ai]
			st.freq[v.Canon()]++
			s := v.String()
			for i := 0; i+2 <= len(s); i++ {
				st.bigrams[s[i:i+2]]++
				st.total++
			}
		}
		for _, cnt := range st.bigrams {
			st.maxBigram = max(st.maxBigram, cnt)
		}
		cache[k] = st
		return st
	}
	return func(c data.CellRef) float64 {
		rel := db.Rel(c.Rel)
		if rel == nil {
			return 0
		}
		v, ok := rel.Value(c.TID, c.Attr)
		if !ok {
			return 0
		}
		if v.IsNull() {
			// A null participating in a violation is the error by
			// definition (the MI case): absolute culprit priority.
			return -1
		}
		st := stats(rel, c)
		score := float64(st.freq[v.Canon()])
		// Bigram plausibility in [0, 1): the mean relative frequency of the
		// value's bigrams within its column.
		s := v.String()
		if st.total > 0 && len(s) >= 2 {
			sum, n := 0.0, 0.0
			for i := 0; i+2 <= len(s); i++ {
				sum += float64(st.bigrams[s[i:i+2]]) / float64(st.maxBigram)
				n++
			}
			if n > 0 {
				score += 0.99 * (sum / n)
			}
		}
		return score
	}
}

// strAttributeCulprits is the string-keyed cover, returning the errors
// together with their keys. keys, when non-nil, holds errs[i].Key() at i, so the
// errors passed through are not keyed a second time.
func strAttributeCulprits(errs []*Error, keys []string, freq func(data.CellRef) float64) *strErrorSet {
	out := &strErrorSet{}
	// The violation graph: its vertices are the cells of the two-cell
	// violations, ranked in key order so that index order is key order.
	type cell struct {
		ref data.CellRef
		key string
		src *Error // the first violation to implicate the cell: its rule takes the blame
	}
	var cells []cell
	var graph []*Error
	rank := map[data.CellRef]int{}
	for i, e := range errs {
		if e.Task == ree.TaskER || len(e.Cells) != 2 {
			if keys != nil {
				out.add(e, keys[i])
			} else {
				out.add(e, e.Key())
			}
			continue
		}
		graph = append(graph, e)
		for _, c := range e.Cells {
			if _, ok := rank[c]; !ok {
				rank[c] = len(cells)
				cells = append(cells, cell{ref: c, key: c.String(), src: e})
			}
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].key < cells[j].key })
	for i, c := range cells {
		rank[c.ref] = i
	}
	// Per cell: the edges at it (a self-edge twice), how many of them are
	// uncovered, and its score.
	ends := make([][2]int, len(graph))
	adj := make([][]int, len(cells))
	deg := make([]int, len(cells))
	for i, e := range graph {
		ends[i] = [2]int{rank[e.Cells[0]], rank[e.Cells[1]]}
		for _, c := range ends[i] {
			adj[c] = append(adj[c], i)
			deg[c]++
		}
	}
	score := make([]float64, len(cells))
	if freq != nil {
		for i, c := range cells {
			score[i] = freq(c.ref)
		}
	}
	// An entry is live while its degree is the cell's current one; a cell
	// whose degree drops gets a new entry and the old one is skipped when
	// it surfaces.
	h := make(strCulpritHeap, 0, len(cells))
	for c, d := range deg {
		h = append(h, strCulpritEntry{deg: d, score: score[c], cell: c})
	}
	heap.Init(&h)
	covered := make([]bool, len(ends))
	remaining := len(ends)
	blame := func(c int) {
		for _, i := range adj[c] {
			if covered[i] {
				continue
			}
			covered[i] = true
			remaining--
			for _, n := range ends[i] {
				deg[n]--
				if n != c && deg[n] > 0 {
					heap.Push(&h, strCulpritEntry{deg: deg[n], score: score[n], cell: n})
				}
			}
		}
		src := cells[c].src
		culprit := &Error{RuleID: src.RuleID, Task: src.Task, Cells: []data.CellRef{cells[c].ref}}
		out.add(culprit, culprit.Key())
	}
	// Null cells are culprits outright, whether or not an earlier one
	// already covered their violations.
	for c := range cells {
		if score[c] < 0 {
			blame(c)
		}
	}
	for remaining > 0 {
		if top := heap.Pop(&h).(strCulpritEntry); top.deg == deg[top.cell] {
			blame(top.cell)
		}
	}
	return out
}

// strCulpritEntry is a cell as the cover saw it when the entry was pushed.
type strCulpritEntry struct {
	deg   int // uncovered violations at the cell
	score float64
	cell  int // rank in key order
}

// strCulpritHeap yields the next culprit: the most uncovered violations, then
// the lower score, then the smaller key.
type strCulpritHeap []strCulpritEntry

func (h strCulpritHeap) Len() int { return len(h) }
func (h strCulpritHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.deg != b.deg {
		return a.deg > b.deg
	}
	if a.score != b.score {
		return a.score < b.score
	}
	return a.cell < b.cell
}
func (h strCulpritHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *strCulpritHeap) Push(x any)   { *h = append(*h, x.(strCulpritEntry)) }
func (h *strCulpritHeap) Pop() any {
	old := *h
	top := old[len(old)-1]
	*h = old[:len(old)-1]
	return top
}

// strErrorSet holds the first error of every Key, in arrival order, in step
// with the keys: a key is built once, however often it is compared.
// Sorting orders the set by key.
type strErrorSet struct {
	errs []*Error
	keys []string
	seen map[string]bool
}

// add appends e, whose Key is key, unless the set holds that key already.
func (s *strErrorSet) add(e *Error, key string) {
	if s.seen == nil {
		s.seen = map[string]bool{}
	}
	if !s.seen[key] {
		s.seen[key] = true
		s.errs = append(s.errs, e)
		s.keys = append(s.keys, key)
	}
}

func (s *strErrorSet) Len() int           { return len(s.errs) }
func (s *strErrorSet) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *strErrorSet) Swap(i, j int) {
	s.errs[i], s.errs[j] = s.errs[j], s.errs[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}
