package exec

import (
	"errors"
	"sort"
	"sync"

	"github.com/rockclean/rock/internal/crystal"
	"github.com/rockclean/rock/internal/data"
)

// internIndex is the executor's own part of the dictionary-encoded hot
// path (paper §5.1: Crystal "transforms attribute values to unique ids" so
// the engine compares integers, not values). The columns themselves belong
// to the environment (predicate.Env.Columns): each (relation, attribute)
// is encoded on first use, shared by every executor over the env —
// detection, the chase and every later delta — and served only at the
// relation's current mutation count. Equality joins and constant
// predicates compare uint32 ids over dense TID-indexed slices instead of
// hashing data.Value keys. The blocks jobs walk, with their TID arrays,
// belong to the environment's cache too (crystal.Cache.Blocks). What
// stays here describes one engine's view: its shadow sets.
//
// Correctness with the chase's fix-set view: interned ids encode RAW
// tuple values, but the chase reads values through env.ValueOf (validated
// cells first). The chase therefore registers shadow tracking — the set
// of TIDs whose view may differ from raw data (seeded from Γ, extended
// after every merge step) — and the hot paths read exactly those tuples
// through the hook (predicate.Env.Value). A ValueOf hook without shadow tracking is an
// error: Run cannot tell which tuples the hook changes.
type internIndex struct {
	mu sync.RWMutex
	// shadow[rel] is the TID set whose ValueOf view may differ from raw
	// data; track is true once a caller claims to maintain it.
	shadow map[string]map[int]bool
	track  bool
	// shadowSorted caches, per relation, the ascending TID list of the
	// shadow set — the vectorized paths intersect it against partition
	// TID arrays instead of probing the map per tuple. Entries drop when
	// MarkShadowed touches the relation.
	shadowSorted map[string][]int
}

// tidsOf returns the ascending TID array of a block — its own, or pooled
// scratch extracted from its tuples when it carries none (pooled true:
// release with putIntBuf). The cache's blocks carry theirs, and every
// candidate list a job filters from a block carries the survivors'; a
// block that is not TID-ascending is an error.
func tidsOf(b crystal.Block) (tids []int, pooled bool, err error) {
	if b.TIDs != nil || len(b.Tuples) == 0 {
		return b.TIDs, false, nil
	}
	buf := getIntBuf()
	last := -1
	for _, t := range b.Tuples {
		if t.TID <= last {
			putIntBuf(buf)
			return nil, false, errNotAscending
		}
		last = t.TID
		buf = append(buf, t.TID)
	}
	return buf, true, nil
}

var errNotAscending = errors.New("exec: partition is not TID-ascending")

// tracking reports whether a caller registered the shadow set.
func (in *internIndex) tracking() bool {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.track
}

// SetShadowTracking installs the shadow TID sets; an env with a ValueOf
// hook needs them before its first Run. The caller owns the contract: every
// tuple whose ValueOf view may differ from the raw relation value must be
// in shadow (MarkShadowed extends it). The maps are retained, not copied.
func (e *Executor) SetShadowTracking(shadow map[string]map[int]bool) {
	e.in.mu.Lock()
	defer e.in.mu.Unlock()
	if shadow == nil {
		shadow = make(map[string]map[int]bool)
	}
	e.in.shadow = shadow
	e.in.track = true
	e.in.shadowSorted = nil
}

// MarkShadowed adds the given TIDs to the shadow sets. Call from the
// serial merge step (or otherwise outside concurrent Runs) after fixes
// change what ValueOf returns.
func (e *Executor) MarkShadowed(dirty map[string]map[int]bool) {
	e.in.mu.Lock()
	defer e.in.mu.Unlock()
	if e.in.shadow == nil {
		e.in.shadow = make(map[string]map[int]bool)
	}
	for rel, tids := range dirty {
		m := e.in.shadow[rel]
		if m == nil {
			m = make(map[int]bool, len(tids))
			e.in.shadow[rel] = m
		}
		for tid := range tids {
			m[tid] = true
		}
		delete(e.in.shadowSorted, rel)
	}
}

// shadowSortedOf returns the ascending TID list of a relation's shadow
// set (nil when empty), built lazily and cached until MarkShadowed next
// touches the relation. Concurrent builders compute identical lists, so
// the last writer winning is harmless.
func (e *Executor) shadowSortedOf(rel string) []int {
	e.in.mu.RLock()
	s, ok := e.in.shadowSorted[rel]
	m := e.in.shadow[rel]
	e.in.mu.RUnlock()
	if ok {
		return s
	}
	if len(m) > 0 {
		s = make([]int, 0, len(m))
		for tid := range m {
			s = append(s, tid)
		}
		sort.Ints(s)
	}
	e.in.mu.Lock()
	if e.in.shadowSorted == nil {
		e.in.shadowSorted = make(map[string][]int)
	}
	e.in.shadowSorted[rel] = s
	e.in.mu.Unlock()
	return s
}

// shadowOf returns the shadow TID set of a relation (nil when empty) —
// fetched once per hot loop, checked per tuple.
func (e *Executor) shadowOf(rel string) map[int]bool {
	e.in.mu.RLock()
	defer e.in.mu.RUnlock()
	m := e.in.shadow[rel]
	if len(m) == 0 {
		return nil
	}
	return m
}

// internedCol returns the column for (rel, attr), current at the
// relation's mutation count: the cache encodes it on first use, and again
// after a write it was not told about, counting the build here. Nil when
// the attribute is unknown.
func (e *Executor) internedCol(rel *data.Relation, attr string) *crystal.Column {
	col, built := e.cols.Column(rel, attr)
	if built {
		e.reg.Inc("exec.columns.built")
	}
	return col
}

// --- per-binding scratch pools (the deduction path's GC relief) ---

var tupleBufPool = sync.Pool{
	New: func() any { b := make([]*data.Tuple, 0, 64); return &b },
}

func getTupleBuf() []*data.Tuple {
	return (*tupleBufPool.Get().(*[]*data.Tuple))[:0]
}

func putTupleBuf(b []*data.Tuple) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	tupleBufPool.Put(&b)
}

var intBufPool = sync.Pool{
	New: func() any { b := make([]int, 0, 256); return &b },
}

func getIntBuf() []int {
	return (*intBufPool.Get().(*[]int))[:0]
}

func putIntBuf(b []int) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	intBufPool.Put(&b)
}

var posBufPool = sync.Pool{
	New: func() any { b := make([]int32, 0, 256); return &b },
}

func getPosBuf() []int32 {
	return (*posBufPool.Get().(*[]int32))[:0]
}

func putPosBuf(b []int32) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	posBufPool.Put(&b)
}

var wordBufPool = sync.Pool{
	New: func() any { b := make([]uint64, 0, 64); return &b },
}

// getWordBuf returns a bitmap buffer of length n words (contents
// unspecified; callers BitmapClearAll first).
func getWordBuf(n int) []uint64 {
	b := (*wordBufPool.Get().(*[]uint64))[:0]
	if cap(b) < n {
		b = make([]uint64, n)
	}
	return b[:n]
}

func putWordBuf(b []uint64) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	wordBufPool.Put(&b)
}

var pairBufPool = sync.Pool{
	New: func() any { b := make([][2]*data.Tuple, 0, 64); return &b },
}

func getPairBuf() [][2]*data.Tuple {
	return (*pairBufPool.Get().(*[][2]*data.Tuple))[:0]
}

func putPairBuf(b [][2]*data.Tuple) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	pairBufPool.Put(&b)
}
