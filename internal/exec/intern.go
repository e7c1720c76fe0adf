package exec

import (
	"errors"
	"sync"

	"github.com/rockclean/rock/internal/crystal"
	"github.com/rockclean/rock/internal/data"
)

// The executor's part of the dictionary-encoded hot path (paper §5.1:
// Crystal "transforms attribute values to unique ids" so the engine
// compares integers, not values). The columns belong to the environment
// (predicate.Env.Columns): each (relation, attribute) is encoded on first
// use, shared by every executor over the env — detection, the chase and
// every later delta — and served only at the relation's current mutation
// count, as are the blocks jobs walk (crystal.Cache.Blocks).
//
// The columns encode raw values, while a chase reads through its view
// (predicate.Env.View: validated cells first). The view names the tuples
// it may change (View.Shadowed); the jobs read exactly those through
// predicate.Env.Value and compare ids for the rest. The executor keeps
// no state of its own about the view.

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

// shadowedPositions returns, ascending, the positions in tids (a block's
// ascending TID array) of the tuples of rel the env's view shadows, as
// pool scratch; nil when the env has no view or the block holds none.
func (e *Executor) shadowedPositions(rel *data.Relation, tids []int) []int32 {
	if e.env.View == nil {
		return nil
	}
	sh := e.env.View.Shadowed(rel)
	if len(sh) == 0 {
		return nil
	}
	return crystal.IntersectPositions(getPosBuf(), sh, tids)
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
