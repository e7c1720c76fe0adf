package exec

// Columnar evaluation over the interned columns, the executor's one body
// per job. A variable's constant/null predicates select its candidates
// by intersecting posting lists when every filter is an equality, and
// otherwise by one loop over the partition positions that compares ids;
// equijoins enumerate from the posting lists instead of building per-unit
// hash indexes, and a probe is a posting selection with one equality
// filter, the bound value as its constant. Each preserves the deterministic merge invariant exactly:
// selections materialize survivors in ascending partition-position order,
// and the posting join emits pairs t-major with s ascending by position.
// Columns are served only at their relation's current mutation count, so
// every live TID has an id and no posting list holds a deleted TID; the
// tuples an id compare cannot decide are the view-sensitive shadowed
// ones, which take the per-tuple semantics (keep, predicate.Env.Value),
// never silently dropped.

import (
	"math"
	"slices"
	"sort"

	"github.com/rockclean/rock/internal/crystal"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/predicate"
)

// heavyPostingLen is the posting-list length above which the posting
// join memoises its partition intersection: dense buckets are probed by
// many t-tuples, so the O(|posting| ∩ |partition|) work is paid once.
const heavyPostingLen = 64

// idFilter is one interned single-variable filter: an id compare over
// the dense column.
type idFilter struct {
	p       *predicate.Compiled
	col     *crystal.Column
	cid     crystal.ValueID // interned constant (KConst)
	hasCID  bool
	nullID  crystal.ValueID
	hasNull bool
	viewed  bool // reads through the view: shadowed tuples evaluate per tuple
}

// keep reports whether t passes a variable's filters: each interned
// filter compares ids, except that a view-sensitive filter on a shadowed
// tuple (and a TID without an id) evaluates the predicate itself; then
// the ordered compares in slows evaluate.
func (e *Executor) keep(slot int, t *data.Tuple, fasts []idFilter, slows []*predicate.Compiled,
	shadowed bool, h *predicate.Valuation) (bool, error) {
	h.Tuples[slot] = t
	for fi := range fasts {
		f := &fasts[fi]
		id, okID := f.col.IDAt(t.TID)
		if !okID || (f.viewed && shadowed) {
			ok, err := f.p.Eval(e.env, h)
			if err != nil || !ok {
				return false, err
			}
			continue
		}
		isNull := f.hasNull && id == f.nullID
		var ok bool
		switch {
		case f.p.Kind == predicate.KNull:
			ok = isNull
		case f.p.Kind == predicate.KNotNull:
			ok = !isNull
		case f.p.Op == predicate.Eq:
			ok = !isNull && f.hasCID && id == f.cid
		default: // Neq: non-null and different id
			ok = !isNull && !(f.hasCID && id == f.cid)
		}
		if !ok {
			return false, nil
		}
	}
	for _, p := range slows {
		ok, err := p.Eval(e.env, h)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// candidatesVec filters the partition base by a variable's single-variable
// predicates. When every filter is an equality (= constant, or null
// check), the survivors are the intersection of the filters' posting
// lists with the partition's TID array (postingSelect). Otherwise one
// loop visits the partition in position order and keeps what keep
// keeps; the shadowed positions are found by stepping through the sorted
// shadowPos list, not by a per-position probe.
func (e *Executor) candidatesVec(fr *predicate.Frame, slot int, block crystal.Block,
	fasts []idFilter, slows []*predicate.Compiled) (out crystal.Block, err error) {
	tids, pooledTids, err := tidsOf(block)
	if err != nil {
		return out, err
	}
	if pooledTids {
		defer putIntBuf(tids)
	}
	base := block.Tuples
	n := len(base)
	h := fr.NewValuation()

	viewed := false
	postingOK := len(fasts) > 0
	for i := range fasts {
		f := &fasts[i]
		if f.viewed {
			viewed = true
		}
		if f.p.Kind == predicate.KNotNull || (f.p.Kind == predicate.KConst && f.p.Op != predicate.Eq) {
			postingOK = false
		}
	}

	// Shadowed positions re-evaluate per tuple — but only view-sensitive
	// filters care (null checks read raw data even for shadowed tuples).
	var shadowPos []int32
	if viewed {
		shadowPos = e.shadowedPositions(fr.Rels[slot], tids)
		defer putPosBuf(shadowPos)
	}

	if postingOK {
		out, err = e.postingSelect(slot, base, tids, fasts, slows, shadowPos, h)
		if err != nil {
			return out, err
		}
		e.reg.Inc("exec.vec.posting_selects")
		e.reg.Add("exec.vec.select_input", uint64(n))
		e.reg.Add("exec.vec.select_kept", uint64(len(out.Tuples)))
		return out, nil
	}

	out = crystal.Block{Tuples: getTupleBuf(), TIDs: getIntBuf()}
	next := 0
	for pos, t := range base {
		shadowed := next < len(shadowPos) && int(shadowPos[next]) == pos
		if shadowed {
			next++
		}
		ok, kerr := e.keep(slot, t, fasts, slows, shadowed, h)
		if kerr != nil {
			putTupleBuf(out.Tuples)
			putIntBuf(out.TIDs)
			return crystal.Block{}, kerr
		}
		if ok {
			out.Tuples = append(out.Tuples, t)
			out.TIDs = append(out.TIDs, tids[pos])
		}
	}
	e.reg.Inc("exec.vec.select_batches")
	e.reg.Add("exec.vec.select_input", uint64(n))
	e.reg.Add("exec.vec.select_kept", uint64(len(out.Tuples)))
	e.reg.Add("exec.vec.select_fallbacks", uint64(len(shadowPos)))
	return out, nil
}

// postingSelect intersects the filters' posting lists with the
// partition TID array and merges shadowed positions back in ascending
// position order. Precondition (checked by candidatesVec, and by
// construction in probeJoin): every filter is an id equality — a
// constant or a probe's bound value — or a null check.
func (e *Executor) postingSelect(slot int, base []*data.Tuple, tids []int,
	fasts []idFilter, slows []*predicate.Compiled, shadowPos []int32,
	h *predicate.Valuation) (crystal.Block, error) {
	lists := make([][]int, 0, len(fasts))
	empty := false
	for i := range fasts {
		f := &fasts[i]
		var p []int
		if f.p.Kind == predicate.KNull {
			if f.hasNull {
				p = f.col.PostingList(f.nullID)
			}
		} else if f.hasCID && !(f.hasNull && f.cid == f.nullID) {
			p = f.col.PostingList(f.cid)
		}
		if len(p) == 0 {
			empty = true
			break
		}
		lists = append(lists, p)
	}
	matchPos := getPosBuf()
	free := func() { putPosBuf(matchPos) }
	if !empty {
		// Smallest list first: every later intersection is bounded by it.
		sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
		if len(lists) == 1 {
			matchPos = crystal.IntersectPositions(matchPos, lists[0], tids)
		} else {
			acc := crystal.IntersectSorted(getIntBuf(), lists[0], lists[1])
			for k := 2; k < len(lists) && len(acc) > 0; k++ {
				next := crystal.IntersectSorted(getIntBuf(), acc, lists[k])
				putIntBuf(acc)
				acc = next
			}
			matchPos = crystal.IntersectPositions(matchPos, acc, tids)
			putIntBuf(acc)
		}
	}
	out := crystal.Block{Tuples: getTupleBuf(), TIDs: getIntBuf()}
	err := mergeShadowed(matchPos, shadowPos, func(pos int32, shadowed bool) (err error) {
		t := base[pos]
		keep := true
		switch {
		case shadowed:
			keep, err = e.keep(slot, t, fasts, slows, true, h)
		case len(slows) > 0:
			// A raw posting match already passed every id filter.
			keep, err = e.keep(slot, t, nil, slows, false, h)
		}
		if err == nil && keep {
			out.Tuples = append(out.Tuples, t)
			out.TIDs = append(out.TIDs, tids[pos])
		}
		return err
	})
	free()
	if err != nil {
		putTupleBuf(out.Tuples)
		putIntBuf(out.TIDs)
		return crystal.Block{}, err
	}
	return out, nil
}

// mergeShadowed calls fn once per position of matched or shadow (both
// ascending), in ascending order; a position in both comes once, as
// shadowed: its view value decides, not the raw posting.
func mergeShadowed(matched, shadow []int32, fn func(pos int32, shadowed bool) error) error {
	for i, j := 0, 0; i < len(matched) || j < len(shadow); {
		var err error
		if j < len(shadow) && (i >= len(matched) || shadow[j] <= matched[i]) {
			if i < len(matched) && matched[i] == shadow[j] {
				i++
			}
			err = fn(shadow[j], true)
			j++
		} else {
			err = fn(matched[i], false)
			i++
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// postingJoin enumerates the id-compare equijoin t.A = s.B from colB's
// posting lists: for each probing t-id, the matching s-tuples are the
// bucket's posting list intersected (galloping) with the s-candidates'
// TID array — no per-unit hash index is ever built, and the partition
// intersection of dense buckets is memoised across probes. Shadowed
// tuples on either side read through the view (predicate.Env.Value, dictionary
// probe, Canon-keyed overflow for values colB never interned). A raw t
// pairs with a raw-matched s only if their ids agree on every extra key
// too (joinKey), and only if P0 does not hold on them: cons holds P0's
// columns in t's and s's relation (-1s: P0 is no equality between the
// two slots), and a raw pair whose two values are Equal is dropped. A
// bucket whose raw tuples all hold the raw t's P0 value is not
// intersected at all. Under a dirty filter the walk visits only the t
// that can pair (dirtyVisits). The pairs are pool scratch.
func (e *Executor) postingJoin(p *predicate.Compiled, keys []joinKey, cons [2]int, opts Options,
	blockT, blockS crystal.Block, colA, colB *crystal.Column,
	relT, relS *data.Relation) ([][2]*data.Tuple, error) {
	tTIDs, tPooled, err := tidsOf(blockT)
	if err != nil {
		return nil, err
	}
	sTIDs, sPooled, err := tidsOf(blockS)
	if err != nil {
		if tPooled {
			putIntBuf(tTIDs)
		}
		return nil, err
	}
	tuplesT, tuplesS := blockT.Tuples, blockS.Tuples

	ai, bi := p.ACol, p.BCol
	relTName, relSName := relT.Schema.Name, relS.Schema.Name
	tShadowPos := e.shadowedPositions(relT, tTIDs)

	// s-side: shadowed tuples leave the probe targets (posting lists index
	// raw values only) — sShadowBits marks their positions — and their view
	// values are classified by dictionary id, with a Canon-keyed overflow
	// for values colB never interned.
	var shadowByID map[crystal.ValueID][]int32
	var slow map[data.Canon][]*data.Tuple
	var sShadowBits []uint64
	sShadowBuf := e.shadowedPositions(relS, sTIDs)
	if len(sShadowBuf) > 0 {
		sShadowBits = getWordBuf(crystal.BitmapWords(len(tuplesS)))
		crystal.BitmapClearAll(sShadowBits)
	}
	for _, pos := range sShadowBuf {
		sShadowBits[pos/64] |= 1 << (uint(pos) % 64)
		s := tuplesS[pos]
		v := e.env.Value(relS, s, bi)
		if v.IsNull() {
			continue
		}
		if id, ok := colB.Dict.ID(v); ok {
			if shadowByID == nil {
				shadowByID = make(map[crystal.ValueID][]int32)
			}
			shadowByID[id] = append(shadowByID[id], pos)
		} else {
			if slow == nil {
				slow = make(map[data.Canon][]*data.Tuple)
			}
			c := v.Canon()
			slow[c] = append(slow[c], s)
		}
	}
	matchBuf := getPosBuf()
	defer func() {
		if tPooled {
			putIntBuf(tTIDs)
		}
		if sPooled {
			putIntBuf(sTIDs)
		}
		putPosBuf(sShadowBuf)
		putWordBuf(sShadowBits)
		putPosBuf(tShadowPos)
		putPosBuf(matchBuf)
	}()
	sShadowed := func(pos int32) bool {
		return sShadowBits != nil && sShadowBits[pos/64]&(1<<(uint(pos)%64)) != 0
	}

	sameCol := relTName == relSName && p.A == p.B
	var trans []crystal.ValueID
	if !sameCol {
		trans = e.cols.Translation(relTName, p.A, colA, relSName, p.B, colB)
	}
	nullA, hasNullA := colA.Dict.NullID()

	// The extra keys of the t being walked: want[k] is its id in key k's
	// s column. keyed marks a raw t, whose raw-matched s must match every
	// want; rawPairs is false when none can (a key of t is null, or absent
	// from the s column's dictionary). A shadowed t, and shadowed or
	// overflow s, read through the view and pair as without keys.
	want := make([]crystal.ValueID, len(keys))
	keyed, rawPairs := false, true
	keysOf := func(tid int) {
		keyed, rawPairs = len(keys) > 0, true
		for k := range keys {
			id, ok := keys[k].colT.IDAt(tid)
			if !ok {
				keyed = false
				return
			}
			if null, has := keys[k].colT.Dict.NullID(); has && id == null {
				rawPairs = false
				return
			}
			if keys[k].trans != nil {
				if id = keys[k].trans[id]; id == crystal.NoValue {
					rawPairs = false
					return
				}
			}
			want[k] = id
		}
	}
	keysMatch := func(tid int) bool {
		for k, w := range want {
			if ids := keys[k].colS.IDs; tid >= len(ids) || ids[tid] != w {
				return false
			}
		}
		return true
	}

	// The consequence of the t being walked: consV is a raw t's P0 value,
	// and a raw s satisfies P0 with t by holding a value Equal to it.
	// hasCons is false for a shadowed t, for a null value (P0 never holds
	// on one), and when P0 is no equality between the two slots.
	var consV data.Value
	hasCons := false
	holds := func(s *data.Tuple) bool {
		return hasCons && s.Values[cons[1]].Equal(consV)
	}
	// uniform reports that every raw tuple of bucket idB holds consV, so
	// none pairs with t. A heavy bucket is summarised once per join by
	// the value all its tuples hold (null: none), kept only when Equal is
	// transitive through it.
	var commons map[crystal.ValueID]data.Value
	uniform := func(idB crystal.ValueID, posting []int) bool {
		if !hasCons {
			return false
		}
		if len(posting) <= heavyPostingLen {
			for _, tid := range posting {
				if !holds(relS.Get(tid)) {
					return false
				}
			}
			return true
		}
		c, ok := commons[idB]
		if !ok {
			if c = relS.Get(posting[0]).Values[cons[1]]; !transitive(c) {
				c = data.Value{}
			}
			for _, tid := range posting[1:] {
				if c.IsNull() || !relS.Get(tid).Values[cons[1]].Equal(c) {
					c = data.Value{}
					break
				}
			}
			if commons == nil {
				commons = make(map[crystal.ValueID]data.Value)
			}
			commons[idB] = c
		}
		return !c.IsNull() && c.Equal(consV)
	}

	// Dirty-filter hoist: the relations are fixed for the whole join, so
	// resolve the two dirty sets once and test pairs with at most two
	// int-keyed probes (none at all in a full, non-incremental run)
	// instead of per-pair rule/relation string lookups.
	var dirtyT, dirtyS map[int]bool
	filtered := opts.Dirty != nil
	var visit []int32
	sparse := false
	if filtered {
		dirtyT, dirtyS = opts.Dirty[relTName], opts.Dirty[relSName]
		visit, sparse = e.dirtyVisits(tTIDs, tShadowPos, dirtyT, dirtyS, sTIDs, func(pos int32) data.Value {
			s := tuplesS[pos]
			if sShadowed(pos) {
				return e.env.Value(relS, s, bi)
			}
			return s.Values[bi]
		}, colA)
		defer putPosBuf(visit)
	}
	curTDirty := false // dirtyT[t.TID] for the t currently enumerating
	pairOK := func(s *data.Tuple) bool {
		return !filtered || curTDirty || (dirtyS != nil && dirtyS[s.TID])
	}

	out := getPairBuf()
	var memo map[crystal.ValueID][]int32
	probes, skips := 0, 0
	emitOverflow := func(t *data.Tuple, overflow []*data.Tuple) {
		for _, s := range overflow {
			if pairOK(s) {
				out = append(out, [2]*data.Tuple{t, s})
			}
		}
	}
	emitID := func(t *data.Tuple, idB crystal.ValueID, overflow []*data.Tuple) {
		probes++
		var matched []int32
		if posting := colB.PostingList(idB); rawPairs && len(posting) > 0 {
			if uniform(idB, posting) {
				skips++
			} else if len(posting) > heavyPostingLen {
				m, ok := memo[idB]
				if !ok {
					m = crystal.IntersectPositions(nil, posting, sTIDs)
					if memo == nil {
						memo = make(map[crystal.ValueID][]int32)
					}
					memo[idB] = m
				}
				matched = m
			} else {
				matchBuf = crystal.IntersectPositions(matchBuf[:0], posting, sTIDs)
				matched = matchBuf
			}
		}
		// Merge the raw matches with the bucket's shadowed members ascending
		// by position, so s keeps its candidate order within t. A shadowed
		// raw match is skipped: its view value decides, not the posting.
		shadowList := shadowByID[idB]
		i, j := 0, 0
		for i < len(matched) || j < len(shadowList) {
			var pos int32
			if j >= len(shadowList) || (i < len(matched) && matched[i] < shadowList[j]) {
				pos = matched[i]
				i++
				if sShadowed(pos) || (keyed && !keysMatch(sTIDs[pos])) || holds(tuplesS[pos]) {
					continue
				}
			} else {
				pos = shadowList[j]
				j++
			}
			s := tuplesS[pos]
			if pairOK(s) {
				out = append(out, [2]*data.Tuple{t, s})
			}
		}
		emitOverflow(t, overflow)
	}

	vecA := colA.IDs
	next := 0
	n := len(tuplesT)
	if sparse {
		n = len(visit)
	}
	for k := 0; k < n; k++ {
		i := k
		if sparse {
			i = int(visit[k])
		}
		t := tuplesT[i]
		curTDirty = filtered && dirtyT != nil && dirtyT[t.TID]
		for next < len(tShadowPos) && int(tShadowPos[next]) < i {
			next++
		}
		shadowed := next < len(tShadowPos) && int(tShadowPos[next]) == i
		idA := crystal.NoValue
		if !shadowed && t.TID < len(vecA) {
			idA = vecA[t.TID]
		}
		if idA == crystal.NoValue {
			// A shadowed tuple joins on its view value; a TID without an id
			// in colA (a tuple not in the relation) on its raw value.
			keyed, rawPairs, hasCons = false, true, false
			v := t.Values[ai]
			if shadowed {
				v = e.env.Value(relT, t, ai)
			}
			if v.IsNull() {
				continue
			}
			var overflow []*data.Tuple
			if slow != nil {
				overflow = slow[v.Canon()]
			}
			if id, ok := colB.Dict.ID(v); ok {
				emitID(t, id, overflow)
			} else {
				emitOverflow(t, overflow)
			}
			continue
		}
		if hasNullA && idA == nullA {
			continue
		}
		keysOf(t.TID)
		hasCons = false
		if cons[0] >= 0 {
			consV = t.Values[cons[0]]
			hasCons = !consV.IsNull()
		}
		idB := idA
		if !sameCol {
			idB = trans[idA]
		}
		var overflow []*data.Tuple
		if slow != nil {
			if v, ok := colA.Dict.Value(idA); ok {
				overflow = slow[v.Canon()]
			}
		}
		if idB != crystal.NoValue {
			emitID(t, idB, overflow)
		} else {
			emitOverflow(t, overflow)
		}
	}
	e.reg.Inc("exec.vec.joins")
	if sparse {
		e.reg.Inc("exec.vec.dirty_side_joins")
	}
	e.reg.Add("exec.vec.join_probes", uint64(probes))
	e.reg.Add("exec.vec.join_uniform_skips", uint64(skips))
	e.reg.Add("exec.vec.join_pairs", uint64(len(out)))
	return out, nil
}

// transitive reports that the values Equal to v are Equal to each other:
// v is neither null nor NaN, and a number is below 2⁵³ in magnitude,
// where an int and a float Equal to it stand for the same number (past
// it, I(2⁵³) and I(2⁵³+1) are both Equal to F(2⁵³) but not to each
// other).
func transitive(v data.Value) bool {
	switch v.Kind() {
	case data.TInt, data.TFloat, data.TTime:
		return !v.IsNull() && math.Abs(v.Float()) < 1<<53 // false for NaN too
	}
	return !v.IsNull()
}

// dirtyVisits lists, ascending, the positions of the t block a posting
// join under a dirty filter visits. A pair needs a dirty side, so a clean
// t pairs only with a dirty s whose view value has the key of t's value:
// the list holds the dirty t, the shadowed t (which join on their view
// value, tShadowPos), the t whose TID is past colA's end (no id: they
// join on their raw value), and the t in colA's posting list of each
// dirty s's view value (sView, by position in sTIDs). Any other t is a
// clean tuple of the relation with an id in colA, so it emits no pair,
// and visiting the list in order emits the full walk's pairs in the full
// walk's order. The s view value needs no id in colB: colA's dictionary
// is keyed the same way. sparse is false when the list would not be much
// shorter than the block: the caller then walks every t. The list is
// pool scratch.
func (e *Executor) dirtyVisits(tTIDs []int, tShadowPos []int32, dirtyT, dirtyS map[int]bool,
	sTIDs []int, sView func(pos int32) data.Value, colA *crystal.Column) (visit []int32, sparse bool) {
	budget := len(tTIDs) / 4
	if len(dirtyT)+len(dirtyS)+len(tShadowPos) > budget {
		return nil, false
	}
	visit = append(getPosBuf(), tShadowPos...)
	visit = appendDirtyPositions(visit, dirtyT, tTIDs)
	for k := sort.SearchInts(tTIDs, len(colA.IDs)); k < len(tTIDs); k++ {
		visit = append(visit, int32(k))
	}
	sPos := appendDirtyPositions(getPosBuf(), dirtyS, sTIDs)
	defer putPosBuf(sPos)
	var seen map[crystal.ValueID]bool
	for _, pos := range sPos {
		v := sView(pos)
		if v.IsNull() {
			continue
		}
		id, ok := colA.Dict.ID(v)
		if !ok || seen[id] {
			continue // no t holds the value raw, or its bucket is listed
		}
		if seen == nil {
			seen = make(map[crystal.ValueID]bool)
		}
		seen[id] = true
		posting := colA.PostingList(id)
		if len(visit)+len(posting) > budget {
			putPosBuf(visit)
			return nil, false
		}
		visit = crystal.IntersectPositions(visit, posting, tTIDs)
	}
	slices.Sort(visit)
	return slices.Compact(visit), true
}

// appendDirtyPositions appends to dst, ascending, the positions in tids
// (ascending) of the TIDs in dirty: O(|dirty| log |tids|), no walk of
// tids.
func appendDirtyPositions(dst []int32, dirty map[int]bool, tids []int) []int32 {
	want := getIntBuf()
	for tid := range dirty {
		want = append(want, tid)
	}
	slices.Sort(want)
	dst = crystal.IntersectPositions(dst, want, tids)
	putIntBuf(want)
	return dst
}
