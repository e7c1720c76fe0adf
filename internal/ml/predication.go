package ml

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/obs"
)

// This file is the in-process realisation of the paper's "ML predication
// is precomputed" optimisation (§5.4): heavyweight model invocations are
// hoisted out of rule enumeration and served from a prediction store, so
// the chase's hot path scales with the number of distinct
// tuple-attribute vectors instead of (rules × pairs × rounds).
//
// Three tiers cooperate:
//
//   - EmbedStore caches attribute-vector embeddings keyed by the interned
//     value vector they embed.
//   - PredCache memoises model confidences under compact interned keys
//     across 2^predShardBits lock-striped shards.
//   - PredicatedModel wraps a Model — a pair model or a HER matcher — so
//     Predict/Confidence read through PredCache. A model is scored when a
//     valuation first asks for a pair; detection fills the cache, and the
//     chase, over the same layer, serves the pairs detection scored.
//
// Every entry is keyed by the values it was computed from, never by a
// tuple's identity, so no entry goes stale when a tuple changes: the
// changed tuple keys a different entry, and nothing needs invalidating.

const (
	internShards   = 16
	predShardBits  = 5 // 32 shards
	embedShardBits = 5 // 32 shards

	// defaultPredCap bounds the prediction cache (entries, across all
	// shards); defaultEmbedCap bounds the embedding store. Eviction is
	// arbitrary-victim: entries are content-keyed (pure), so evicting any
	// of them affects only speed, never results.
	defaultPredCap  = 1 << 16
	defaultEmbedCap = 1 << 14
)

func fnv32str(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// interner maps strings to dense uint32 IDs so cache keys become three
// machine words instead of concatenated value text. Interning is exact
// (no hash truncation), so distinct vectors can never collide into one
// cache entry. The table grows with the number of distinct strings seen;
// value domains are bounded by the dataset, so no eviction is needed.
type interner struct {
	next   atomic.Uint32
	shards [internShards]internShard
}

type internShard struct {
	mu  sync.RWMutex
	ids map[string]uint32
}

func newInterner() *interner {
	in := &interner{}
	for i := range in.shards {
		in.shards[i].ids = make(map[string]uint32)
	}
	return in
}

// ID returns the stable dense ID for s, allocating one on first sight.
func (in *interner) ID(s string) uint32 {
	sh := &in.shards[fnv32str(s)%internShards]
	sh.mu.RLock()
	id, ok := sh.ids[s]
	sh.mu.RUnlock()
	if ok {
		return id
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id, ok := sh.ids[s]; ok {
		return id
	}
	id = in.next.Add(1)
	sh.ids[s] = id
	return id
}

// sideKey renders one value vector as an exact canonical string for
// interning: each value's MarshalBinary form behind its length. Two
// vectors share a key only when every value has the same kind and
// payload; Value.Key would let I(5) and TS(5) share one, which models
// reading String tell apart.
func sideKey(vals []data.Value) string {
	b := make([]byte, 0, 16*len(vals))
	for _, v := range vals {
		enc, _ := v.MarshalBinary()
		b = binary.AppendUvarint(b, uint64(len(enc)))
		b = append(b, enc...)
	}
	return string(b)
}

// predKey identifies one (model, left vector, right vector) predication.
type predKey struct {
	model, left, right uint32
}

func (k predKey) shard() uint32 {
	h := k.left*0x9e3779b1 ^ k.right*0x85ebca77 ^ k.model*0xc2b2ae35
	h ^= h >> 15
	return h & (1<<predShardBits - 1)
}

// PredCache is the sharded, bounded prediction store: Confidence scores
// memoised under interned predKeys. All methods are safe for concurrent
// use; contention is spread across 2^predShardBits lock-striped shards.
type PredCache struct {
	intern      *interner
	capPerShard int
	shards      [1 << predShardBits]predShard
}

type predShard struct {
	mu      sync.Mutex
	conf    map[predKey]float64
	flights map[predKey]*flight // keys whose model runs now

	hits, misses, evictions uint64
}

// flight is one model run under way: askers of its key wait on done.
// ok is false when the run panicked, and the waiters ask again.
type flight struct {
	done chan struct{}
	v    float64
	ok   bool
}

// newPredCache creates a cache bounded to roughly capacity entries in
// total; capacity <= 0 selects the default.
func newPredCache(in *interner, capacity int) *PredCache {
	if capacity <= 0 {
		capacity = defaultPredCap
	}
	per := capacity >> predShardBits
	if per < 8 {
		per = 8
	}
	c := &PredCache{intern: in, capPerShard: per}
	for i := range c.shards {
		c.shards[i].conf = make(map[predKey]float64)
		c.shards[i].flights = make(map[predKey]*flight)
	}
	return c
}

// conf returns inner's memoised confidence for k, the key of (left,
// right), and whether it was a hit. The first asker of a missing key
// runs the model; askers that come while it runs wait for its score and
// count as hits, so a key is scored once however many workers ask.
func (c *PredCache) conf(k predKey, inner Model, left, right []data.Value) (float64, bool) {
	sh := &c.shards[k.shard()]
	for {
		sh.mu.Lock()
		if v, ok := sh.conf[k]; ok {
			sh.hits++
			sh.mu.Unlock()
			return v, true
		}
		f := sh.flights[k]
		if f == nil {
			break
		}
		sh.hits++ // taken back below if the run it waits on panics
		sh.mu.Unlock()
		<-f.done
		if f.ok {
			return f.v, true
		}
		sh.mu.Lock()
		sh.hits--
		sh.mu.Unlock()
	}
	sh.misses++
	f := &flight{done: make(chan struct{})}
	sh.flights[k] = f
	sh.mu.Unlock()
	defer func() {
		// Store before retiring the flight, so no asker finds neither.
		if f.ok {
			c.putConf(k, f.v)
		}
		sh.mu.Lock()
		delete(sh.flights, k)
		sh.mu.Unlock()
		close(f.done)
	}()
	f.v = inner.Confidence(left, right)
	f.ok = true
	return f.v, false
}

func (c *PredCache) putConf(k predKey, v float64) {
	sh := &c.shards[k.shard()]
	sh.mu.Lock()
	sh.evict(c.capPerShard)
	sh.conf[k] = v
	sh.mu.Unlock()
}

// evict makes room for one more entry; called with sh.mu held. Victims
// are arbitrary (map order): entries are pure memoisation, so any
// choice is correct, and counting beats bookkeeping an LRU list under
// the shard lock.
func (sh *predShard) evict(capPerShard int) {
	if len(sh.conf) < capPerShard {
		return
	}
	target := capPerShard * 3 / 4
	for k := range sh.conf {
		if len(sh.conf) <= target {
			break
		}
		delete(sh.conf, k)
		sh.evictions++
	}
}

// Stats returns cumulative hit/miss/eviction counters.
func (c *PredCache) Stats() (hits, misses, evictions uint64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		hits += sh.hits
		misses += sh.misses
		evictions += sh.evictions
		sh.mu.Unlock()
	}
	return
}

// Len reports the current number of cached entries (for tests).
func (c *PredCache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.conf)
		sh.mu.Unlock()
	}
	return n
}

// EmbedStore caches EmbedValues results keyed by the interned value
// vector they embed. EmbedValues reads nothing but the values, so an
// entry never goes stale: a tuple whose values change (a raw update, or a
// fix read through the chase's value view) keys a different entry, and
// equal vectors on different tuples share one.
type EmbedStore struct {
	intern      *interner
	capPerShard int
	shards      [1 << embedShardBits]embedShard
}

type embedShard struct {
	mu     sync.Mutex
	embeds map[uint32]Vector

	hits, misses, evictions uint64
}

// NewEmbedStore creates a store bounded to roughly capacity vectors in
// total; capacity <= 0 selects the default.
func NewEmbedStore(capacity int) *EmbedStore { return newEmbedStore(newInterner(), capacity) }

func newEmbedStore(in *interner, capacity int) *EmbedStore {
	if capacity <= 0 {
		capacity = defaultEmbedCap
	}
	per := capacity >> embedShardBits
	if per < 8 {
		per = 8
	}
	s := &EmbedStore{intern: in, capPerShard: per}
	for i := range s.shards {
		s.shards[i].embeds = make(map[uint32]Vector)
	}
	return s
}

// Embed returns EmbedValues(vals), cached. A nil store embeds on every
// call. EmbedValues runs outside the shard lock; concurrent misses may
// compute twice, which is benign because it is deterministic.
func (s *EmbedStore) Embed(vals []data.Value) Vector {
	if s == nil {
		return EmbedValues(vals)
	}
	id := s.intern.ID(sideKey(vals))
	h := id * 0x9e3779b1
	sh := &s.shards[(h^h>>15)&(1<<embedShardBits-1)]
	sh.mu.Lock()
	if v, ok := sh.embeds[id]; ok {
		sh.hits++
		sh.mu.Unlock()
		return v
	}
	sh.misses++
	sh.mu.Unlock()
	v := EmbedValues(vals)
	sh.mu.Lock()
	if len(sh.embeds) >= s.capPerShard {
		target := s.capPerShard * 3 / 4
		for old := range sh.embeds {
			if len(sh.embeds) <= target {
				break
			}
			delete(sh.embeds, old)
			sh.evictions++
		}
	}
	sh.embeds[id] = v
	sh.mu.Unlock()
	return v
}

// Stats returns cumulative hit/miss/eviction counters.
func (s *EmbedStore) Stats() (hits, misses, evictions uint64) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		hits += sh.hits
		misses += sh.misses
		evictions += sh.evictions
		sh.mu.Unlock()
	}
	return
}

// PredStats is a point-in-time snapshot of the predication layer's
// counters, surfaced through chase.Report and the rock CLI.
type PredStats struct {
	// Prediction cache (PredCache): lookups that found a score, lookups
	// that computed one, and entries evicted to stay under the bound.
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Warmed is always 0: nothing precomputes predictions ahead of a
	// lookup any more, because detection already fills the cache the
	// chase serves from. The field stays so that existing readers of the
	// counter (the benchmark ledger's ml.pred_warmed line) keep compiling.
	Warmed uint64
	// Embedding store (EmbedStore).
	EmbedHits      uint64
	EmbedMisses    uint64
	EmbedEvictions uint64
}

// Lookups is the total number of prediction-cache probes.
func (s PredStats) Lookups() uint64 { return s.Hits + s.Misses }

// HitRate is Hits/Lookups in [0, 1]; 0 when the cache was never probed.
func (s PredStats) HitRate() float64 {
	l := s.Lookups()
	if l == 0 {
		return 0
	}
	return float64(s.Hits) / float64(l)
}

// Predication bundles the embedding store and prediction cache that one
// chase (or detection) run shares across rules, rounds, and workers. The
// two tiers share one interner so relation/attr/value signatures occupy
// a single ID space.
type Predication struct {
	Embeds *EmbedStore
	Preds  *PredCache

	// mu guards wrapped: the one PredicatedModel Wrap built per model,
	// kept so a later Wrap of the model returns it and PublishTo can
	// report per-model hit/miss counters.
	mu      sync.Mutex
	wrapped []*PredicatedModel
}

// NewPredication creates a predication layer with default capacities.
func NewPredication() *Predication {
	in := newInterner()
	return &Predication{
		Embeds: newEmbedStore(in, 0),
		Preds:  newPredCache(in, 0),
	}
}

// Stats snapshots both tiers.
func (p *Predication) Stats() PredStats {
	var st PredStats
	st.Hits, st.Misses, st.Evictions = p.Preds.Stats()
	st.EmbedHits, st.EmbedMisses, st.EmbedEvictions = p.Embeds.Stats()
	return st
}

// PublishTo mirrors the layer's cumulative counters into an
// observability registry as "pred.*" gauges (gauges, not counters: the
// layer's own shard counters are the source of truth and the snapshot
// is absolute). The chase republishes after every round so -metrics-out
// dumps always carry the layer's latest state. Nil-safe on both sides.
func (p *Predication) PublishTo(reg *obs.Registry) {
	if p == nil || reg == nil {
		return
	}
	st := p.Stats()
	reg.SetGauge("pred.hits", int64(st.Hits))
	reg.SetGauge("pred.misses", int64(st.Misses))
	reg.SetGauge("pred.evictions", int64(st.Evictions))
	reg.SetGauge("pred.embed.hits", int64(st.EmbedHits))
	reg.SetGauge("pred.embed.misses", int64(st.EmbedMisses))
	reg.SetGauge("pred.embed.evictions", int64(st.EmbedEvictions))
	for name, hm := range p.ModelStats() {
		reg.SetGauge("pred.model."+name+".hits", int64(hm[0]))
		reg.SetGauge("pred.model."+name+".misses", int64(hm[1]))
	}
}

// ModelStats aggregates cache lookups per model name:
// map value is {hits, misses}. Distinct models under one name (a model
// re-registered with new parameters) sum into one row.
func (p *Predication) ModelStats() map[string][2]uint64 {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	wrapped := append([]*PredicatedModel(nil), p.wrapped...)
	p.mu.Unlock()
	out := make(map[string][2]uint64, len(wrapped))
	for _, pm := range wrapped {
		hm := out[pm.Name()]
		hm[0] += pm.hits.Load()
		hm[1] += pm.misses.Load()
		out[pm.Name()] = hm
	}
	return out
}

// Wrap returns m reading through the layer's prediction cache. A model
// (compared by identity) is wrapped once per layer: every detection and
// chase over a kept layer re-wraps the registry's models, and gets back
// the wrapper the first one built. Each wrapped model keys its own cache
// entries, so two models never share a score, even under one name.
// Callers normally Unwrap first so stacked caches don't double-memoise.
func (p *Predication) Wrap(m Model) *PredicatedModel {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, pm := range p.wrapped {
		if pm.Inner == m {
			return pm
		}
	}
	pm := &PredicatedModel{Inner: m, cache: p.Preds, id: uint32(len(p.wrapped))}
	if th, ok := m.(Thresholder); ok {
		pm.threshold = th.DecisionThreshold()
		pm.thresholded = true
	}
	p.wrapped = append(p.wrapped, pm)
	return pm
}

// WrapAll re-registers every model of r read through the layer's
// prediction cache, unwrapped first so a model's private memo does not
// double-key the same pair. Detection and the chase both call it, so the
// scores one computes carry over to the other.
func (p *Predication) WrapAll(r *Registry) {
	for _, name := range r.Names() {
		if m, err := r.Get(name); err == nil {
			r.Register(p.Wrap(Unwrap(m)))
		}
	}
}

// PredicatedModel serves Predict/Confidence from a shared PredCache.
// For Thresholder models Predict is derived from the cached confidence;
// a model without a threshold answers Predict itself, uncached (every
// registered model has one). The left and right vectors intern
// separately, so a tuple appearing in many candidate pairs keys its side
// once.
type PredicatedModel struct {
	Inner Model

	cache       *PredCache
	id          uint32
	threshold   float64
	thresholded bool

	// hits/misses count this wrapper's cache lookups —
	// the per-model slice of the shard-level counters, aggregated by
	// Predication.ModelStats for cost attribution.
	hits, misses atomic.Uint64
}

// Name implements Model.
func (m *PredicatedModel) Name() string { return m.Inner.Name() }

func (m *PredicatedModel) key(left, right []data.Value) predKey {
	return predKey{
		model: m.id,
		left:  m.cache.intern.ID(sideKey(left)),
		right: m.cache.intern.ID(sideKey(right)),
	}
}

// Confidence implements Model, memoised in the shared cache.
func (m *PredicatedModel) Confidence(left, right []data.Value) float64 {
	v, hit := m.cache.conf(m.key(left, right), m.Inner, left, right)
	if hit {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return v
}

// Predict implements Model.
func (m *PredicatedModel) Predict(left, right []data.Value) bool {
	if m.thresholded {
		return m.Confidence(left, right) >= m.threshold
	}
	return m.Inner.Predict(left, right)
}

// Unwrap strips PredicatedModel wrappers and returns the underlying
// scoring model.
func Unwrap(m Model) Model {
	for {
		pm, ok := m.(*PredicatedModel)
		if !ok {
			return m
		}
		m = pm.Inner
	}
}
