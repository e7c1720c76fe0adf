package ml

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rockclean/rock/internal/data"
)

func vals(ss ...string) []data.Value {
	out := make([]data.Value, len(ss))
	for i, s := range ss {
		out[i] = data.S(s)
	}
	return out
}

func TestPredicatedModelThresholded(t *testing.T) {
	calls := 0
	inner := &FuncModel{ModelName: "f", Threshold: 0.5, Score: func(l, r []data.Value) float64 {
		calls++
		return 0.9
	}}
	p := NewPredication()
	m := p.Wrap(inner)
	l, r := vals("a"), vals("b")
	// Predict derives from the cached confidence: one inner call total.
	if !m.Predict(l, r) || !m.Predict(l, r) || m.Confidence(l, r) != 0.9 {
		t.Error("predicated decisions wrong")
	}
	if calls != 1 {
		t.Errorf("inner model called %d times, want 1", calls)
	}
	st := p.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats hits=%d misses=%d, want 2/1", st.Hits, st.Misses)
	}

	// A model without a threshold answers Predict itself, uncached: its
	// answer is passed through, never derived from the cached confidence.
	opaque := &opaqueModel{}
	om := p.Wrap(opaque)
	if om.Predict(l, r) || om.Predict(l, r) {
		t.Error("pass-through Predict answered true; the opaque model said false")
	}
	if opaque.predicts != 2 {
		t.Errorf("opaque Predict called %d times, want 2 (uncached)", opaque.predicts)
	}
	if om.Confidence(l, r) != 0.7 {
		t.Error("opaque confidence wrong")
	}
	if st := p.Stats(); st.Hits != 2 || st.Misses != 2 {
		t.Errorf("after the opaque model: hits=%d misses=%d, want 2/2 (only Confidence looks up)", st.Hits, st.Misses)
	}
}

// opaqueModel has no DecisionThreshold, and its Predict says no despite
// a confidence of 0.7, so an answer derived from the confidence shows.
type opaqueModel struct {
	predicts int
}

func (o *opaqueModel) Name() string                         { return "opaque" }
func (o *opaqueModel) Confidence(l, r []data.Value) float64 { return 0.7 }
func (o *opaqueModel) Predict(l, r []data.Value) bool       { o.predicts++; return false }

// TestPredCacheSingleFlight: goroutines asking one (model, pair) at once
// run the model once; the others wait for its score and count as hits.
func TestPredCacheSingleFlight(t *testing.T) {
	const n = 8
	var calls atomic.Int64
	release := make(chan struct{})
	inner := &FuncModel{ModelName: "slow", Threshold: 0.5, Score: func(l, r []data.Value) float64 {
		calls.Add(1)
		<-release
		return 0.9
	}}
	p := NewPredication()
	m := p.Wrap(inner)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v := m.Confidence(vals("a"), vals("b")); v != 0.9 {
				t.Errorf("confidence %v, want 0.9", v)
			}
		}()
	}
	// Release the model once every asker has looked the key up.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if st := p.Stats(); st.Hits+st.Misses == n || time.Now().After(deadline) {
			break
		}
	}
	close(release)
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Errorf("inner model ran %d times, want 1", c)
	}
	if st := p.Stats(); st.Hits != n-1 || st.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want %d/1", st.Hits, st.Misses, n-1)
	}
}

func TestPredCacheEvictionBounded(t *testing.T) {
	c := newPredCache(newInterner(), 256)
	for i := 0; i < 10000; i++ {
		c.putConf(predKey{model: 1, left: uint32(i), right: uint32(i)}, float64(i))
	}
	// capPerShard = 256/32 = 8 (each shard evicts to 3/4 before insert).
	if n := c.Len(); n > 256+32 {
		t.Errorf("cache grew past its bound: %d entries", n)
	}
	_, _, ev := c.Stats()
	if ev == 0 {
		t.Error("no evictions counted despite overflow")
	}
}

func TestEmbedStoreContentKeyed(t *testing.T) {
	s := NewEmbedStore(0)
	a := s.Embed(vals("Huawei", "Beijing"))
	if a != EmbedValues(vals("Huawei", "Beijing")) {
		t.Fatal("cached vector differs from EmbedValues")
	}
	if _, misses, _ := s.Stats(); misses != 1 {
		t.Fatalf("first embed: %d misses, want 1", misses)
	}
	// A changed vector (a tuple updated in place) keys a fresh entry: no
	// invalidation call, and the old vector is not served.
	if b := s.Embed(vals("Nike", "Beijing")); b == a || b != EmbedValues(vals("Nike", "Beijing")) {
		t.Error("changed vector served a stale embedding")
	}
	// Equal vectors on any two tuples share one entry.
	s.Embed(vals("Huawei", "Beijing"))
	hits, misses, _ := s.Stats()
	if hits != 1 || misses != 2 {
		t.Errorf("hits=%d misses=%d, want 1/2", hits, misses)
	}
	// Keys are exact: I(5) and TS(5) embed differently ("5" against a
	// date), so they must not share an entry.
	if s.Embed([]data.Value{data.I(5)}) == s.Embed([]data.Value{data.TS(5)}) {
		t.Error("an int and a timestamp of equal value shared an embedding")
	}
	var nilStore *EmbedStore
	if nilStore.Embed(vals("Huawei", "Beijing")) != a {
		t.Error("a nil store must embed on demand")
	}
}

func TestInternerExact(t *testing.T) {
	in := newInterner()
	a := in.ID("alpha")
	if b := in.ID("alpha"); b != a {
		t.Error("re-interning changed the ID")
	}
	if c := in.ID("beta"); c == a {
		t.Error("distinct strings collided")
	}
}

// TestPredicationConcurrent hammers the sharded caches and the model
// registry from 8 goroutines; run under -race it verifies the striped
// locking (no torn counters, no map races).
func TestPredicationConcurrent(t *testing.T) {
	p := NewPredication()
	reg := NewRegistry()
	inner := NewSimilarityMatcher("M_ER", 0.8)
	reg.Register(p.Wrap(inner))

	const goroutines = 8
	const iters = 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m, err := reg.Get("M_ER")
				if err != nil {
					t.Error(err)
					return
				}
				l := vals("left-" + strconv.Itoa(i%37))
				r := vals("right-" + strconv.Itoa((i+g)%41))
				m.Predict(l, r)
				m.Confidence(l, r)
				p.Embeds.Embed(vals("attr-" + strconv.Itoa(i%17)))
				if i%13 == 0 {
					// Concurrent re-registration (the chase rewraps shared
					// registries); readers must keep resolving.
					reg.Register(p.Wrap(Unwrap(m)))
				}
			}
		}(g)
	}
	wg.Wait()
	st := p.Stats()
	if st.Lookups() == 0 {
		t.Error("no lookups recorded")
	}
	if st.EmbedHits+st.EmbedMisses == 0 {
		t.Error("no embed traffic recorded")
	}
}

// --- benchmarks (satellite: show the allocation/caching wins) ---

func BenchmarkEmbed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Embed("Apple Jingdong Self-run Flagship Store")
	}
}

func BenchmarkStringSim(b *testing.B) {
	b.Run("short", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			StringSim("IPhone 14 (Discount ID 41)", "IPhone 14 (Discount Code 41)")
		}
	})
	long := make([]byte, 2*MaxEditLen)
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	b.Run("long-cutoff", func(b *testing.B) {
		// Past MaxEditLen the quadratic edit-distance pass is skipped.
		b.ReportAllocs()
		s := string(long)
		for i := 0; i < b.N; i++ {
			StringSim(s, s[1:])
		}
	})
}

func BenchmarkPredicationStore(b *testing.B) {
	mk := func() (*Predication, *PredicatedModel) {
		p := NewPredication()
		return p, p.Wrap(NewSimilarityMatcher("M_ER", 0.8))
	}
	left, right := vals("IPhone 14 (Discount ID 41)"), vals("IPhone 14 (Discount Code 41)")
	b.Run("hit", func(b *testing.B) {
		_, m := mk()
		m.Predict(left, right)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Predict(left, right)
		}
	})
	b.Run("miss", func(b *testing.B) {
		_, m := mk()
		pairs := make([][2][]data.Value, 1024)
		for i := range pairs {
			pairs[i] = [2][]data.Value{vals("left-" + strconv.Itoa(i)), vals("right-" + strconv.Itoa(i))}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pr := pairs[i%len(pairs)]
			m.Predict(pr[0], pr[1])
		}
	})
	b.Run("embed", func(b *testing.B) {
		p, _ := mk()
		vecs := make([][]data.Value, 64)
		for i := range vecs {
			vecs[i] = vals("value-" + strconv.Itoa(i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Embeds.Embed(vecs[i%len(vecs)])
		}
	})
}
