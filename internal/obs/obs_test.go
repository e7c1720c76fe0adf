package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	r.Inc("a")
	r.Add("a", 4)
	if got := r.CounterValue("a"); got != 5 {
		t.Fatalf("counter a = %d, want 5", got)
	}
	if got := r.CounterValue("missing"); got != 0 {
		t.Fatalf("missing counter = %d, want 0", got)
	}
	r.SetGauge("g", -7)
	if got := r.Gauge("g").Value(); got != -7 {
		t.Fatalf("gauge g = %d, want -7", got)
	}
	// Handles are stable: the same name yields the same counter.
	c := r.Counter("a")
	c.Inc()
	if got := r.CounterValue("a"); got != 6 {
		t.Fatalf("counter a after handle Inc = %d, want 6", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("h")
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	st := h.Stat()
	if st.Count != 100 {
		t.Fatalf("count = %d, want 100", st.Count)
	}
	if st.Max != 100*time.Millisecond {
		t.Fatalf("max = %v, want 100ms", st.Max)
	}
	if st.Sum != 5050*time.Millisecond {
		t.Fatalf("sum = %v, want 5050ms", st.Sum)
	}
	if st.P50 < 49*time.Millisecond || st.P50 > 52*time.Millisecond {
		t.Fatalf("p50 = %v, want ~50ms", st.P50)
	}
	if st.P95 < 94*time.Millisecond || st.P95 > 97*time.Millisecond {
		t.Fatalf("p95 = %v, want ~95ms", st.P95)
	}
}

func TestHistogramWindowBound(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < histWindow*2; i++ {
		h.Observe(time.Duration(i))
	}
	st := h.Stat()
	if st.Count != histWindow*2 {
		t.Fatalf("count = %d, want %d (exact over full run)", st.Count, histWindow*2)
	}
	h.mu.Lock()
	n := len(h.samples)
	h.mu.Unlock()
	if n != histWindow {
		t.Fatalf("sample window = %d, want %d", n, histWindow)
	}
	// Quantiles describe the most recent window: all samples >= histWindow.
	if st.P50 < time.Duration(histWindow) {
		t.Fatalf("p50 = %d, want >= %d (old samples evicted)", st.P50, histWindow)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Inc("x")
	r.Add("x", 2)
	r.SetGauge("g", 1)
	r.Observe("h", time.Second)
	r.Counter("x").Inc()
	r.Gauge("g").Set(2)
	r.Histogram("h").Observe(time.Second)
	if r.CounterValue("x") != 0 || r.Gauge("g").Value() != 0 {
		t.Fatal("nil registry should read zero")
	}
	snap := r.Snapshot()
	if snap.Counters != nil {
		t.Fatal("nil registry snapshot should be zero")
	}
	if st := r.Histogram("h").Stat(); st.Count != 0 {
		t.Fatal("nil histogram should be empty")
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Inc("c")
				r.SetGauge("g", int64(i))
				r.Observe("h", time.Duration(i))
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.CounterValue("c"); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if st := r.Histogram("h").Stat(); st.Count != 8000 {
		t.Fatalf("histogram count = %d, want 8000", st.Count)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := New()
	r.Add("chase.rounds", 3)
	r.SetGauge("chase.queue_depth", 12)
	r.Observe("chase.unit", 5*time.Millisecond)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round-trip: %v\n%s", err, buf.String())
	}
	if back.Counters["chase.rounds"] != 3 {
		t.Fatalf("counters round-trip = %v", back.Counters)
	}
	if back.Gauges["chase.queue_depth"] != 12 {
		t.Fatalf("gauges round-trip = %v", back.Gauges)
	}
	if back.Histograms["chase.unit"].Count != 1 {
		t.Fatalf("histograms round-trip = %v", back.Histograms)
	}
}
