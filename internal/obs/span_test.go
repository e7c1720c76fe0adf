package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanNilSafety pins the no-op contract: every span method on a nil
// registry, a span-disabled registry, or a nil *Span handle must be safe.
func TestSpanNilSafety(t *testing.T) {
	var nilReg *Registry
	nilReg.EnableSpans(8)
	if nilReg.SpansEnabled() {
		t.Fatal("nil registry reports spans enabled")
	}
	if s := nilReg.StartSpan("x", nil); s != nil {
		t.Fatal("nil registry handed out a non-nil span")
	}
	if got := nilReg.Spans(); got != nil {
		t.Fatalf("nil registry retained spans: %v", got)
	}
	if got := nilReg.DroppedSpans(); got != 0 {
		t.Fatalf("nil registry dropped %d spans", got)
	}

	disabled := New()
	if disabled.SpansEnabled() {
		t.Fatal("fresh registry has spans enabled")
	}
	if s := disabled.StartSpan("x", nil); s != nil {
		t.Fatal("span-disabled registry handed out a non-nil span")
	}

	// A nil *Span is the no-op handle instrumented code holds when
	// tracing is off: every method must be callable.
	var s *Span
	s.SetRule("r1")
	s.SetNode("node-0")
	s.SetRound(3)
	s.SetN(42)
	s.SetDetail("part")
	if s.ID() != 0 {
		t.Fatal("nil span has a non-zero ID")
	}
	s.End()
	s.End()
}

// TestSpanHierarchy pins ID monotonicity (parent < child, so parent
// links are acyclic by construction) and End idempotence.
func TestSpanHierarchy(t *testing.T) {
	r := New()
	r.EnableSpans(0)
	if !r.SpansEnabled() {
		t.Fatal("EnableSpans did not enable spans")
	}
	root := r.StartSpan("clean", nil)
	child := r.StartSpan("chase", root)
	grand := r.StartSpan("round", child)
	if root.ID() == 0 || child.ID() <= root.ID() || grand.ID() <= child.ID() {
		t.Fatalf("span IDs not strictly increasing: %d, %d, %d", root.ID(), child.ID(), grand.ID())
	}
	grand.SetRound(1)
	grand.End()
	grand.End() // idempotent: must not record twice
	child.End()
	root.End()
	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want 3 (double End recorded?)", len(spans))
	}
	byID := make(map[uint64]SpanRecord)
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	for _, sp := range spans {
		if sp.Parent != 0 {
			p, ok := byID[sp.Parent]
			if !ok {
				t.Fatalf("span %d has dangling parent %d", sp.ID, sp.Parent)
			}
			if p.ID >= sp.ID {
				t.Fatalf("parent %d not older than child %d", p.ID, sp.ID)
			}
		}
		if sp.End < sp.Start {
			t.Fatalf("span %d ends (%v) before it starts (%v)", sp.ID, sp.End, sp.Start)
		}
	}
	if got := byID[grand.ID()].Round; got != 1 {
		t.Fatalf("round tag lost: got %d", got)
	}
}

// TestSpanRingOverflow pins the bounded retention: a cap-4 ring fed 10
// spans keeps the newest 4 in completion order and counts 6 drops, in
// both the direct accessors and the Snapshot/Prometheus views.
func TestSpanRingOverflow(t *testing.T) {
	r := New()
	r.EnableSpans(4)
	for i := 1; i <= 10; i++ {
		s := r.StartSpan(fmt.Sprintf("s%d", i), nil)
		s.End()
	}
	if got := r.DroppedSpans(); got != 6 {
		t.Fatalf("dropped %d spans, want 6", got)
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, sp := range spans {
		if want := fmt.Sprintf("s%d", i+7); sp.Name != want {
			t.Fatalf("retained[%d] = %s, want %s (completion order broken)", i, sp.Name, want)
		}
	}
	snap := r.Snapshot()
	if snap.DroppedSpans != 6 || len(snap.Spans) != 4 {
		t.Fatalf("snapshot: %d dropped / %d retained, want 6/4", snap.DroppedSpans, len(snap.Spans))
	}
	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rock_spans_dropped 6\n", "rock_spans_retained 4\n"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestSpanConcurrency hammers the span API from many goroutines while
// readers snapshot concurrently; run under -race this pins the layer's
// race-cleanliness.
func TestSpanConcurrency(t *testing.T) {
	r := New()
	r.EnableSpans(64) // small cap so overflow runs concurrently too
	root := r.StartSpan("run", nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := r.StartSpan("unit", root)
				s.SetRule("r1")
				s.SetNode(fmt.Sprintf("node-%d", g))
				s.SetN(int64(i))
				s.End()
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = r.Spans()
				_ = r.DroppedSpans()
				snap := r.Snapshot()
				_ = snap.WritePrometheus(&bytes.Buffer{})
				_ = WriteChromeTrace(&bytes.Buffer{}, snap.Spans)
			}
		}()
	}
	wg.Wait()
	root.End()
	if got := int(r.DroppedSpans()) + len(r.Spans()); got != 8*100+1 {
		t.Fatalf("dropped+retained = %d, want %d", got, 8*100+1)
	}
}

// TestWriteChromeTrace pins the trace-event export: valid JSON, complete
// ("X") events in microseconds, acyclic parent links, and one named lane
// per worker node.
func TestWriteChromeTrace(t *testing.T) {
	r := New()
	r.EnableSpans(0)
	root := r.StartSpan("clean", nil)
	u1 := r.StartSpan("unit", root)
	u1.SetNode("node-0")
	u1.End()
	u2 := r.StartSpan("unit", root)
	u2.SetNode("node-1")
	u2.End()
	root.End()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r.Spans()); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Ts   float64                `json:"ts"`
			Dur  float64                `json:"dur"`
			Pid  int                    `json:"pid"`
			Tid  int                    `json:"tid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	var xEvents, lanes int
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "X":
			xEvents++
			id, _ := ev.Args["id"].(float64)
			parent, _ := ev.Args["parent"].(float64)
			if id == 0 {
				t.Fatalf("X event %q missing args.id", ev.Name)
			}
			if parent >= id {
				t.Fatalf("X event %q: parent %v >= id %v", ev.Name, parent, id)
			}
			if ev.Dur < 0 {
				t.Fatalf("X event %q: negative duration %v", ev.Name, ev.Dur)
			}
		case "M":
			lanes++
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if xEvents != 3 {
		t.Fatalf("trace has %d X events, want 3", xEvents)
	}
	// Lanes: the run lane plus node-0 and node-1.
	if lanes != 3 {
		t.Fatalf("trace has %d thread_name lanes, want 3", lanes)
	}
}

// TestTelemetryEndpoints exercises the live handler set over HTTP while
// a writer records concurrently: every endpoint must answer with a
// valid document mid-run.
func TestTelemetryEndpoints(t *testing.T) {
	r := New()
	r.EnableSpans(0)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.Inc("chase.valuations")
			r.Observe("unit_ns", time.Duration(i)*time.Microsecond)
			s := r.StartSpan("unit", nil)
			s.End()
		}
	}()

	get := func(path string) (string, []byte) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var body bytes.Buffer
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.Header.Get("Content-Type"), body.Bytes()
	}

	ct, metrics := get("/metrics")
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	if !strings.Contains(string(metrics), "rock_chase_valuations") {
		t.Fatalf("/metrics missing rock_chase_valuations:\n%s", metrics)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(metrics)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if parts := strings.Fields(line); len(parts) != 2 {
			t.Fatalf("/metrics line not `name value`: %q", line)
		}
	}

	for _, path := range []string{"/spans", "/snapshot", "/trace"} {
		ct, body := get(path)
		if !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("%s content type %q", path, ct)
		}
		var v interface{}
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("%s is not valid JSON: %v", path, err)
		}
	}
	close(stop)
	wg.Wait()

	// A nil registry serves empty-but-valid documents.
	var nilReg *Registry
	nilSrv := httptest.NewServer(nilReg.Handler())
	defer nilSrv.Close()
	resp, err := nilSrv.Client().Get(nilSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("nil registry /metrics status %d", resp.StatusCode)
	}
}
