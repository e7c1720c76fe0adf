package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/rockclean/rock/internal/obs"
)

// tracer records the bench-side spans of a traced run in the repo's own
// obs.Registry: one root per workload rep, one child per driver step,
// and children of a "probes" root for the standalone layer probes. A nil
// tracer records nothing, so the untraced run pays two clock reads per
// step and no span.
type tracer struct {
	reg      *obs.Registry
	workload string
	// program holds the program's own spans of the latest traced rep,
	// written beside the bench's.
	program []obs.SpanRecord
}

func newTracer(workload string) *tracer {
	reg := obs.New()
	reg.EnableSpans(1 << 16)
	return &tracer{reg: reg, workload: workload}
}

// start opens a span tagged with the workload and rep; nil-safe.
func (t *tracer) start(name string, parent *obs.Span, rep int) *obs.Span {
	if t == nil {
		return nil
	}
	sp := t.reg.StartSpan(name, parent)
	sp.SetDetail(t.workload)
	sp.SetRound(rep)
	return sp
}

// step runs fn under a child span of parent and returns its wall time.
func (t *tracer) step(name string, parent *obs.Span, rep int, fn func() error) (time.Duration, error) {
	sp := t.start(name, parent, rep)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	sp.End()
	return d, err
}

// layerTime is one span name's share of a traced run.
type layerTime struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	// SelfS is the total minus the part its child spans cover.
	SelfS float64 `json:"self_s"`
}

// checkCoverage asserts, for every root span named "rep", that its direct
// children cover at least 98 % of it. Five milliseconds uncovered are
// allowed whatever the share, so that a toy-sized rep of a few
// milliseconds is not failed by one scheduling gap or GC pause between
// two steps; the ledger's reps last 250 ms and more, where 2 % is more.
func (t *tracer) checkCoverage(rec *recorder) {
	for i, c := range coverage(t.reg.Spans(), "rep") {
		rec.check(c.share >= 0.98 || c.uncovered <= 5*time.Millisecond,
			"traced rep %d: step spans cover %.1f%% of the rep (%v uncovered), want >= 98%%", i, 100*c.share, c.uncovered)
	}
}

// covered is how much of one root span its direct children cover.
type covered struct {
	share     float64
	uncovered time.Duration
}

// coverage measures every root span named rootName.
func coverage(spans []obs.SpanRecord, rootName string) []covered {
	child := make(map[uint64]time.Duration)
	for _, s := range spans {
		child[s.Parent] += s.End - s.Start
	}
	var out []covered
	for _, s := range spans {
		if d := s.End - s.Start; s.Name == rootName && s.Parent == 0 && d > 0 {
			out = append(out, covered{float64(child[s.ID]) / float64(d), d - child[s.ID]})
		}
	}
	return out
}

// selfTimes aggregates the spans by name: duration, and self time = the
// span minus its children.
func selfTimes(spans []obs.SpanRecord) map[string]layerTime {
	child := make(map[uint64]time.Duration)
	for _, s := range spans {
		child[s.Parent] += s.End - s.Start
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.Count++
		lt.TotalS += seconds(s.End - s.Start)
		lt.SelfS += seconds(s.End - s.Start - child[s.ID])
		out[s.Name] = lt
	}
	return out
}

// write stores the run's spans as Chrome trace JSON and their self times
// as layers.json under dir/<workload>.*.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans := t.reg.Spans()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	if err := writeTrace(filepath.Join(dir, t.workload+".trace.json"), spans); err != nil {
		return err
	}
	if len(t.program) > 0 {
		if err := writeTrace(filepath.Join(dir, t.workload+".program.trace.json"), t.program); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(selfTimes(spans), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, t.workload+".layers.json"), append(b, '\n'), 0o644)
}

func writeTrace(path string, spans []obs.SpanRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
