package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file renders a Snapshot in the Prometheus text exposition format
// (version 0.0.4), entirely with the standard library — Rock carries no
// dependencies, so the format is written by hand. Every counter, gauge
// and histogram of the registry is exposed, plus the span ring
// bookkeeping, under a "rock_" namespace with metric names sanitised to
// the [a-zA-Z0-9_] charset Prometheus requires ("chase.node.node-0.units"
// becomes "rock_chase_node_node_0_units"). Output is sorted by name, so
// consecutive scrapes diff cleanly.

// promName sanitises a registry metric name into a valid Prometheus
// metric name under the rock_ namespace.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 5)
	b.WriteString("rock_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus writes the snapshot as Prometheus text exposition.
// Histograms are flattened to summary-style gauges (count, sum_ns,
// max_ns, p50_ns, p95_ns) because the registry keeps quantiles, not
// cumulative buckets.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var lines []string
	add := func(typ, name string, v interface{}) {
		lines = append(lines, fmt.Sprintf("# TYPE %s %s\n%s %v\n", name, typ, name, v))
	}
	for name, v := range s.Counters {
		add("counter", promName(name), v)
	}
	for name, v := range s.Gauges {
		add("gauge", promName(name), v)
	}
	for name, h := range s.Histograms {
		p := promName(name)
		add("counter", p+"_count", h.Count)
		add("counter", p+"_sum_ns", int64(h.Sum))
		add("gauge", p+"_max_ns", int64(h.Max))
		add("gauge", p+"_p50_ns", int64(h.P50))
		add("gauge", p+"_p95_ns", int64(h.P95))
	}
	// Ring bookkeeping: how much of the bounded span log survived.
	add("counter", "rock_spans_dropped", s.DroppedSpans)
	add("gauge", "rock_spans_retained", len(s.Spans))
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := io.WriteString(w, l); err != nil {
			return err
		}
	}
	return nil
}
