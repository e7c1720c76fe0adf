package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"github.com/rockclean/rock/internal/obs"
)

// toySizes runs every workload in well under a second each.
var toySizes = sizes{
	ScaleN: 300, AppsN: 120, DeltaN: 300, DeltaSizes: []int{1, 4, 16},
	ServeN: 150, DistN: 300, MinReps: 2, MinDeltas: 8, MinIngests: 10,
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type fullManifest struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []manifestMetric             `json:"end_to_end"`
	PerLayer  []manifestMetric             `json:"per_layer"`
}

func readManifest(t *testing.T) fullManifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m fullManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// sameDefs checks that BENCHMARK.json and the bench's own table name the
// same metrics, with the same unit and direction, in both directions.
func sameDefs(t *testing.T, kind string, listed []manifestMetric, defs []metricDef, bounded bool) {
	t.Helper()
	byName := make(map[string]manifestMetric)
	for _, m := range listed {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("%s %q (unit %q): name or unit outside the contract's alphabet", kind, m.Name, m.Unit)
		}
		if _, dup := byName[m.Name]; dup {
			t.Errorf("%s %q listed twice in BENCHMARK.json", kind, m.Name)
		}
		byName[m.Name] = m
		if bounded != (m.Bound != nil) {
			t.Errorf("%s %q: bound present = %v, want %v", kind, m.Name, m.Bound != nil, bounded)
		}
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("%s %q: bound %v outside (0, 0.25]", kind, m.Name, *m.Bound)
		}
	}
	for _, d := range defs {
		m, ok := byName[d.Name]
		if !ok {
			t.Errorf("%s %q is measured but missing from BENCHMARK.json", kind, d.Name)
			continue
		}
		if m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("%s %q: BENCHMARK.json says %s/%s, the bench %s/%s", kind, d.Name, m.Unit, m.Better, d.Unit, d.Better)
		}
		delete(byName, d.Name)
	}
	for name := range byName {
		t.Errorf("%s %q is in BENCHMARK.json but not measured", kind, name)
	}
}

func TestManifestMatchesBench(t *testing.T) {
	m := readManifest(t)
	sameDefs(t, "end-to-end metric", m.EndToEnd, endToEnd, true)
	sameDefs(t, "per-layer metric", m.PerLayer, perLayer, false)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the bench runs %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the bench %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: name or why outside the contract's limits", w.name)
		}
	}
}

// TestWorkloadsAtToySize runs every workload untraced and traced, and
// checks that each emits exactly the metrics BENCHMARK.json names for
// that kind of run and that no operation or output check failed.
func TestWorkloadsAtToySize(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			defs := endToEnd
			if traced {
				name, defs = w.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				res, err := run(config{
					workload: w.name, seed: 7, seconds: 0, trace: traced,
					sizes: toySizes, workers: 2, outDir: t.TempDir(),
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
					t.Errorf("attempted %d, failed %d, correct %v: want failed_ops_share 0", res.Attempted, res.Failed, res.Correct)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s not emitted", d.Name)
					} else if v.Unit != d.Unit {
						t.Errorf("metric %s has unit %q, want %q", d.Name, v.Unit, d.Unit)
					} else if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, v.Value)
					}
				}
			})
		}
	}
}

func TestPinsDetectDrift(t *testing.T) {
	w := &batch{cfg: config{workload: "scale-join", seed: pinnedSeed, sizes: fullSizes, workers: 2}}
	w.cfg.sizes.ScaleN = 1000
	p, err := w.setup()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPins("scale-join", p); err == nil {
		t.Error("a 1000-tuple input passed the pin of the 250 000-tuple one")
	}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	ms := time.Millisecond
	spans := []obs.SpanRecord{
		{ID: 1, Name: "rep", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 0, End: 60 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 60 * ms, End: 99 * ms},
		{ID: 4, Parent: 2, Name: "c", Start: 10 * ms, End: 30 * ms},
	}
	if c := coverage(spans, "rep"); len(c) != 1 || c[0].share != 0.99 || c[0].uncovered != ms {
		t.Errorf("coverage = %v, want 99%% with 1ms uncovered", c)
	}
	self := selfTimes(spans)
	if got := self["a"].SelfS; got != 0.04 {
		t.Errorf("self time of a = %v, want 0.04", got)
	}
	if got := self["rep"].SelfS; got < 0.00099 || got > 0.00101 {
		t.Errorf("self time of rep = %v, want 0.001", got)
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(xs, 0.95); got != 5 {
		t.Errorf("p95 of 5 samples = %v, want the slowest, 5", got)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 0.95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", got)
	}
}
