package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one metric of the ledger. BENCHMARK.json is written
// from these tables (-write-manifest) and bench_test.go checks that the
// two still agree.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; README.md maps them onto the workload's
// operation (batch clean, delta clean, ingest→visible, distributed chase).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p95_ms", "ms", "lower"},
	{"tuples_per_s", "tuples/s", "higher"},
	{"correction_f1", "ratio", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
}

// bounds is the share of the parent's median by which each end-to-end
// metric may worsen before a change is rejected. The timing bounds are
// the contract's widest: a fixed register loop on the two-core dev host
// already varies by ±12 % over tens of seconds, so run-to-run spreads of
// 6–14 % are the floor here, not a property of the workloads (README,
// "Bounds").
var bounds = map[string]float64{
	"setup_s": 0.25, "op_p50_ms": 0.25, "op_p95_ms": 0.25, "tuples_per_s": 0.25,
	"correction_f1": 0.20, "peak_rss_mb": 0.25,
}

// perLayer are the traced run's metrics, layer = module name. A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"data.read_csv_s", "s", "lower"},
	{"data.write_csv_s", "s", "lower"},
	{"data.tuples", "count", "higher"},

	{"ml.train_s", "s", "lower"},
	{"ml.predict_ns", "ns", "lower"},
	{"ml.calls", "count", "lower"},
	{"ml.pred_hits", "count", "higher"},
	{"ml.pred_misses", "count", "lower"},
	{"ml.pred_warmed", "count", "higher"},
	{"ml.pred_hit_ratio", "ratio", "higher"},

	{"crystal.build_columns_s", "s", "lower"},
	{"crystal.dict_entries", "count", "lower"},
	{"crystal.refresh_s", "s", "lower"},

	{"exec.enumerate_s", "s", "lower"},
	{"exec.valuations", "count", "lower"},
	{"exec.enumerated", "count", "lower"},
	{"exec.useful_ratio", "ratio", "higher"},
	{"exec.ml_calls", "count", "lower"},
	{"exec.dirty_enumerate_s", "s", "lower"},
	{"exec.dirty_valuations", "count", "lower"},
	{"exec.vec_joins", "count", "higher"},
	{"exec.vec_select_fallbacks", "count", "lower"},
	{"exec.blocker_hits", "count", "higher"},
	{"exec.blocker_misses", "count", "lower"},

	{"detect.wall_s", "s", "lower"},
	{"detect.errors", "count", "higher"},
	{"detect.units", "count", "lower"},

	{"chase.new_s", "s", "lower"},
	{"chase.run_s", "s", "lower"},
	{"chase.round1_s", "s", "lower"},
	{"chase.rounds_rest_s", "s", "lower"},
	{"chase.rounds", "count", "lower"},
	{"chase.units", "count", "lower"},
	{"chase.unit_cpu_s", "s", "lower"},
	{"chase.valuations", "count", "lower"},
	{"chase.ml_calls", "count", "lower"},
	{"chase.fixes_applied", "count", "higher"},
	{"chase.fixes_rejected", "count", "lower"},
	{"chase.steals", "count", "lower"},
	{"chase.materialize_s", "s", "lower"},
	{"chase.valuations_per_delta_tuple", "ratio", "lower"},

	{"truth.corrections_diff_s", "s", "lower"},
	{"truth.snapshot_bytes", "bytes", "lower"},

	{"cluster.node_units_max_share", "ratio", "lower"},
	{"cluster.parallel_ratio", "ratio", "higher"},

	{"remote.wire_bytes", "bytes", "lower"},
	{"remote.frames", "count", "lower"},
	{"remote.results", "count", "lower"},
	{"remote.worker_build_s", "s", "lower"},
	{"remote.overhead_ratio", "ratio", "lower"},

	{"serve.ingest_ack_p50_ms", "ms", "lower"},
	{"serve.wait_p50_ms", "ms", "lower"},
	{"serve.batches", "count", "lower"},
	{"serve.batch_tuples_mean", "tuples", "higher"},
	{"serve.batch_clean_p50_ms", "ms", "lower"},
	{"serve.batch_clean_p95_ms", "ms", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.valuations_per_tuple", "ratio", "lower"},
	{"serve.ml_calls_per_tuple", "ratio", "lower"},
	{"serve.full_clean_s", "s", "lower"},

	{"rock.clean_wall_s", "s", "lower"},

	{"obs.trace_overhead_ratio", "ratio", "lower"},

	{"go.alloc_mb", "MiB", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
}

// value is one reported metric, in the shape the contract prescribes.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// sample is one timed operation of a workload: a batch rep, a delta
// clean, an ingest made visible, a distributed chase.
type sample struct {
	wall   time.Duration
	tuples int
}

// recorder collects what a run measures: the operation samples behind
// the end-to-end metrics, the per-layer values of a traced run, and the
// outcome of every output check.
type recorder struct {
	ops []sample
	// streamWall, when set, is the wall of the whole timed region: the
	// throughput base of a workload whose operations overlap.
	streamWall time.Duration
	f1         float64
	layers     map[string]float64
	attempted  int
	failed     int
	mem        runtime.MemStats
}

func newRecorder() *recorder { return &recorder{layers: make(map[string]float64)} }

func (r *recorder) op(wall time.Duration, tuples int) {
	r.ops = append(r.ops, sample{wall, tuples})
}

// check counts one operation or output check; a failed one is logged to
// standard error and ends up in the result's failed count.
func (r *recorder) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "bench: FAILED: "+format+"\n", args...)
	}
}

// startGo and stopGo bracket the timed region for the go.* metrics.
func (r *recorder) startGo() { runtime.ReadMemStats(&r.mem) }

func (r *recorder) stopGo() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.set("go.alloc_mb", float64(m.TotalAlloc-r.mem.TotalAlloc)/(1<<20))
	r.set("go.gc_cycles", float64(m.NumGC-r.mem.NumGC))
	r.set("go.gc_pause_ms", float64(m.PauseTotalNs-r.mem.PauseTotalNs)/1e6)
}

func (r *recorder) set(name string, v float64) { r.layers[name] = v }
func (r *recorder) add(name string, v float64) { r.layers[name] += v }

func seconds(d time.Duration) float64 { return float64(d) / float64(time.Second) }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank percentile of xs (p in (0,1]); with
// fewer than 20 samples p95 is the slowest one.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEndMetrics folds the recorder's samples, and the walls of the
// run's set-ups in seconds, into the end-to-end set.
func (r *recorder) endToEndMetrics(setups []float64) map[string]float64 {
	walls := make([]float64, len(r.ops))
	var sumWall time.Duration
	tuples := 0
	for i, o := range r.ops {
		walls[i] = millis(o.wall)
		sumWall += o.wall
		tuples += o.tuples
	}
	if r.streamWall > 0 {
		sumWall = r.streamWall
	}
	return map[string]float64{
		"setup_s":       median(setups),
		"op_p50_ms":     median(walls),
		"op_p95_ms":     percentile(walls, 0.95),
		"tuples_per_s":  float64(tuples) / seconds(sumWall),
		"correction_f1": r.f1,
		"peak_rss_mb":   peakRSSMiB(),
	}
}

// peakRSSMiB reads this process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
