// Command bench is Rock's benchmark ledger: five workloads, six
// end-to-end metrics measured with tracing off, and a traced run that
// reports per-layer metrics and writes a Chrome trace. README.md holds
// the workload and metric tables; BENCHMARK.json at the repository root
// names the command, the workloads, the metrics and their bounds.
//
//	go run -C bench . --workload scale-join --seed 7 --seconds 10 --trace 0
//	go run -C bench .             # every workload, end-to-end metrics
//	go run -C bench . -traced     # every workload, per-layer metrics
//	go run -C bench . -repeat 2   # the suite twice, gaps against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/rockclean/rock/internal/benchkit"
)

// sizes fixes how much data each workload generates and the fewest
// operations a run times before its --seconds may end it.
type sizes struct {
	ScaleN     int   // scale-join tuples
	AppsN      int   // apps-ml base tuples per application
	DeltaN     int   // scale-delta base tuples
	DeltaSizes []int // scale-delta delta sizes, cycled
	ServeN     int   // serve-stream tenant base tuples
	DistN      int   // dist-scale tuples
	MinReps    int   // batch and distributed reps
	MinDeltas  int   // scale-delta deltas
	MinIngests int   // serve-stream ingests per session
}

// fullSizes is the ledger's load. The sizes keep one run (set-up three
// times, warm-up, --seconds 15 of timed work, output checks) near 20 s on
// two cores, which the contract's cap on all runs together requires.
var fullSizes = sizes{
	ScaleN: 250_000, AppsN: 1000, DeltaN: 150_000, DeltaSizes: []int{1, 16, 256},
	ServeN: 1500, DistN: 150_000, MinReps: 3, MinDeltas: 12, MinIngests: 24,
}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	sizes    sizes
	// workers is GOMAXPROCS: the pool size of every engine and the number
	// of closed-loop clients, so no run oversubscribes the host's cores.
	workers int
	// pin compares the generated inputs with inputs.json.
	pin bool
	// outDir receives the traced run's Chrome traces and layers.json.
	outDir string
	// verbose lists every timed operation on standard error.
	verbose bool
}

// workloadRun is one workload: setup builds the inputs and everything
// outside the timed region (and may be called again after close),
// measure times operations for cfg.seconds and checks their outputs.
type workloadRun interface {
	setup() (pins, error)
	measure(rec *recorder, tr *tracer) error
	// probeInput is the dataset the standalone layer probes run on.
	probeInput() *input
	close()
}

// workloadDef is one row of the workload table.
type workloadDef struct {
	name string
	why  string
	new  func(cfg config) workloadRun
}

var workloads = []workloadDef{
	{"scale-join", "no ML, no conflicts: exec enumeration, crystal columns and detect do nearly all the work of a 250k-tuple batch clean",
		func(cfg config) workloadRun { return &batch{cfg: cfg} }},
	{"apps-ml", "Bank, Logistics and Sales cleaned back to back: ML predicates, KG extraction, conflict resolution; too small for the columnar path",
		func(cfg config) workloadRun { return &batch{cfg: cfg} }},
	{"scale-delta", "the scale-join code driven from the dirty side: 1/16/256-tuple inserts and updates on a cleaned 150k base, one caller",
		func(cfg config) workloadRun { return &deltas{cfg: cfg} }},
	{"serve-stream", "rockd's ingest queue, coalescing window, incremental chase and watermark over loopback HTTP on an ML-heavy tenant",
		func(cfg config) workloadRun { return &stream{cfg: cfg} }},
	{"dist-scale", "a 150k-tuple chase through a TCP coordinator and two worker replicas: wire encode, journal replay, ordered merge",
		func(cfg config) workloadRun { return &dist{cfg: cfg} }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// An untraced run sets up at least minSetups times and reports the
// median; a set-up of milliseconds is repeated, up to maxSetups times,
// until two seconds have gone into it, because its median is the noisiest.
const (
	minSetups = 3
	maxSetups = 15
)

// run executes one workload once and returns the contract's result.
func run(cfg config) (*result, error) {
	def, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	w := def.new(cfg)
	rec := newRecorder()
	var tr *tracer
	least, most := minSetups, maxSetups
	if cfg.trace {
		tr = newTracer(cfg.workload)
		least, most = 1, 1
	}
	var setups []float64
	spent := 0.0
	for i := 0; i < least || (i < most && spent < 2); i++ {
		if i > 0 {
			w.close()
			runtime.GC()
		}
		t0 := time.Now()
		p, err := w.setup()
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		setups = append(setups, seconds(time.Since(t0)))
		spent += setups[i]
		if i == 0 && cfg.pin {
			if err := checkPins(cfg.workload, p); err != nil {
				return nil, err
			}
		}
	}
	defer w.close()
	if err := w.measure(rec, tr); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}

	if cfg.verbose {
		for i, o := range rec.ops {
			fmt.Fprintf(os.Stderr, "bench: op %d: %.3f ms, %d tuples\n", i, millis(o.wall), o.tuples)
		}
	}
	res := &result{Metrics: make(map[string]value)}
	if cfg.trace {
		if err := probes(cfg, rec, tr, w.probeInput()); err != nil {
			return nil, fmt.Errorf("%s probes: %w", cfg.workload, err)
		}
		if err := tr.write(cfg.outDir); err != nil {
			return nil, err
		}
		for _, m := range perLayer {
			res.Metrics[m.Name] = value{rec.layers[m.Name], m.Unit}
		}
	} else {
		got := rec.endToEndMetrics(setups)
		for _, m := range endToEnd {
			res.Metrics[m.Name] = value{got[m.Name], m.Unit}
		}
	}
	res.Attempted, res.Failed = rec.attempted, rec.failed
	res.Correct = rec.failed == 0
	return res, nil
}

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload and print the result as one JSON line (default: the whole suite)")
		seed      = flag.Int64("seed", pinnedSeed, "the only source of randomness for the generated inputs")
		secs      = flag.Float64("seconds", runSeconds, "how long one run times operations")
		trace     = flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: tracing off, end-to-end metrics")
		traced    = flag.Bool("traced", false, "suite: run every workload traced")
		repeat    = flag.Int("repeat", 1, "suite: run every workload this many times and compare the passes against the metrics' bounds")
		verbose   = flag.Bool("v", false, "list every timed operation on standard error")
		writePins = flag.Bool("write-pins", false, "regenerate inputs.json for the default seed and exit")
		writeMan  = flag.Bool("write-manifest", false, "regenerate ../BENCHMARK.json from the bench's own tables and exit")
	)
	flag.Parse()
	cfg := config{
		seed: *seed, seconds: time.Duration(*secs * float64(time.Second)), trace: *trace == 1 || *traced,
		sizes: fullSizes, workers: runtime.GOMAXPROCS(0), outDir: "out", verbose: *verbose,
	}
	var err error
	switch {
	case *writePins:
		err = writeInputPins(cfg)
	case *writeMan:
		err = writeManifest()
	case *workload != "":
		cfg.workload = *workload
		err = runOne(cfg)
	default:
		err = suite(cfg, *repeat)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is the contract's entry point: one workload, one JSON line.
func runOne(cfg config) error {
	env, _ := json.Marshal(benchkit.Environment())
	fmt.Fprintf(os.Stderr, "bench: %s seed=%d seconds=%v trace=%v env=%s\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, env)
	cfg.pin = cfg.seed == pinnedSeed
	if !cfg.pin {
		fmt.Fprintf(os.Stderr, "bench: seed %d is not the pinned seed %d: inputs are not compared with inputs.json\n", cfg.seed, pinnedSeed)
	}
	res, err := run(cfg)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeInputPins regenerates inputs.json from the generators.
func writeInputPins(cfg config) error {
	cfg.seed = pinnedSeed
	all := make(map[string]pins)
	for _, def := range workloads {
		cfg.workload = def.name
		w := def.new(cfg)
		p, err := w.setup()
		w.close()
		if err != nil {
			return fmt.Errorf("%s setup: %w", def.name, err)
		}
		all[def.name] = p
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("inputs.json", append(b, '\n'), 0o644)
}

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 15

// writeManifest regenerates BENCHMARK.json from the tables the bench
// itself measures by, so that the two cannot drift apart.
func writeManifest() error {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	man := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{
		Command: []string{"go", "run", "-C", "bench", "."}, Paths: []string{"bench"}, RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		man.Workloads = append(man.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		b := bounds[m.Name]
		man.EndToEnd = append(man.EndToEnd, metric{m.Name, m.Unit, m.Better, &b})
	}
	for _, m := range perLayer {
		man.PerLayer = append(man.PerLayer, metric{m.Name, m.Unit, m.Better, nil})
	}
	b, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("..", "BENCHMARK.json"), append(b, '\n'), 0o644)
}
