package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/rockclean/rock/internal/baselines"
	"github.com/rockclean/rock/internal/chase"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/detect"
	"github.com/rockclean/rock/internal/ml"
	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/quality"
	"github.com/rockclean/rock/internal/ree"
	"github.com/rockclean/rock/internal/workload"
	"github.com/rockclean/rock/rock"
)

// batch is the driver shared by scale-join and apps-ml. One rep is what
// rock.Pipeline.CleanCtx does, one layer down so that every step can be
// timed from outside: CSV bytes in → parse rules → build the env →
// detect → chase.New → RunCtx → collect corrections → Materialize → CSV
// bytes out. apps-ml cleans its three applications back to back; the
// rep's wall is their sum. Every rep starts from the CSV bytes.
type batch struct {
	cfg    config
	inputs []*input
}

func (b *batch) setup() (pins, error) {
	var sets []*workload.Dataset
	noML := b.cfg.workload == "scale-join"
	if noML {
		sets = []*workload.Dataset{workload.Scale(workload.Config{N: b.cfg.sizes.ScaleN, Seed: b.cfg.seed})}
	} else {
		wc := workload.Config{N: b.cfg.sizes.AppsN, Seed: b.cfg.seed}
		sets = []*workload.Dataset{workload.Bank(wc), workload.Logistics(wc), workload.Sales(wc)}
	}
	p := pins{}
	b.inputs = nil
	for _, ds := range sets {
		in, err := newInput(ds, noML)
		if err != nil {
			return nil, err
		}
		in.pin(p)
		b.inputs = append(b.inputs, in)
	}
	return p, nil
}

func (b *batch) close() {}

// probeInput is the dataset the standalone layer probes run on:
// Logistics carries the ML predicates among the applications.
func (b *batch) probeInput() *input { return b.inputs[len(b.inputs)/2] }

// chaseOptions are the shipped defaults on this host's cores.
func chaseOptions(cfg config, in *input, parallel bool) chase.Options {
	o := chase.DefaultOptions()
	o.Workers = cfg.workers
	o.Parallel = parallel
	o.EIDRefs = in.ds.EIDRefs
	if in.noML {
		o.UseBlocking = false
		o.Predication = false
	}
	return o
}

// repOut is what one rep produced on one input.
type repOut struct {
	in       *input
	steps    map[string]time.Duration
	errors   int
	report   *chase.Report
	counters map[string]uint64
	spans    []obs.SpanRecord
	// Held until the rep's clock has stopped, then read by finish.
	eng  *chase.Engine
	corr *quality.Corrections
	reg  *obs.Registry

	snapshot string
	prf      quality.PRF
	cells    int
}

// finish scores the rep and reads its registry, outside the timed region.
func (o *repOut) finish() {
	o.snapshot = o.eng.Truth().Snapshot()
	o.prf = o.in.score(o.corr)
	o.cells = len(o.corr.Cells)
	o.counters = o.reg.Snapshot().Counters
	o.spans = o.reg.Spans()
	o.eng, o.corr, o.reg = nil, nil, nil
}

// cleanOnce runs the driver steps on one input, each a child span of
// root. programSpans turns the program's own span recording on, as the
// traced run does.
func (b *batch) cleanOnce(in *input, tr *tracer, root *obs.Span, rep int, parallel, programSpans bool) (*repOut, error) {
	out := &repOut{in: in, steps: make(map[string]time.Duration)}
	step := func(name string, fn func() error) error {
		d, err := tr.step(name, root, rep, fn)
		out.steps[name] = d
		if err != nil {
			return fmt.Errorf("%s %s: %w", in.ds.Name, name, err)
		}
		return nil
	}
	ctx := context.Background()
	// One registry and one predication layer span detection and the
	// chase, as in the pipeline.
	var (
		reg   *obs.Registry
		cOpts chase.Options
		dOpts detect.Options
	)
	_ = step("rock.options", func() error {
		reg = obs.New()
		if programSpans {
			reg.EnableSpans(1 << 18)
		}
		cOpts = chaseOptions(b.cfg, in, parallel)
		cOpts.Obs = reg
		dOpts = detect.DefaultOptions()
		dOpts.Workers = b.cfg.workers
		dOpts.UseBlocking = cOpts.UseBlocking
		dOpts.Obs = reg
		if cOpts.Predication {
			cOpts.Pred = ml.NewPredication()
			dOpts.Pred = cOpts.Pred
		}
		return nil
	})

	var (
		db    *data.Database
		rules []*ree.Rule
		env   *predicate.Env
	)
	if err := step("data.read_csv", func() (err error) { db, err = in.readCSV(); return }); err != nil {
		return nil, err
	}
	if err := step("ree.parse", func() (err error) { rules, err = in.parseRules(db); return }); err != nil {
		return nil, err
	}
	_ = step("ml.train", func() error { env = in.env(db); return nil })
	if err := step("detect", func() error {
		errs, _, err := detect.New(env, rules, dOpts).DetectCtx(ctx)
		out.errors = len(errs)
		return err
	}); err != nil {
		return nil, err
	}
	_ = step("chase.new", func() error { out.eng = chase.New(env, rules, in.ds.Gamma, cOpts); return nil })
	if err := step("chase.run", func() (err error) { out.report, err = out.eng.RunCtx(ctx); return }); err != nil {
		return nil, err
	}
	_ = step("truth.corrections_diff", func() error {
		out.corr = baselines.ExtractCorrections(out.eng.Truth(), db, in.ds.Gamma)
		return nil
	})
	_ = step("chase.materialize", func() error { out.eng.Materialize(); return nil })
	if err := step("data.write_csv", func() error {
		for _, name := range in.rels {
			if err := data.WriteCSV(io.Discard, db.Rel(name)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	out.reg = reg
	return out, nil
}

// rep cleans every input once, from CSV bytes to CSV bytes, under one
// root span, and returns its wall.
func (b *batch) rep(tr *tracer, rep int, parallel, programSpans bool) (time.Duration, []*repOut, error) {
	root := tr.start("rep", nil, rep)
	t0 := time.Now()
	var outs []*repOut
	for _, in := range b.inputs {
		out, err := b.cleanOnce(in, tr, root, rep, parallel, programSpans)
		if err != nil {
			return 0, nil, err
		}
		outs = append(outs, out)
	}
	wall := time.Since(t0)
	root.End()
	for _, o := range outs {
		o.finish()
	}
	return wall, outs, nil
}

func snapshotsOf(outs []*repOut) string {
	var sb strings.Builder
	for _, o := range outs {
		sb.WriteString(o.snapshot)
		sb.WriteByte(0)
	}
	return sb.String()
}

func (b *batch) tuples() int {
	n := 0
	for _, in := range b.inputs {
		n += in.tuples()
	}
	return n
}

func (b *batch) measure(rec *recorder, tr *tracer) error {
	// Rep 0 warms the process (heap growth, page faults) and fixes the
	// reference fix set every later rep must reproduce.
	_, warm, err := b.rep(nil, 0, true, false)
	if err != nil {
		return err
	}
	ref := snapshotsOf(warm)
	var prf quality.PRF
	for _, o := range warm {
		prf.Add(o.prf)
	}
	rec.f1 = prf.F1()
	if b.cfg.workload == "scale-join" {
		o := warm[0]
		gold := len(o.in.ds.Gold.MissingCells)
		rec.check(rec.f1 == 1 && o.cells == gold,
			"scale-join corrected %d cells with F1 %.4f; want exactly the %d gold nulls", o.cells, rec.f1, gold)
	}

	var reps [][]*repOut
	var plain, traced []float64
	rec.startGo()
	start := time.Now()
	for i := 1; i <= b.cfg.sizes.MinReps || time.Since(start) < b.cfg.seconds; i++ {
		// A traced run alternates untraced and traced reps, so that the
		// tracing overhead is a ratio of medians taken in one process.
		t := tr
		if i%2 == 1 {
			t = nil
		}
		wall, outs, err := b.rep(t, i, true, t != nil)
		if err != nil {
			return err
		}
		rec.op(wall, b.tuples())
		got := snapshotsOf(outs)
		rec.check(got == ref, "rep %d: fix set %s differs from rep 0's %s", i, fnv64([]byte(got)), fnv64([]byte(ref)))
		if tr != nil {
			reps = append(reps, outs)
		}
		if t != nil {
			traced = append(traced, seconds(wall))
			// Keep the program's own spans of the latest traced rep only.
			tr.program, outs[0].spans = outs[0].spans, nil
		} else {
			plain = append(plain, seconds(wall))
		}
	}
	rec.stopGo()
	if tr == nil {
		return nil
	}

	// The determinism invariant: a serial chase lands on the same fix set.
	_, serial, err := b.rep(nil, len(reps)+1, false, false)
	if err != nil {
		return err
	}
	rec.check(snapshotsOf(serial) == ref, "Parallel=false rep: fix set differs from the parallel one")
	tr.checkCoverage(rec)
	rec.set("obs.trace_overhead_ratio", median(traced)/median(plain))
	b.layers(rec, reps)
	if b.cfg.workload == "scale-join" {
		if err := b.pipelineProbe(rec, tr, reps); err != nil {
			return err
		}
	}
	return nil
}

// layers folds the reps' step clocks and the program's own public
// counters into the per-layer metrics: times are medians over the reps,
// counts come from the first rep (they repeat exactly).
func (b *batch) layers(rec *recorder, reps [][]*repOut) {
	stepMedian := func(name string) float64 {
		xs := make([]float64, len(reps))
		for i, outs := range reps {
			for _, o := range outs {
				xs[i] += seconds(o.steps[name])
			}
		}
		return median(xs)
	}
	rec.set("data.read_csv_s", stepMedian("data.read_csv"))
	rec.set("data.write_csv_s", stepMedian("data.write_csv"))
	rec.set("data.tuples", float64(b.tuples()))
	rec.set("ml.train_s", stepMedian("ml.train"))
	rec.set("detect.wall_s", stepMedian("detect"))
	rec.set("chase.new_s", stepMedian("chase.new"))
	rec.set("chase.run_s", stepMedian("chase.run"))
	rec.set("chase.materialize_s", stepMedian("chase.materialize"))
	rec.set("truth.corrections_diff_s", stepMedian("truth.corrections_diff"))

	round1 := make([]float64, len(reps))
	rest := make([]float64, len(reps))
	cpu := make([]float64, len(reps))
	for i, outs := range reps {
		for _, o := range outs {
			r1, rr, c := chaseTimes(o.report.Trace, o.report.RuleProfile)
			round1[i] += r1
			rest[i] += rr
			cpu[i] += c
		}
	}
	rec.set("chase.round1_s", median(round1))
	rec.set("chase.rounds_rest_s", median(rest))
	rec.set("chase.unit_cpu_s", median(cpu))
	rec.set("cluster.parallel_ratio", median(cpu)/stepMedian("chase.run"))

	nodeUnits := make(map[string]int)
	for _, o := range reps[0] {
		chaseCounts(rec, o.report.Rounds, o.report.Trace, o.report.Predication, nodeUnits)
		rec.add("detect.errors", float64(o.errors))
		rec.add("detect.units", float64(o.counters["detect.units"]))
		rec.add("truth.snapshot_bytes", float64(len(o.snapshot)))
		execCounters(rec, o.counters)
	}
	finishCounts(rec, nodeUnits)
}

// chaseTimes splits one chase run's public timings, in seconds: the first
// round, the later rounds, and the unit cost summed over the rules.
func chaseTimes(trace []chase.RoundTrace, profile []chase.RuleCost) (round1, rest, cpu float64) {
	for i, rt := range trace {
		if i == 0 {
			round1 = seconds(rt.Duration)
		} else {
			rest += seconds(rt.Duration)
		}
	}
	for _, rc := range profile {
		cpu += seconds(rc.Wall)
	}
	return
}

// chaseCounts adds one chase run's public counters to the recorder.
func chaseCounts(rec *recorder, rounds int, trace []chase.RoundTrace, p ml.PredStats, nodeUnits map[string]int) {
	rec.add("chase.rounds", float64(rounds))
	for _, rt := range trace {
		rec.add("chase.valuations", float64(rt.Valuations))
		rec.add("chase.ml_calls", float64(rt.MLCalls))
		rec.add("chase.units", float64(rt.Units))
		rec.add("chase.fixes_applied", float64(rt.Applied))
		rec.add("chase.fixes_rejected", float64(rt.Rejected))
		rec.add("chase.steals", float64(rt.Steals))
		for node, n := range rt.NodeUnits {
			nodeUnits[node] += n
		}
	}
	rec.add("ml.pred_hits", float64(p.Hits))
	rec.add("ml.pred_misses", float64(p.Misses))
	rec.add("ml.pred_warmed", float64(p.Warmed))
}

// execCounters adds the executor's public obs counters of one run.
func execCounters(rec *recorder, counters map[string]uint64) {
	for name, v := range counters {
		if strings.HasPrefix(name, "exec.ml.") && strings.HasSuffix(name, ".calls") {
			rec.add("ml.calls", float64(v))
		}
	}
	rec.add("exec.vec_joins", float64(counters["exec.vec.joins"]))
	rec.add("exec.vec_select_fallbacks", float64(counters["exec.vec.select_fallbacks"]))
	rec.add("exec.blocker_hits", float64(counters["exec.blocker.hits"]))
	rec.add("exec.blocker_misses", float64(counters["exec.blocker.misses"]))
}

// finishCounts derives the ratios that need the summed counts.
func finishCounts(rec *recorder, nodeUnits map[string]int) {
	if l := rec.layers["ml.pred_hits"] + rec.layers["ml.pred_misses"]; l > 0 {
		rec.set("ml.pred_hit_ratio", rec.layers["ml.pred_hits"]/l)
	}
	all, most := 0, 0
	for _, n := range nodeUnits {
		all += n
		if n > most {
			most = n
		}
	}
	if all > 0 {
		rec.set("cluster.node_units_max_share", float64(most)/float64(all))
	}
}

// pipelineProbe keeps the driver honest: the public Pipeline.Clean() on
// the same input must produce the driver's correction count, and its wall
// (median of three cleans, each on freshly read CSV) is reported beside
// the driver's detect→materialize span.
func (b *batch) pipelineProbe(rec *recorder, tr *tracer, reps [][]*repOut) error {
	in := b.inputs[0]
	opts := scaleOptions(b.cfg.workers)
	root := tr.start("probes", nil, 0)
	defer root.End()
	var walls []float64
	for i := 0; i < 3; i++ {
		db, err := in.readCSV()
		if err != nil {
			return err
		}
		p := rock.NewPipelineWith(db, opts)
		if _, err := p.ParseRules(in.rules); err != nil {
			return err
		}
		var report *rock.Report
		wall, err := tr.step("rock.clean", root, i, func() (err error) { report, err = p.Clean(); return })
		if err != nil {
			return fmt.Errorf("rock.Pipeline.Clean: %w", err)
		}
		walls = append(walls, seconds(wall))
		want := reps[0][0].cells
		rec.check(len(report.Corrections) == want, "rock.Pipeline.Clean made %d corrections, the driver %d", len(report.Corrections), want)
	}
	rec.set("rock.clean_wall_s", median(walls))
	span := make([]float64, len(reps))
	for i, outs := range reps {
		for _, name := range []string{"detect", "chase.new", "chase.run", "truth.corrections_diff", "chase.materialize"} {
			span[i] += seconds(outs[0].steps[name])
		}
	}
	if gap := median(walls)/median(span) - 1; gap > 0.10 || gap < -0.10 {
		fmt.Fprintf(os.Stderr, "bench: warning: rock.Pipeline.Clean took %.3fs, %+.0f%% off the driver's detect→materialize span of %.3fs\n",
			median(walls), 100*gap, median(span))
	}
	return nil
}
