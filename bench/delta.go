package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/rockclean/rock/internal/chase"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/truth"
	"github.com/rockclean/rock/internal/workload"
	"github.com/rockclean/rock/rock"
)

// deltas is scale-delta: a Scale base cleaned once through the public
// rock.Pipeline (set-up), then a closed loop of one caller applying
// deltas whose sizes cycle through cfg.sizes.DeltaSizes. Even deltas
// insert tuples that join existing sku groups (every other one with a
// null mfg); odd deltas null the mfg of one tuple in each of as many
// distinct groups, so a witness always remains and every null is
// imputed. The timed call is Delta.CleanIncrementalReport.
type deltas struct {
	cfg  config
	in   *input
	pipe *rock.Pipeline
	base *rock.Report
	rng  *rand.Rand
	// cursor walks the base tuples for the update deltas.
	cursor int
	baseN  int
}

// scaleOptions are the shipped pipeline defaults on this host's cores,
// with blocking and predication off as the Scale workload has no ML.
func scaleOptions(workers int) rock.Options {
	o := rock.DefaultOptions()
	o.Workers = workers
	o.UseBlocking = false
	o.Predication = false
	return o
}

func (d *deltas) setup() (pins, error) {
	ds := workload.Scale(workload.Config{N: d.cfg.sizes.DeltaN, Seed: d.cfg.seed})
	in, err := newInput(ds, true)
	if err != nil {
		return nil, err
	}
	p := pins{}
	in.pin(p)
	d.in = in
	d.pipe = rock.NewPipelineWith(ds.DB, scaleOptions(d.cfg.workers))
	if _, err := d.pipe.ParseRules(in.rules); err != nil {
		return nil, err
	}
	if d.base, err = d.pipe.Clean(); err != nil {
		return nil, fmt.Errorf("base clean: %w", err)
	}
	d.rng = rand.New(rand.NewSource(d.cfg.seed))
	d.cursor, d.baseN = 0, ds.DB.Rel("Events").Len()
	return p, nil
}

func (d *deltas) close()             {}
func (d *deltas) probeInput() *input { return d.in }

// apply records delta i on dl and returns its size and the imputations
// it must cause: cell → value.
func (d *deltas) apply(dl *rock.Delta, i int) (int, map[data.CellRef]data.Value) {
	rel := d.pipe.DB().Rel("Events")
	size := d.cfg.sizes.DeltaSizes[i%len(d.cfg.sizes.DeltaSizes)]
	sku, mfg := rel.Schema.Index("sku"), rel.Schema.Index("mfg")
	want := make(map[data.CellRef]data.Value)
	if i%2 == 0 {
		for j := 0; j < size; j++ {
			// Between deltas every base tuple has a manufacturer: the base
			// clean and each delta clean materialise their imputations.
			peer := rel.Tuples[d.rng.Intn(d.baseN)]
			v := peer.Values[mfg]
			if j%2 == 0 {
				v = data.Null(data.TString)
			}
			t := dl.Insert("Events", fmt.Sprintf("d%d-%d", i, j), peer.Values[sku], v, data.S("R1"), data.S("C1"))
			if v.IsNull() {
				want[data.CellRef{Rel: "Events", TID: t.TID, Attr: "mfg"}] = peer.Values[mfg]
			}
		}
		return size, want
	}
	for j := 0; j < size; j++ {
		if d.cursor >= d.baseN {
			d.cursor = 0
		}
		t := rel.Tuples[d.cursor]
		want[data.CellRef{Rel: "Events", TID: t.TID, Attr: "mfg"}] = t.Values[mfg]
		dl.Update("Events", t.TID, "mfg", data.Null(data.TString))
		// Skip the rest of the group: one nulled tuple per sku.
		for d.cursor < d.baseN && rel.Tuples[d.cursor].Values[sku].Equal(t.Values[sku]) {
			d.cursor++
		}
	}
	return size, want
}

func (d *deltas) measure(rec *recorder, tr *tracer) error {
	gold := len(d.in.ds.Gold.MissingCells)
	rec.check(len(d.base.Corrections) == gold, "base clean made %d corrections, want the %d gold nulls", len(d.base.Corrections), gold)

	ctx := context.Background()
	var tp, fp, fn int
	var runs, round1, rest []float64
	countedTuples, countedRun := 0, 0.0
	nodeUnits := make(map[string]int)
	rec.startGo()
	start := time.Now()
	for i := 0; i < d.cfg.sizes.MinDeltas || time.Since(start) < d.cfg.seconds; i++ {
		root := tr.start("rep", nil, i)
		dl := d.pipe.NewDelta()
		var size int
		var want map[data.CellRef]data.Value
		_, _ = tr.step("rock.delta_apply", root, i, func() error { size, want = d.apply(dl, i); return nil })
		var report *rock.Report
		wall, err := tr.step("rock.clean_incremental", root, i, func() (err error) {
			report, err = dl.CleanIncrementalReport(ctx)
			return
		})
		root.End()
		if err != nil {
			return fmt.Errorf("delta %d: %w", i, err)
		}
		rec.op(wall, size)
		hit := 0
		for _, c := range report.Corrections {
			if v, ok := want[c.Cell]; ok && v.Equal(c.New) {
				hit++
			}
		}
		tp += hit
		fp += len(report.Corrections) - hit
		fn += len(want) - hit
		rec.check(len(report.Corrections) == len(want) && hit == len(want),
			"delta %d (size %d): %d corrections, %d of them the expected imputations, want %d", i, size, len(report.Corrections), hit, len(want))

		if tr == nil {
			continue
		}
		r1, rr, cpu := chaseTimes(report.RoundTrace, report.RuleProfile)
		runs, round1, rest = append(runs, r1+rr), append(round1, r1), append(rest, rr)
		// Counts cover the first MinDeltas deltas, the same ones in every
		// run, so that they repeat exactly.
		if i < d.cfg.sizes.MinDeltas {
			countedTuples += size
			countedRun += r1 + rr
			chaseCounts(rec, report.ChaseRounds, report.RoundTrace, report.Predication, nodeUnits)
			execCounters(rec, report.Metrics.Counters)
			rec.add("chase.unit_cpu_s", cpu)
		}
	}
	rec.stopGo()
	rec.f1 = float64(2*tp) / float64(2*tp+fp+fn)
	// Whether a delta's cost tracks its size or the base is the question
	// this workload exists for; say it in every run's log.
	bySize := make(map[int][]float64)
	for _, o := range rec.ops {
		bySize[o.tuples] = append(bySize[o.tuples], millis(o.wall))
	}
	for _, size := range d.cfg.sizes.DeltaSizes {
		fmt.Fprintf(os.Stderr, "bench: scale-delta: p50 of the %d-tuple deltas %.1f ms (n=%d)\n", size, median(bySize[size]), len(bySize[size]))
	}
	if tr == nil {
		return nil
	}
	tr.checkCoverage(rec)
	finishCounts(rec, nodeUnits)
	rec.set("data.tuples", float64(d.pipe.DB().TupleCount()))
	rec.set("chase.run_s", median(runs))
	rec.set("chase.round1_s", median(round1))
	rec.set("chase.rounds_rest_s", median(rest))
	rec.set("chase.valuations_per_delta_tuple", rec.layers["chase.valuations"]/float64(countedTuples))
	rec.set("cluster.parallel_ratio", rec.layers["chase.unit_cpu_s"]/countedRun)

	// chase.New is the suspected flat cost of a delta: time one on the
	// live database, as CleanIncrementalReport builds one per call.
	probe := tr.start("probes", nil, 0)
	t, _ := tr.step("chase.new", probe, 0, func() error {
		chase.New(predicate.NewEnv(d.pipe.DB()), d.in.ds.Rules, truth.NewFixSet(), chaseOptions(d.cfg, d.in, true))
		return nil
	})
	probe.End()
	rec.set("chase.new_s", seconds(t))
	return nil
}
