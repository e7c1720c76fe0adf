package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/rockclean/rock/internal/crystal"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/exec"
	"github.com/rockclean/rock/internal/ml"
	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/workload"
)

// spreadTIDs picks n TIDs spread evenly over the relation: one delta of
// that size, touching as many join groups as it has tuples.
func spreadTIDs(rel *data.Relation, n int) map[int]bool {
	out := make(map[int]bool, n)
	if n > rel.Len() {
		n = rel.Len()
	}
	for i := 0; i < n; i++ {
		out[rel.Tuples[i*rel.Len()/n].TID] = true
	}
	return out
}

// probes times single layers of the traced run on the workload's own
// generated data, each under a child span of one "probes" root: the
// column store a chase builds, its refresh after a delta, the executor's
// enumeration of every rule over the raw data (whole and dirty-driven),
// and the raw cost of one ML prediction.
func probes(cfg config, rec *recorder, tr *tracer, in *input) error {
	root := tr.start("probes", nil, 0)
	defer root.End()

	main := in.ds.DB.Rel(in.rels[0])
	for _, name := range in.rels {
		if r := in.ds.DB.Rel(name); r.Len() > main.Len() {
			main = r
		}
	}

	var stores []*crystal.ColumnStore
	d, err := tr.step("crystal.build_columns", root, 0, func() error {
		for _, name := range in.rels {
			cs, err := crystal.BuildColumnStore(in.ds.DB.Rel(name))
			if err != nil {
				return err
			}
			stores = append(stores, cs)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("crystal.BuildColumnStore: %w", err)
	}
	rec.set("crystal.build_columns_s", seconds(d))
	for _, cs := range stores {
		for _, col := range cs.Columns {
			rec.add("crystal.dict_entries", float64(col.Dict.Size()))
		}
		if cs.Rel == main.Schema.Name {
			delta := spreadTIDs(main, 256)
			d, _ := tr.step("crystal.refresh", root, 0, func() error { cs.Refresh(delta); return nil })
			rec.set("crystal.refresh_s", seconds(d))
		}
	}

	// The raw database is only read here; the models train on it as the
	// driver's env step does.
	var env *predicate.Env
	_, _ = tr.step("ml.train", root, 0, func() error { env = in.env(in.ds.DB); return nil })
	enumerate := func(span string, dirty map[string]map[int]bool) (time.Duration, exec.Stats, error) {
		var total exec.Stats
		d, err := tr.step(span, root, 0, func() error {
			// A fresh executor per probe: the dirty run must not inherit
			// the full run's indexes.
			ex := exec.New(env)
			for _, r := range in.ds.Rules {
				st, err := ex.Run(r, exec.Options{UseBlocking: !in.noML, Dirty: dirty}, func(*predicate.Valuation) bool { return true })
				if err != nil {
					return fmt.Errorf("rule %s: %w", r.ID, err)
				}
				total.Valuations += st.Valuations
				total.Enumerated += st.Enumerated
				total.MLCalls += st.MLCalls
			}
			return nil
		})
		return d, total, err
	}
	d, st, err := enumerate("exec.enumerate", nil)
	if err != nil {
		return err
	}
	rec.set("exec.enumerate_s", seconds(d))
	rec.set("exec.valuations", float64(st.Valuations))
	rec.set("exec.enumerated", float64(st.Enumerated))
	rec.set("exec.ml_calls", float64(st.MLCalls))
	if st.Enumerated > 0 {
		rec.set("exec.useful_ratio", float64(st.Valuations)/float64(st.Enumerated))
	}
	d, st, err = enumerate("exec.dirty_enumerate", map[string]map[int]bool{main.Schema.Name: spreadTIDs(main, 16)})
	if err != nil {
		return err
	}
	rec.set("exec.dirty_enumerate_s", seconds(d))
	rec.set("exec.dirty_valuations", float64(st.Valuations))

	return predictProbe(cfg, rec, tr, root)
}

// predictSink keeps the compiler from eliding the timed Predict calls.
var predictSink int

// predictProbe times M_ER.Predict, uncached, over 10 000 seller-name
// pairs sampled from a Logistics dataset.
func predictProbe(cfg config, rec *recorder, tr *tracer, root *obs.Span) error {
	const pairs = 10_000
	ds := workload.Logistics(workload.Config{N: 1000, Seed: cfg.seed})
	rel := ds.DB.Rel("Order")
	col := rel.Schema.Index("seller")
	rng := rand.New(rand.NewSource(cfg.seed))
	left := make([][]data.Value, pairs)
	right := make([][]data.Value, pairs)
	for i := range left {
		left[i] = []data.Value{rel.Tuples[rng.Intn(rel.Len())].Values[col]}
		right[i] = []data.Value{rel.Tuples[rng.Intn(rel.Len())].Values[col]}
	}
	m, err := ds.BuildEnv().Models.Get("M_ER")
	if err != nil {
		return err
	}
	m = ml.Unwrap(m)
	d, _ := tr.step("ml.predict", root, 0, func() error {
		for i := range left {
			if m.Predict(left[i], right[i]) {
				predictSink++
			}
		}
		return nil
	})
	rec.set("ml.predict_ns", float64(d.Nanoseconds())/pairs)
	return nil
}
