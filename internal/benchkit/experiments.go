package benchkit

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/rockclean/rock/internal/baselines"
	"github.com/rockclean/rock/internal/chase"
	"github.com/rockclean/rock/internal/detect"
	"github.com/rockclean/rock/internal/discovery"
	"github.com/rockclean/rock/internal/quality"
)

// Fig4Discovery reproduces Figures 4(a)/(b)/(c): rule-discovery (or model
// training) time per task for {Rock, Rock_noML, ES, T5s, RB}. The paper
// reports ES/T5s/RB failing to finish within a day on the full data; at
// laptop scale the same systems are the slow outliers.
func Fig4Discovery(app string, cfg Config) (*Table, error) {
	cols := []string{"Rock", "Rock_noML", "ES", "T5s", "RB"}
	t := NewTable(figIDFor(app, "discovery"), app+": rule discovery time", "ms", cols)
	tasks, err := appTasks(app)
	if err != nil {
		return nil, err
	}
	for _, task := range tasks {
		for _, sysName := range cols {
			ds, err := appDataset(app, cfg)
			if err != nil {
				return nil, err
			}
			b := taskBench(ds, task, cfg.Workers)
			sys, err := systemByName(sysName)
			if err != nil {
				return nil, err
			}
			ms, err := timeIt(func() error {
				_, err := sys.Discover(b)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s/%s: %w", app, task, sysName, err)
			}
			t.Set(task, sysName, ms)
		}
	}
	t.Note("paper shape: Rock_noML < Rock < ES (unpruned lattice); T5s/RB train miniature stand-ins here — at the paper's 10^8-tuple scale their fine-tuning / feature generation cannot finish in a day (DESIGN.md)")
	return t, nil
}

// Fig4DetectF1 reproduces Figures 4(d)/(e)/(f): error-detection F-measure
// per task for {Rock, Rock_noML, ES, T5s, RB}.
func Fig4DetectF1(app string, cfg Config) (*Table, error) {
	cols := []string{"Rock", "Rock_noML", "ES", "T5s", "RB"}
	t := NewTable(figIDFor(app, "detectf1"), app+": error detection accuracy", "F1", cols)
	tasks, err := appTasks(app)
	if err != nil {
		return nil, err
	}
	for _, task := range tasks {
		for _, sysName := range cols {
			ds, err := appDataset(app, cfg)
			if err != nil {
				return nil, err
			}
			b := taskBench(ds, task, cfg.Workers)
			sys, err := systemByName(sysName)
			if err != nil {
				return nil, err
			}
			cells, dups, err := sys.Detect(b)
			if err != nil {
				return nil, fmt.Errorf("%s/%s/%s: %w", app, task, sysName, err)
			}
			gold := taskGold(b.DS, task)
			cells = filterCells(cells, targetsOf(b.DS, task))
			if len(gold.DupPairs) == 0 {
				dups = nil
			}
			t.Set(task, sysName, quality.ScoreDetection(gold, cells, dups).F1())
		}
	}
	t.Note("paper shape: Rock highest; T5s weak on numeric tasks (TPA/TPWT); Rock_noML trails Rock")
	return t, nil
}

// Fig4gDetectTime reproduces Figure 4(g): detection time per application
// for {Rock, Rock_noML, T5s, RB, SparkSQL, Presto} on the *Clean tasks.
func Fig4gDetectTime(cfg Config) (*Table, error) {
	cols := []string{"Rock", "Rock_noML", "T5s", "RB", "SparkSQL", "Presto"}
	t := NewTable("fig4g", "error detection time per application", "ms", cols)
	cfg.N *= 2 // cost gaps compound with data size (the paper runs full scale)
	for _, app := range sortedApps {
		for _, sysName := range cols {
			ds, err := appDataset(app, cfg)
			if err != nil {
				return nil, err
			}
			b := baselines.NewBench(ds, cfg.Workers)
			sys, err := systemByName(sysName)
			if err != nil {
				return nil, err
			}
			ms, err := timeIt(func() error {
				_, _, err := sys.Detect(b)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", app, sysName, err)
			}
			t.Set(app, sysName, ms)
		}
	}
	t.Note("paper shape: Rock fastest (bar Rock_noML); SQL engines pay unblocked, uncached ML UDFs")
	return t, nil
}

// workerSweep is the worker counts the scaling panels measure: powers of
// two up to GOMAXPROCS, plus GOMAXPROCS itself — more workers than cores
// would time the Go scheduler, not the cluster.
func workerSweep() []int {
	nproc := runtime.GOMAXPROCS(0)
	var out []int
	for n := 1; n < nproc; n *= 2 {
		out = append(out, n)
	}
	return append(out, nproc)
}

// scalePanel builds one scaling panel: run(n) reports the wall clock at n
// workers, once per worker count of the sweep, and the notes carry the
// measured 1 → nproc speed-up next to the paper's 4 → 20 figure.
func scalePanel(id, what, paper string, run func(n int) (time.Duration, error)) (*Table, error) {
	t := NewTable(id, what+": varying n (measured, workers ≤ nproc)", "ms", []string{"Rock"})
	sweep := workerSweep()
	var first, last float64
	for i, n := range sweep {
		wall, err := run(n)
		if err != nil {
			return nil, err
		}
		last = float64(wall.Microseconds()) / 1000.0
		if i == 0 {
			first = last
		}
		t.Set(fmt.Sprintf("n=%d", n), "Rock", last)
	}
	nproc := sweep[len(sweep)-1]
	if nproc > 1 && last > 0 {
		t.Note("measured speedup 1→%d workers: %.2fx", nproc, first/last)
	}
	t.Note("paper: %s from 4 to 20 workers on a 21-node cluster — that sweep needs a ≥20-core host; this one has GOMAXPROCS=%d", paper, nproc)
	return t, nil
}

// Fig4hScaleDetect reproduces Figure 4(h): Logistics detection wall clock
// varying the worker count n (paper: 3.36× from 4 to 20 workers),
// measured on this host's cores. Every row must find the same number of
// errors, or the panel errors.
func Fig4hScaleDetect(cfg Config) (*Table, error) {
	// The paper scales on the full 16M-tuple dataset; use 4x the base size
	// so each worker holds meaningful work.
	cfg.N *= 4
	found := -1
	return scalePanel("fig4h", "Logistics-ED", "3.36x", func(n int) (time.Duration, error) {
		ds, err := appDataset("Logistics", cfg)
		if err != nil {
			return 0, err
		}
		b := baselines.NewBench(ds, n)
		o := detect.DefaultOptions()
		o.Workers = n
		d := detect.New(b.Env, b.Rules, o)
		start := time.Now()
		errs, _, err := d.DetectCtx(context.Background())
		wall := time.Since(start)
		if err != nil {
			return 0, err
		}
		if found >= 0 && len(errs) != found {
			return 0, fmt.Errorf("fig4h: %d workers found %d errors, fewer workers found %d", n, len(errs), found)
		}
		found = len(errs)
		return wall, nil
	})
}

// Fig4iCorrectF1 reproduces Figure 4(i): error-correction F-measure per
// application for {Rock, Rock_seq, Rock_noC, Rock_noML, ES, T5s, RB}.
func Fig4iCorrectF1(cfg Config) (*Table, error) {
	cols := []string{"Rock", "Rock_seq", "Rock_noC", "Rock_noML", "ES", "T5s", "RB"}
	t := NewTable("fig4i", "error correction accuracy per application", "F1", cols)
	for _, app := range sortedApps {
		for _, sysName := range cols {
			ds, err := appDataset(app, cfg)
			if err != nil {
				return nil, err
			}
			b := baselines.NewBench(ds, cfg.Workers)
			sys, err := systemByName(sysName)
			if err != nil {
				return nil, err
			}
			corr, err := sys.Correct(b)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", app, sysName, err)
			}
			t.Set(app, sysName, quality.ScoreCorrection(b.DS.Gold, corr, b.RawValue).Overall().F1())
		}
	}
	t.Note("paper shape: Rock == Rock_seq > Rock_noML > Rock_noC; ML/holistic baselines trail")
	return t, nil
}

// Fig4jSalesTasks reproduces Figure 4(j): Sales correction F-measure per
// task (ER/CR/MI/TD) for {Rock, Rock_noC, ES, T5s, RB}; baselines that do
// not support a task show as missing, matching the paper's omitted bars.
func Fig4jSalesTasks(cfg Config) (*Table, error) {
	cols := []string{"Rock", "Rock_noC", "ES", "T5s", "RB"}
	t := NewTable("fig4j", "Sales-EC: per-task accuracy", "F1", cols)
	type taskScore func(quality.TaskScores) float64
	rows := []struct {
		name string
		get  taskScore
	}{
		{"ER", func(s quality.TaskScores) float64 { return s.ER.F1() }},
		{"CR", func(s quality.TaskScores) float64 { return s.CR.F1() }},
		{"MI", func(s quality.TaskScores) float64 { return s.MI.F1() }},
		{"TD", func(s quality.TaskScores) float64 { return s.TD.F1() }},
	}
	// Unsupported combos (paper: "TD of ES, TD of T5s, TD and ER of RB are
	// not shown").
	unsupported := map[string]map[string]bool{
		"ES":  {"TD": true},
		"T5s": {"TD": true, "ER": true},
		"RB":  {"TD": true, "ER": true},
	}
	for _, sysName := range cols {
		ds, err := appDataset("Sales", cfg)
		if err != nil {
			return nil, err
		}
		b := baselines.NewBench(ds, cfg.Workers)
		sys, err := systemByName(sysName)
		if err != nil {
			return nil, err
		}
		corr, err := sys.Correct(b)
		if err != nil {
			return nil, fmt.Errorf("fig4j/%s: %w", sysName, err)
		}
		s := quality.ScoreCorrection(b.DS.Gold, corr, b.RawValue)
		for _, row := range rows {
			if unsupported[sysName][row.name] {
				t.SetNA(row.name, sysName)
				continue
			}
			t.Set(row.name, sysName, row.get(s))
		}
	}
	t.Note("paper shape: Rock best on every task; TD/ER unsupported by several baselines")
	return t, nil
}

// Fig4kCorrectTime reproduces Figure 4(k): correction time per application
// for {Rock, Rock_seq, Rock_noC, T5s, RB, SparkSQL, Presto} (paper: Rock
// ≥33× faster than the SQL engines; Rock faster than Rock_seq; Rock_noC
// fastest but inaccurate).
func Fig4kCorrectTime(cfg Config) (*Table, error) {
	cols := []string{"Rock", "Rock_seq", "Rock_noC", "T5s", "RB", "SparkSQL", "Presto"}
	t := NewTable("fig4k", "error correction time per application", "ms", cols)
	cfg.N *= 2 // cost gaps compound with data size (the paper runs full scale)
	var rockTotal, sqlTotal float64
	for _, app := range sortedApps {
		for _, sysName := range cols {
			ds, err := appDataset(app, cfg)
			if err != nil {
				return nil, err
			}
			b := baselines.NewBench(ds, cfg.Workers)
			sys, err := systemByName(sysName)
			if err != nil {
				return nil, err
			}
			ms, err := timeIt(func() error {
				_, err := sys.Correct(b)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", app, sysName, err)
			}
			t.Set(app, sysName, ms)
			switch sysName {
			case "Rock":
				rockTotal += ms
			case "SparkSQL":
				sqlTotal += ms
			}
		}
	}
	if rockTotal > 0 {
		t.Note("SparkSQL/Rock total-time ratio: %.1fx (paper: ≥33x)", sqlTotal/rockTotal)
	}
	return t, nil
}

// Fig4lScaleCorrect reproduces Figure 4(l): Logistics correction wall
// clock varying n (paper: 3.12× from 4 to 20 workers), measured on this
// host's cores: Report.WallClock of a chase whose rounds run on a pool of
// n goroutines (serially at n = 1). The merge step (fix application +
// conflict resolution) is serial in every row — hence the sublinear
// scaling, as in the paper.
func Fig4lScaleCorrect(cfg Config) (*Table, error) {
	cfg.N *= 4 // the paper scales on the full dataset; see Fig4hScaleDetect
	return scalePanel("fig4l", "Logistics-EC", "3.12x", func(n int) (time.Duration, error) {
		ds, err := appDataset("Logistics", cfg)
		if err != nil {
			return 0, err
		}
		b := baselines.NewBench(ds, n)
		opts := chase.DefaultOptions()
		opts.Workers = n
		opts.Parallel = n > 1
		opts.Oracle = b.GoldOracle()
		opts.EIDRefs = b.DS.EIDRefs
		rep, err := chase.New(b.Env, b.Rules, b.DS.Gamma, opts).Run()
		if err != nil {
			return 0, err
		}
		return rep.WallClock, nil
	})
}

// RuleCounts reproduces the §6 text: the number of REE++s discovered per
// application (paper: 388 / 47 / 167 at production scale).
func RuleCounts(cfg Config) (*Table, error) {
	t := NewTable("rules", "discovered REE++s per application", "count", []string{"Rock"})
	for _, app := range sortedApps {
		ds, err := appDataset(app, cfg)
		if err != nil {
			return nil, err
		}
		b := baselines.NewBench(ds, cfg.Workers)
		rules, err := baselines.Rock().Discover(b)
		if err != nil {
			return nil, err
		}
		t.Set(app, "Rock", float64(len(rules)))
	}
	t.Note("paper finds 388/47/167 at 10^8-10^9-tuple scale; counts here reflect the laptop-scale generators")
	return t, nil
}

// Ablations reproduces the §6 ablation summary plus the design-choice
// ablations called out in DESIGN.md: ML predicates, task interaction,
// blocking, the lazy chase and manual effort.
func Ablations(cfg Config) (*Table, error) {
	t := NewTable("ablation", "ablation summary (Bank)", "", []string{"value"})
	ds, err := appDataset("Bank", cfg)
	if err != nil {
		return nil, err
	}

	// (1) ML predicates: detection F1 gap.
	bFull := baselines.NewBench(ds, cfg.Workers)
	cells, dups, err := baselines.Rock().Detect(bFull)
	if err != nil {
		return nil, err
	}
	fullF1 := quality.ScoreDetection(bFull.DS.Gold, cells, dups).F1()
	bNoML := baselines.NewBench(ds, cfg.Workers)
	cells, dups, err = baselines.RockNoML().Detect(bNoML)
	if err != nil {
		return nil, err
	}
	nomlF1 := quality.ScoreDetection(bNoML.DS.Gold, cells, dups).F1()
	t.Set("detect F1 Rock", "value", fullF1)
	t.Set("detect F1 noML", "value", nomlF1)

	// (2) interaction: correction F1 Rock vs noC vs seq.
	score := func(sys baselines.System) (float64, error) {
		b := baselines.NewBench(ds, cfg.Workers)
		corr, err := sys.Correct(b)
		if err != nil {
			return 0, err
		}
		return quality.ScoreCorrection(b.DS.Gold, corr, b.RawValue).Overall().F1(), nil
	}
	for name, sys := range map[string]baselines.System{
		"correct F1 Rock": baselines.Rock(), "correct F1 seq": baselines.RockSeq(), "correct F1 noC": baselines.RockNoC(),
	} {
		f1, err := score(sys)
		if err != nil {
			return nil, err
		}
		t.Set(name, "value", f1)
	}

	// (3) blocking: detection time with/without LSH blocking.
	withBlocking := baselines.Rock()
	noBlocking := baselines.Rock()
	noBlocking.Blocking = false
	noBlocking.VariantName = "Rock_noblock"
	msOn, err := timeIt(func() error {
		b := baselines.NewBench(ds, cfg.Workers)
		_, _, err := withBlocking.Detect(b)
		return err
	})
	if err != nil {
		return nil, err
	}
	msOff, err := timeIt(func() error {
		b := baselines.NewBench(ds, cfg.Workers)
		_, _, err := noBlocking.Detect(b)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Set("detect ms blocked", "value", msOn)
	t.Set("detect ms unblocked", "value", msOff)

	// (4) lazy chase: correction time with/without lazy activation.
	lazy := baselines.Rock()
	naive := baselines.Rock()
	naive.Lazy = false
	naive.VariantName = "Rock_eager"
	msLazy, err := timeIt(func() error {
		b := baselines.NewBench(ds, cfg.Workers)
		_, err := lazy.Correct(b)
		return err
	})
	if err != nil {
		return nil, err
	}
	msNaive, err := timeIt(func() error {
		b := baselines.NewBench(ds, cfg.Workers)
		_, err := naive.Correct(b)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Set("correct ms lazy", "value", msLazy)
	t.Set("correct ms eager", "value", msNaive)

	// (5) manual effort: the paper's bank client reports Rock "reduces
	// manual efforts of customer confirmations by 8×" — before Rock, every
	// detected error went to a human; with Rock, the rules + ground truth
	// + learned resolvers certify most fixes and only the conflicts they
	// cannot decide reach the user (each asked once).
	bEffort := baselines.NewBench(ds, cfg.Workers)
	effCells, effDups, err := baselines.Rock().Detect(bEffort)
	if err != nil {
		return nil, err
	}
	reviewed := float64(len(effCells) + len(effDups))
	opts := chase.DefaultOptions()
	opts.Workers = cfg.Workers
	opts.Oracle = bEffort.GoldOracle()
	opts.EIDRefs = bEffort.DS.EIDRefs
	eng := chase.New(bEffort.Env, bEffort.Rules, bEffort.DS.Gamma, opts)
	rep, err := eng.Run()
	if err != nil {
		return nil, err
	}
	asked := float64(rep.OracleCalls)
	t.Set("errors to review w/o Rock", "value", reviewed)
	t.Set("user confirmations w/ Rock", "value", asked)
	if asked > 0 {
		t.Note("manual-effort reduction: %.1fx (paper's bank client: 8x)", reviewed/asked)
	}

	t.Note("paper: ML predicates +20.5%% F1 avg; Rock_noC 23.7%% vs Rock 88.5%%; Rock == Rock_seq on F1")
	return t, nil
}

// Poly reproduces §5.4's polynomial-expression learning: the stump
// ensemble ranks numeric attributes, LASSO fits the expression, and the
// learned arithmetic (total ≈ amount + fee; price_no_tax ≈ price/rate per
// tax class) detects the injected numerical errors.
func Poly(cfg Config) (*Table, error) {
	t := NewTable("poly", "polynomial expressions (§5.4)", "", []string{"R2", "terms", "detectF1"})
	cases := []struct {
		app, rel, target string
	}{
		{"Bank", "Payment", "total"},
		{"Sales", "SalesOrder", "price_no_tax"},
	}
	for _, c := range cases {
		ds, err := appDataset(c.app, cfg)
		if err != nil {
			return nil, err
		}
		rel := ds.DB.Rel(c.rel)
		opts := discovery.DefaultPolyOptions()
		opts.MinR2 = 0.5 // learned on dirty data
		p, ok := discovery.DiscoverPolynomial(rel, c.target, opts)
		row := c.app + "." + c.target
		if !ok {
			t.SetNA(row, "R2")
			t.SetNA(row, "terms")
			t.SetNA(row, "detectF1")
			continue
		}
		t.Set(row, "R2", p.R2)
		t.Set(row, "terms", float64(len(p.Terms)))
		// Score the expression as an error detector for the target column.
		var prf quality.PRF
		goldCells := ds.Gold.ErrorCells()
		for _, tp := range rel.Tuples {
			violates, okV := p.Violates(rel, tp)
			if !okV {
				continue
			}
			key := quality.CellKey(c.rel, tp.TID, c.target)
			switch {
			case violates && goldCells[key]:
				prf.TP++
			case violates:
				prf.FP++
			case goldCells[key]:
				prf.FN++
			}
		}
		t.Set(row, "detectF1", prf.F1())
		t.Note("%s: %s (tol %.3g)", row, p.String(), p.Tolerance)
	}
	t.Note("price_no_tax varies with the categorical tax_class, so the single global polynomial fits R² but not a per-class tolerance — the CFD-style rule (tpwt-fd) carries that task; total = amount + fee is fully recovered")
	return t, nil
}

func figIDFor(app, kind string) string {
	suffix := map[string]string{"Bank": "a", "Logistics": "b", "Sales": "c"}[app]
	if kind == "detectf1" {
		suffix = map[string]string{"Bank": "d", "Logistics": "e", "Sales": "f"}[app]
	}
	return "fig4" + suffix
}

func systemByName(name string) (baselines.System, error) {
	switch name {
	case "Rock":
		return baselines.Rock(), nil
	case "Rock_noML":
		return baselines.RockNoML(), nil
	case "Rock_seq":
		return baselines.RockSeq(), nil
	case "Rock_noC":
		return baselines.RockNoC(), nil
	case "ES":
		return baselines.NewES(), nil
	case "T5s":
		return baselines.NewT5s(), nil
	case "RB":
		return baselines.NewRB(), nil
	case "SparkSQL":
		return baselines.NewSparkSQL(), nil
	case "Presto":
		return baselines.NewPresto(), nil
	}
	return nil, fmt.Errorf("benchkit: unknown system %q (valid: Rock, Rock_noML, Rock_seq, Rock_noC, ES, T5s, RB, SparkSQL, Presto)", name)
}

// panels is the one table of experiment ids, in paper order: All ranges
// over it, ByID looks an id up in it, and cmd/rockbench's help is IDs().
var panels = []struct {
	id  string
	run func(Config) (*Table, error)
}{
	{"fig4a", func(c Config) (*Table, error) { return Fig4Discovery("Bank", c) }},
	{"fig4b", func(c Config) (*Table, error) { return Fig4Discovery("Logistics", c) }},
	{"fig4c", func(c Config) (*Table, error) { return Fig4Discovery("Sales", c) }},
	{"fig4d", func(c Config) (*Table, error) { return Fig4DetectF1("Bank", c) }},
	{"fig4e", func(c Config) (*Table, error) { return Fig4DetectF1("Logistics", c) }},
	{"fig4f", func(c Config) (*Table, error) { return Fig4DetectF1("Sales", c) }},
	{"fig4g", Fig4gDetectTime},
	{"fig4h", Fig4hScaleDetect},
	{"fig4i", Fig4iCorrectF1},
	{"fig4j", Fig4jSalesTasks},
	{"fig4k", Fig4kCorrectTime},
	{"fig4l", Fig4lScaleCorrect},
	{"rules", RuleCounts},
	{"poly", Poly},
	{"ablation", Ablations},
}

// retired are the experiments the benchmark ledger (bench/) replaced.
var retired = []string{"predication", "steal", "faults", "profile", "scale", "serve", "distributed"}

// IDs lists the experiment ids in paper order.
func IDs() []string {
	ids := make([]string, len(panels))
	for i, p := range panels {
		ids[i] = p.id
	}
	return ids
}

// All runs every experiment in paper order.
func All(cfg Config) ([]*Table, error) {
	var out []*Table
	for _, p := range panels {
		t, err := p.run(cfg)
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	return out, nil
}

// ByID dispatches one experiment.
func ByID(id string, cfg Config) (*Table, error) {
	run, err := lookup(id)
	if err != nil {
		return nil, err
	}
	return run(cfg)
}

// lookup resolves an id to its panel; a retired id's error says where
// that measurement lives now.
func lookup(id string) (func(Config) (*Table, error), error) {
	for _, p := range panels {
		if p.id == id {
			return p.run, nil
		}
	}
	for _, r := range retired {
		if r == id {
			return nil, fmt.Errorf("benchkit: experiment %q was retired — the benchmark ledger measures it now: go run -C bench .", id)
		}
	}
	return nil, fmt.Errorf("benchkit: unknown experiment %q (want %s, all)", id, strings.Join(IDs(), ", "))
}
