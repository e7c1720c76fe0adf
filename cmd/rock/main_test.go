package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/rock"
)

// TestGenCleanRoundTrip drives the CLI flow end to end for every
// application: generate a dataset to CSV, load it back, clean it in
// place, and verify the written files changed and still parse. Logistics
// and Sales carry rules over a knowledge graph and a trained ranker that
// the files cannot hold; gen must leave those out for clean to run.
func TestGenCleanRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		app   string
		files []string
		watch string // a relation with injected nulls for clean to impute
	}{
		{"bank", []string{"Customer.csv", "Company.csv", "Payment.csv"}, "Payment.csv"},
		{"logistics", []string{"Order.csv"}, "Order.csv"},
		{"sales", []string{"SalesOrder.csv", "CustomerInfo.csv"}, "SalesOrder.csv"},
	} {
		t.Run(tc.app, func(t *testing.T) {
			dir := t.TempDir()
			if err := cmdGen([]string{"-app", tc.app, "-n", "150", "-seed", "3", "-out", dir}); err != nil {
				t.Fatal(err)
			}
			for _, f := range append(tc.files, "rules.ree") {
				if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
					t.Fatalf("missing %s: %v", f, err)
				}
			}
			watched := filepath.Join(dir, tc.watch)
			before, err := os.ReadFile(watched)
			if err != nil {
				t.Fatal(err)
			}

			// Detect only: must not modify files.
			if err := cmdClean([]string{"-in", dir}, false); err != nil {
				t.Fatal(err)
			}
			mid, _ := os.ReadFile(watched)
			if string(mid) != string(before) {
				t.Fatal("detect must not modify the dataset")
			}

			// Clean: corrects in place.
			if err := cmdClean([]string{"-in", dir}, true); err != nil {
				t.Fatal(err)
			}
			after, _ := os.ReadFile(watched)
			if string(after) == string(before) {
				t.Fatal("clean must write corrections back")
			}
			// The corrected files still load.
			db, err := data.ReadCSVDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if db.TupleCount() == 0 {
				t.Fatal("reloaded database empty")
			}
			// Fewer nulls after cleaning (imputation ran).
			countNulls := func(b []byte) int { return strings.Count(string(b), ",null") }
			if countNulls(after) >= countNulls(before) {
				t.Errorf("imputation should reduce nulls: %d -> %d", countNulls(before), countNulls(after))
			}
		})
	}
}

// TestCleanMetricsOut checks the acceptance contract of -metrics-out: the
// exported JSON snapshot must agree exactly with the library Report for
// the same run — round count, fix counts, ML calls, and per-node unit
// counts. Serial mode (-parallel=false) makes every counter deterministic,
// so a reference run through the rock API pins the expected values.
func TestCleanMetricsOut(t *testing.T) {
	dir := t.TempDir()
	if err := cmdGen([]string{"-app", "bank", "-n", "120", "-seed", "5", "-out", dir}); err != nil {
		t.Fatal(err)
	}

	// Reference run through the library API on the same dataset.
	db, err := data.ReadCSVDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := rock.DefaultOptions()
	opts.Workers = 4
	opts.Parallel = false
	opts.Predication = true
	opts.Obs = obs.New()
	p := rock.NewPipelineWith(db, opts)
	p.RegisterMatcher("M_ER", 0.82)
	p.RegisterMatcher("M_addr", 0.82)
	p.RegisterMatcher("M_SKU", 0.82)
	p.TrainCorrelationModels()
	text, err := os.ReadFile(filepath.Join(dir, "rules.ree"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ParseRules(string(text)); err != nil {
		t.Fatal(err)
	}
	rep, err := p.Clean()
	if err != nil {
		t.Fatal(err)
	}

	metrics := filepath.Join(dir, "metrics.json")
	if err := cmdClean([]string{"-in", dir, "-parallel=false", "-metrics-out", metrics}, true); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}

	if got, want := snap.Counters["chase.rounds"], uint64(rep.ChaseRounds); got != want {
		t.Errorf("chase.rounds = %d, want %d (Report.ChaseRounds)", got, want)
	}
	if got, want := int(snap.Counters["chase.rounds"]), len(rep.RoundTrace); got != want {
		t.Errorf("chase.rounds = %d, want %d trace rows", got, want)
	}
	// Per-round trace sums pin the run-total counters.
	var units, vals, mls, applied, rejected uint64
	perNode := map[string]uint64{}
	for _, r := range rep.RoundTrace {
		units += uint64(r.Units)
		vals += uint64(r.Valuations)
		mls += uint64(r.MLCalls)
		applied += uint64(r.Applied)
		rejected += uint64(r.Rejected)
		for n, c := range r.NodeUnits {
			perNode[n] += uint64(c)
		}
	}
	for name, want := range map[string]uint64{
		"chase.units":          units,
		"chase.valuations":     vals,
		"chase.ml_calls":       mls,
		"chase.fixes.applied":  applied,
		"chase.fixes.rejected": rejected,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d (Report trace total)", name, got, want)
		}
	}
	for n, want := range perNode {
		if got := snap.Counters["chase.node."+n+".units"]; got != want {
			t.Errorf("chase.node.%s.units = %d, want %d", n, got, want)
		}
	}
	// Serial mode runs every chase unit on its one worker, node-0.
	for name := range snap.Counters {
		if strings.HasPrefix(name, "chase.node.") && name != "chase.node.node-0.units" {
			t.Errorf("%s recorded in serial mode", name)
		}
	}
	// The reference Report's own Metrics were recorded the same way; the
	// deterministic chase counters must be identical across the two runs.
	// (detect.* node counters vary run to run: detection runs on the full
	// pool regardless of -parallel, so which worker ran what is
	// scheduling-dependent there.)
	for name, want := range rep.Metrics.Counters {
		if !strings.HasPrefix(name, "chase.") || strings.HasSuffix(name, "_ns") {
			continue // wall-clock counters legitimately differ
		}
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d (API reference run)", name, got, want)
		}
	}
	// Column work is counted where it happens: detection encodes the
	// columns, the chase reuses them, Materialize refreshes what it wrote.
	if snap.Counters["exec.columns.built"] == 0 {
		t.Error("exec.columns.built missing from -metrics-out")
	}
	if _, ok := snap.Counters["exec.columns.refreshed"]; !ok {
		t.Error("exec.columns.refreshed missing from -metrics-out")
	}
}

func TestGenUnknownApp(t *testing.T) {
	if err := cmdGen([]string{"-app", "nope", "-out", t.TempDir()}); err == nil {
		t.Error("unknown application must fail")
	}
}

func TestLoadDBErrors(t *testing.T) {
	if _, err := data.ReadCSVDir(t.TempDir()); err == nil {
		t.Error("empty dir must fail")
	}
	if _, err := data.ReadCSVDir("/nonexistent-rock-dir"); err == nil {
		t.Error("missing dir must fail")
	}
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "Bad.csv"), []byte("not,a,valid\nrock,csv,file\n"), 0o644)
	if _, err := data.ReadCSVDir(dir); err == nil {
		t.Error("malformed csv must fail")
	}
}

func TestDemoRuns(t *testing.T) {
	if err := cmdDemo(); err != nil {
		t.Fatal(err)
	}
}
