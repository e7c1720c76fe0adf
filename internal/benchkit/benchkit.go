// Package benchkit orchestrates the reproduction of every figure panel of
// the paper's evaluation (Figure 4(a)–(l) plus the rule-count and ablation
// summaries). Each experiment builds the synthetic application datasets,
// runs the systems under test, and returns a printable table whose rows
// and series mirror the paper's panels. cmd/rockbench prints them; the
// testing.B benches in bench_test.go time the hot paths.
package benchkit

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/rockclean/rock/internal/baselines"
	"github.com/rockclean/rock/internal/quality"
	"github.com/rockclean/rock/internal/workload"
)

// Table is one experiment result: Rows × Columns of values.
type Table struct {
	ID      string
	Title   string
	Unit    string
	Columns []string
	RowsLbl []string
	Cells   map[string]map[string]float64 // row -> col -> value
	Missing map[string]map[string]bool    // NA cells (unsupported combos)
	Notes   []string
}

// NewTable creates an empty table.
func NewTable(id, title, unit string, cols []string) *Table {
	return &Table{
		ID: id, Title: title, Unit: unit, Columns: cols,
		Cells:   make(map[string]map[string]float64),
		Missing: make(map[string]map[string]bool),
	}
}

// Set stores one cell, creating the row on first use.
func (t *Table) Set(row, col string, v float64) {
	m := t.Cells[row]
	if m == nil {
		m = make(map[string]float64)
		t.Cells[row] = m
		t.RowsLbl = append(t.RowsLbl, row)
	}
	m[col] = v
}

// SetNA marks a cell as unsupported.
func (t *Table) SetNA(row, col string) {
	if t.Cells[row] == nil {
		t.Cells[row] = make(map[string]float64)
		t.RowsLbl = append(t.RowsLbl, row)
	}
	m := t.Missing[row]
	if m == nil {
		m = make(map[string]bool)
		t.Missing[row] = m
	}
	m[col] = true
}

// Note appends a caption line.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Print renders the table.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s", t.ID, t.Title)
	if t.Unit != "" {
		fmt.Fprintf(w, " [%s]", t.Unit)
	}
	fmt.Fprintln(w)
	width := 12
	fmt.Fprintf(w, "%-14s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(w, "%*s", width, c)
	}
	fmt.Fprintln(w)
	for _, r := range t.RowsLbl {
		fmt.Fprintf(w, "%-14s", r)
		for _, c := range t.Columns {
			if t.Missing[r][c] {
				fmt.Fprintf(w, "%*s", width, "—")
				continue
			}
			v, ok := t.Cells[r][c]
			if !ok {
				fmt.Fprintf(w, "%*s", width, "")
				continue
			}
			fmt.Fprintf(w, "%*s", width, formatValue(v, t.Unit))
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func formatValue(v float64, unit string) string {
	switch unit {
	case "F1":
		return fmt.Sprintf("%.3f", v)
	case "ms":
		return fmt.Sprintf("%.1f", v)
	case "count", "x", "calls":
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// Config sizes the experiments.
type Config struct {
	// N is the base tuple count per application.
	N int
	// Seed drives the generators.
	Seed int64
	// Workers is the worker-pool size of every panel but the two scaling
	// ones (fig4h, fig4l), which sweep it.
	Workers int
}

// DefaultConfig keeps experiments laptop-fast.
func DefaultConfig() Config { return Config{N: 400, Seed: 2024, Workers: 4} }

func (c Config) wl() workload.Config {
	return workload.Config{N: c.N, Seed: c.Seed}
}

func appDataset(app string, cfg Config) (*workload.Dataset, error) {
	switch strings.ToLower(app) {
	case "bank":
		return workload.Bank(cfg.wl()), nil
	case "logistics":
		return workload.Logistics(cfg.wl()), nil
	case "sales":
		return workload.Sales(cfg.wl()), nil
	}
	return nil, fmt.Errorf("benchkit: unknown application %q (valid: Bank, Logistics, Sales)", app)
}

func appTasks(app string) ([]string, error) {
	switch strings.ToLower(app) {
	case "bank":
		return []string{"CNC", "CIC", "TPA", "ESClean"}, nil
	case "logistics":
		return []string{"RS", "RR", "SN", "RClean"}, nil
	case "sales":
		return []string{"CIN", "CCN", "TPWT", "SClean"}, nil
	}
	return nil, fmt.Errorf("benchkit: unknown application %q (valid: Bank, Logistics, Sales)", app)
}

// timeIt measures one call in milliseconds.
func timeIt(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return float64(time.Since(start).Microseconds()) / 1000.0, err
}

// taskGold restricts a gold labelling to one task's target attributes
// (the *Clean tasks keep everything).
func taskGold(ds *workload.Dataset, task string) *quality.Gold {
	var target []string
	hasER := false
	for _, tk := range ds.Tasks {
		if tk.Name == task {
			target = tk.TargetAttrs
			for _, id := range tk.RuleIDs {
				for _, r := range ds.Rules {
					if r.ID == id && r.TaskOf().String() == "ER" {
						hasER = true
					}
				}
			}
		}
	}
	if len(target) == 0 {
		return ds.Gold // dataset-wide task
	}
	want := map[string]bool{}
	for _, a := range target {
		want[a] = true
	}
	g := quality.NewGold()
	for key, v := range ds.Gold.WrongCells {
		if want[relAttrOfKey(key)] {
			g.WrongCells[key] = v
		}
	}
	for key, v := range ds.Gold.MissingCells {
		if want[relAttrOfKey(key)] {
			g.MissingCells[key] = v
		}
	}
	if hasER {
		for p := range ds.Gold.DupPairs {
			g.DupPairs[p] = true
		}
	}
	return g
}

// relAttrOfKey turns a cell key "Rel[tid].attr" into "Rel.attr".
func relAttrOfKey(key string) string {
	rel := key
	for i := 0; i < len(key); i++ {
		if key[i] == '[' {
			rel = key[:i]
			break
		}
	}
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '.' {
			return rel + "." + key[i+1:]
		}
	}
	return key
}

// filterCells keeps detected cells whose attribute is targeted (all, when
// target empty).
func filterCells(cells map[string]bool, target []string) map[string]bool {
	if len(target) == 0 {
		return cells
	}
	want := map[string]bool{}
	for _, a := range target {
		want[a] = true
	}
	out := make(map[string]bool)
	for k := range cells {
		if want[relAttrOfKey(k)] {
			out[k] = true
		}
	}
	return out
}

func targetsOf(ds *workload.Dataset, task string) []string {
	for _, tk := range ds.Tasks {
		if tk.Name == task {
			return tk.TargetAttrs
		}
	}
	return nil
}

// taskBench builds a bench whose rule set is restricted to one task.
func taskBench(ds *workload.Dataset, task string, workers int) *baselines.Bench {
	b := baselines.NewBench(ds, workers)
	b.Rules = b.DS.RulesFor(task)
	return b
}

// sortedApps is the canonical application order.
var sortedApps = []string{"Bank", "Logistics", "Sales"}
