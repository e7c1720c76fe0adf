package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"github.com/rockclean/rock/internal/benchkit"
)

// suiteRun is one pass over every workload: workload → result.
type suiteRun map[string]*result

// ledger is what the suite writes to out/ledger.json: every result, and
// the host it was measured on, so that no run is recorded without its
// cores.
type ledger struct {
	Env    benchkit.EnvInfo `json:"env"`
	Seed   int64            `json:"seed"`
	Traced bool             `json:"traced"`
	Runs   []suiteRun       `json:"runs"`
}

// child re-executes this binary for one workload, so that each workload
// gets a clean heap and its own VmHWM, and parses the result line.
func child(cfg config, name string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds.Seconds()), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	return &res, nil
}

// suite runs every workload repeat times, prints every metric by name
// with its unit, and with repeat > 1 compares the passes against the
// metrics' bounds. It fails when an operation failed or a bound
// is breached.
func suite(cfg config, repeat int) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	led := ledger{Env: benchkit.Environment(), Seed: cfg.seed, Traced: cfg.trace}
	failed := 0
	for len(led.Runs) < repeat {
		led.Runs = append(led.Runs, suiteRun{})
	}
	// The passes of one workload run back to back, so that the host's slow
	// drift separates them by seconds, not by a whole suite.
	for _, w := range workloads {
		for pass := 0; pass < repeat; pass++ {
			res, err := child(cfg, w.name)
			if err != nil {
				return err
			}
			led.Runs[pass][w.name] = res
			failed += res.Failed
			fmt.Printf("%s (pass %d): attempted %d, failed %d (failed_ops_share %.4f)\n", w.name, pass+1, res.Attempted, res.Failed,
				float64(res.Failed)/float64(res.Attempted))
			for _, m := range defs {
				fmt.Printf("  %-34s %14.4f %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
			}
		}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(led, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, "ledger.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	env, _ := json.Marshal(led.Env)
	fmt.Printf("env %s\n", env)
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	if repeat > 1 && !cfg.trace {
		return compare(led.Runs)
	}
	return nil
}

// compare prints, per metric × workload, the first and last pass and
// their relative gap beside the metric's bound, and fails on a breach.
func compare(runs []suiteRun) error {
	first, last := runs[0], runs[len(runs)-1]
	breaches := 0
	fmt.Printf("\n%-14s %-16s %14s %14s %8s %6s\n", "workload", "metric", "first", "last", "gap", "bound")
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := first[w.name].Metrics[m.Name].Value, last[w.name].Metrics[m.Name].Value
			gap := math.Abs(b-a) / a
			mark := ""
			if gap > bounds[m.Name] {
				mark = "  BREACH"
				breaches++
			}
			fmt.Printf("%-14s %-16s %14.4f %14.4f %7.1f%% %5.0f%%%s\n", w.name, m.Name, a, b, 100*gap, 100*bounds[m.Name], mark)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d metric × workload pairs moved by more than their bound between two passes of the same code", breaches)
	}
	return nil
}
