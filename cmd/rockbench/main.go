// Command rockbench regenerates the paper's evaluation figures (see
// DESIGN.md for the experiment index and EXPERIMENTS.md for paper-vs-
// measured numbers):
//
//	rockbench -exp all                    # every panel
//	rockbench -exp fig4h -n 2000          # one panel at a larger scale
//	rockbench -exp fig4k -json fig4k.json # machine-readable output
//
// `rockbench -h` lists the experiment ids (benchkit.IDs). Performance is
// measured by the benchmark ledger, not here: go run -C bench .
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/rockclean/rock/internal/benchkit"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id: "+strings.Join(benchkit.IDs(), ", ")+", all")
		n        = flag.Int("n", 400, "base tuples per application dataset")
		seed     = flag.Int64("seed", 2024, "generator seed")
		workers  = flag.Int("workers", 4, "worker-pool size (fig4h and fig4l sweep it up to GOMAXPROCS instead)")
		jsonPath = flag.String("json", "", "also write the result tables as JSON to this file")
	)
	flag.Parse()

	cfg := benchkit.Config{N: *n, Seed: *seed, Workers: *workers}
	var tables []*benchkit.Table
	var err error
	if *exp == "all" {
		tables, err = benchkit.All(cfg)
	} else {
		var t *benchkit.Table
		t, err = benchkit.ByID(*exp, cfg)
		if t != nil {
			tables = []*benchkit.Table{t}
		}
	}
	for _, t := range tables {
		t.Print(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rockbench:", err)
		os.Exit(1)
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, tables); err != nil {
			fmt.Fprintln(os.Stderr, "rockbench:", err)
			os.Exit(1)
		}
	}
}

// benchFile is the -json document: the result tables plus the
// environment they were measured in, so numbers stay comparable across
// machines and CI runners.
type benchFile struct {
	Env    benchkit.EnvInfo  `json:"env"`
	Tables []*benchkit.Table `json:"tables"`
}

func writeJSON(path string, tables []*benchkit.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(benchFile{Env: benchkit.Environment(), Tables: tables}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
