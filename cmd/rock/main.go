// Command rock is the CLI front end of the Rock data-cleaning system:
//
//	rock gen -app bank -n 1000 -out ./bankdata      # generate a demo dataset
//	rock clean -in ./bankdata -rules rules.ree      # detect + correct
//	rock detect -in ./bankdata -rules rules.ree     # detect only
//	rock demo                                        # run the paper's e-commerce example
//
// Datasets on disk are directories of <Relation>.csv files in the format
// of data.WriteCSV; rules files hold one REE++ per line in the DSL of
// package ree.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/rockclean/rock/internal/cluster/remote"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/ree"
	"github.com/rockclean/rock/internal/workload"
	"github.com/rockclean/rock/rock"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "clean":
		err = cmdClean(os.Args[2:], true)
	case "detect":
		err = cmdClean(os.Args[2:], false)
	case "demo":
		err = cmdDemo()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rock:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  rock gen    -app bank|logistics|sales -n N -out DIR   generate a demo dataset (+ curated rules)
  rock clean  -in DIR -rules FILE [-workers N] [-parallel=bool]
              [-timeout D] [-retries N]
              [-distributed N] [-workers-addr ADDR]
              [-v] [-metrics-out FILE]
              [-trace-out FILE] [-telemetry ADDR] [-pprof ADDR]
                                                        detect and correct errors in place
  rock detect -in DIR -rules FILE [-workers N] [-metrics-out FILE]   detect errors only
  rock demo                                             run the paper's e-commerce walk-through`)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	app := fs.String("app", "bank", "application: bank, logistics, sales")
	n := fs.Int("n", 1000, "base tuple count")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "./rockdata", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var ds *workload.Dataset
	switch strings.ToLower(*app) {
	case "bank":
		ds = workload.Bank(workload.Config{N: *n, Seed: *seed})
	case "logistics":
		ds = workload.Logistics(workload.Config{N: *n, Seed: *seed})
	case "sales":
		ds = workload.Sales(workload.Config{N: *n, Seed: *seed})
	default:
		return fmt.Errorf("unknown application %q", *app)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for _, name := range ds.DB.Names() {
		f, err := os.Create(filepath.Join(*out, name+".csv"))
		if err != nil {
			return err
		}
		if err := data.WriteCSV(f, ds.DB.Rel(name)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	// The directory holds CSVs and rules only: no knowledge graph, and no
	// cell timestamps to train a ranker from. `rock clean` could evaluate
	// neither kind of rule, so those stay out of rules.ree.
	var rulesText strings.Builder
	rulesText.WriteString("# curated REE++ rules for the " + ds.Name + " application\n")
	kept, needGraph, needRanker := 0, 0, 0
	for _, r := range ds.Rules {
		switch {
		case len(r.VertexAtoms) > 0:
			needGraph++
		case usesRanker(r):
			needRanker++
		default:
			rulesText.WriteString(r.String() + "\n")
			kept++
		}
	}
	if err := os.WriteFile(filepath.Join(*out, "rules.ree"), []byte(rulesText.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d relations (%d tuples, %d injected errors) and %d rules to %s\n",
		len(ds.DB.Relations), ds.DB.TupleCount(), ds.Gold.Total(), kept, *out)
	if left := needGraph + needRanker; left > 0 {
		fmt.Printf("left out %d rules the files cannot carry: %d over a knowledge graph, %d over a ranker trained from timestamps\n",
			left, needGraph, needRanker)
	}
	return nil
}

// usesRanker reports whether r reads the temporal ranker M_rank.
func usesRanker(r *ree.Rule) bool {
	for _, p := range r.X {
		if p.Kind == predicate.KRank {
			return true
		}
	}
	return r.P0.Kind == predicate.KRank
}

func cmdClean(args []string, correct bool) error {
	fs := flag.NewFlagSet("clean", flag.ExitOnError)
	in := fs.String("in", "./rockdata", "dataset directory")
	rulesFile := fs.String("rules", "", "rules file (default: <in>/rules.ree)")
	workers := fs.Int("workers", 4, "cluster size (HyperCube blocks and worker goroutines)")
	parallel := fs.Bool("parallel", true, "run chase work units on a pool of -workers goroutines (false: a pool of one worker, the serial reference)")
	predication := fs.Bool("predication", true, "serve ML predications from caches detection fills and the chase reuses (value-keyed embedding store + sharded prediction cache, paper §5.4)")
	timeout := fs.Duration("timeout", 0, "deadline for the whole run (e.g. 30s); on expiry the fixes established so far are kept and the report is marked partial")
	retries := fs.Int("retries", 2, "max retries for a panicking work unit before it is reported as failed")
	verbose := fs.Bool("v", false, "print the per-round chase trace table")
	metricsOut := fs.String("metrics-out", "", "write the run's observability snapshot (counters, histograms, event log) as JSON to FILE")
	traceOut := fs.String("trace-out", "", "write the run's span tree as Chrome trace-event JSON to FILE (load in Perfetto or chrome://tracing)")
	telemetry := fs.String("telemetry", "", "serve live telemetry on ADDR (/metrics Prometheus text, /spans, /snapshot, /trace JSON) for the duration of the run; use :0 for an ephemeral port")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on ADDR (e.g. localhost:6060) for the duration of the run; shares the -telemetry server when both are set")
	distributed := fs.Int("distributed", 0, "distribute the chase across N external rockworker processes; the coordinator prints its address, then waits for N workers to connect (launch them with: rockworker -coord ADDR -in DIR -workers W)")
	workersAddr := fs.String("workers-addr", "127.0.0.1:0", "TCP listen address for worker connections (with -distributed); :0 picks a free port")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rulesFile == "" {
		*rulesFile = filepath.Join(*in, "rules.ree")
	}
	db, err := data.ReadCSVDir(*in)
	if err != nil {
		return err
	}
	reg := obs.New()
	if *traceOut != "" || *telemetry != "" {
		reg.EnableSpans(0)
	}
	if *telemetry != "" || *pprofAddr != "" {
		addr := *telemetry
		if addr == "" {
			addr = *pprofAddr
		}
		resolved, shutdown, err := serveDebug(addr, reg, *pprofAddr != "")
		if err != nil {
			return err
		}
		defer shutdown()
		if *telemetry != "" {
			fmt.Printf("telemetry listening on http://%s/metrics\n", resolved)
		}
		if *pprofAddr != "" {
			fmt.Printf("pprof listening on http://%s/debug/pprof/\n", resolved)
		}
	}
	opts := rock.DefaultOptions()
	opts.Workers = *workers
	opts.Parallel = *parallel
	opts.Predication = *predication
	opts.Obs = reg
	opts.MaxRetries = *retries
	p := rock.NewPipelineWith(db, opts)
	p.RegisterMatcher("M_ER", 0.82)
	p.RegisterMatcher("M_addr", 0.82)
	p.RegisterMatcher("M_SKU", 0.82)
	p.TrainCorrelationModels()
	text, err := os.ReadFile(*rulesFile)
	if err != nil {
		return err
	}
	rules, err := p.ParseRules(string(text))
	if err != nil {
		return err
	}
	fmt.Printf("loaded %d relations (%d tuples), %d rules\n", len(db.Relations), db.TupleCount(), len(rules))

	if *distributed > 0 && correct {
		coord := remote.NewCoordinator(remote.CoordOptions{
			Addr:        *workersAddr,
			Workers:     *distributed,
			Fingerprint: p.Fingerprint(),
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "rock: "+format+"\n", args...)
			},
		})
		addr, err := coord.Start()
		if err != nil {
			return err
		}
		defer coord.Close()
		// Print the bound address before blocking on worker connections so
		// launcher scripts can scrape it and start the workers.
		fmt.Printf("coordinator listening on %s; waiting for %d worker(s)\n", addr, *distributed)
		if err := coord.WaitWorkers(context.Background()); err != nil {
			return err
		}
		p.SetCluster(coord)
	}

	if !correct {
		errs, err := p.Detect()
		if err != nil {
			return err
		}
		fmt.Printf("detected %d errors\n", len(errs))
		for i, e := range errs {
			if i >= 20 {
				fmt.Printf("  ... and %d more\n", len(errs)-20)
				break
			}
			if e.DupEIDs[0] != "" {
				fmt.Printf("  [%s/%s] duplicate entities %s and %s\n", e.RuleID, e.Task, e.DupEIDs[0], e.DupEIDs[1])
			} else {
				fmt.Printf("  [%s/%s] %v\n", e.RuleID, e.Task, e.Cells)
			}
		}
		if err := writeMetrics(reg.Snapshot(), *metricsOut); err != nil {
			return err
		}
		return writeTraceFile(reg, *traceOut)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	rep, err := p.CleanCtx(ctx)
	if err != nil {
		return err
	}
	if *verbose {
		printTrace(rep.RoundTrace)
		printProfile(rep.RuleProfile, rep.MLProfile)
	}
	if rep.Partial {
		fmt.Printf("PARTIAL RUN: deadline/cancellation or unit failures cut the run short; results below are sound but incomplete\n")
		for _, ue := range rep.UnitErrors {
			fmt.Fprintf(os.Stderr, "  failed unit: %s\n", ue.Error())
		}
	}
	fmt.Printf("detected %d errors; applied %d corrections in %d chase rounds\n",
		len(rep.Errors), len(rep.Corrections), rep.ChaseRounds)
	fmt.Printf("merged %d entity groups; %d temporal pairs deduced; %d conflicts unresolved (user)\n",
		len(rep.MergedEntities), rep.OrderedPairs, rep.UnresolvedConflicts)
	fmt.Printf("quality: completeness=%.3f consistency=%.3f\n",
		rep.Assessment.Completeness, rep.Assessment.Consistency)
	if ps := rep.Predication; ps.Lookups() > 0 {
		fmt.Printf("ml predication: %.1f%% hit rate (%d hits / %d lookups), %d evictions; embeddings: %d reused / %d computed\n",
			100*ps.HitRate(), ps.Hits, ps.Lookups(), ps.Evictions,
			ps.EmbedHits, ps.EmbedMisses)
		if br := rep.PredicationByRound; len(br) > 1 {
			first, last := br[0], br[len(br)-1]
			if n := last.Lookups() - first.Lookups(); n > 0 {
				fmt.Printf("ml predication (chase rounds only): %.1f%% hit rate (%d hits / %d lookups)\n",
					100*float64(last.Hits-first.Hits)/float64(n), last.Hits-first.Hits, n)
			}
		}
	}
	// Write corrected relations back.
	for _, name := range db.Names() {
		f, err := os.Create(filepath.Join(*in, name+".csv"))
		if err != nil {
			return err
		}
		if err := data.WriteCSV(f, db.Rel(name)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("corrected relations written back to %s\n", *in)
	if err := writeMetrics(rep.Metrics, *metricsOut); err != nil {
		return err
	}
	return writeTraceFile(reg, *traceOut)
}

// serveDebug binds addr and starts a dedicated HTTP server carrying the
// telemetry endpoints of reg and, when withPprof is set, the net/http/pprof
// handlers. Binding eagerly (rather than inside the serve goroutine) makes
// bind failures fail the command and resolves ":0" to a printable ephemeral
// address. The returned shutdown func drains the server gracefully.
func serveDebug(addr string, reg *obs.Registry, withPprof bool) (resolved string, shutdown func(), err error) {
	mux := http.NewServeMux()
	reg.AttachHandlers(mux)
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "rock: telemetry:", err)
		}
	}()
	shutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
	return ln.Addr().String(), shutdown, nil
}

// writeTraceFile dumps the registry's span ring as Chrome trace-event JSON;
// a no-op when path is empty.
func writeTraceFile(reg *obs.Registry, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, reg.Spans()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace written to %s (load in Perfetto or chrome://tracing)\n", path)
	return nil
}

// printProfile renders the per-rule and per-ML-model cost attribution
// tables (rock clean -v).
func printProfile(rules []rock.RuleCost, models []rock.MLCost) {
	if len(rules) > 0 {
		fmt.Println("per-rule cost attribution:")
		fmt.Printf("  %-12s %6s %12s %10s %8s %8s %8s\n",
			"rule", "units", "wall", "valuations", "ml_calls", "applied", "rejected")
		for _, rc := range rules {
			fmt.Printf("  %-12s %6d %12s %10d %8d %8d %8d\n",
				rc.Rule, rc.Units, rc.Wall.Round(time.Microsecond), rc.Valuations, rc.MLCalls, rc.Applied, rc.Rejected)
		}
	}
	if len(models) > 0 {
		fmt.Println("per-ML-model cost attribution:")
		fmt.Printf("  %-12s %8s %12s %10s %10s\n", "model", "calls", "wall", "cache_hit", "cache_miss")
		for _, mc := range models {
			fmt.Printf("  %-12s %8d %12s %10d %10d\n",
				mc.Model, mc.Calls, mc.Wall.Round(time.Microsecond), mc.CacheHits, mc.CacheMisses)
		}
	}
}

// writeMetrics dumps an observability snapshot as indented JSON; a no-op
// when path is empty.
func writeMetrics(snap obs.Snapshot, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("metrics written to %s\n", path)
	return nil
}

// printTrace renders the chase's per-round trace table (rock clean -v).
func printTrace(trace []rock.ChaseRoundTrace) {
	if len(trace) == 0 {
		return
	}
	fmt.Println("chase rounds:")
	fmt.Printf("  %5s %6s %6s %10s %8s %8s %8s %12s  %s\n",
		"round", "rules", "units", "valuations", "ml_calls", "applied", "rejected", "duration", "node units")
	for _, r := range trace {
		nodes := make([]string, 0, len(r.NodeUnits))
		for n := range r.NodeUnits {
			nodes = append(nodes, n)
		}
		sort.Strings(nodes)
		var nu strings.Builder
		for i, n := range nodes {
			if i > 0 {
				nu.WriteString(" ")
			}
			fmt.Fprintf(&nu, "%s:%d", n, r.NodeUnits[n])
		}
		fmt.Printf("  %5d %6d %6d %10d %8d %8d %8d %12s  %s\n",
			r.Round, r.Rules, r.Units, r.Valuations, r.MLCalls, r.Applied, r.Rejected,
			r.Duration.Round(time.Microsecond), nu.String())
	}
}

func cmdDemo() error {
	ds := workload.Ecommerce()
	fmt.Println("Rock demo: the paper's e-commerce example (Tables 1-3)")
	fmt.Printf("  %d relations, %d tuples, %d labelled errors, %d rules\n",
		len(ds.DB.Relations), ds.DB.TupleCount(), ds.Gold.Total(), len(ds.Rules))
	env := ds.BuildEnv()
	_ = env
	p := rock.NewPipeline(ds.DB)
	p.RegisterMatcher("M_ER", 0.82)
	p.TrainCorrelationModels()
	p.RegisterGraph(ds.Graph, 0.6)
	p.DeclareEntityRef("Trans", "pid") // pid references Person entities (ϕ1)
	// Master data: Huawei manufactures the Mate X2 (Γ of §4.1).
	if err := p.Validate("Trans", "t14", "mfg", rock.S("Huawei")); err != nil {
		return err
	}
	for _, r := range ds.Rules {
		if _, err := p.AddRule(r.String()); err != nil {
			return fmt.Errorf("rule %s: %w", r.ID, err)
		}
	}
	rep, err := p.Clean()
	if err != nil {
		return err
	}
	fmt.Printf("  detected %d errors, applied %d corrections:\n", len(rep.Errors), len(rep.Corrections))
	for _, c := range rep.Corrections {
		fmt.Printf("    %s: %v -> %v\n", c.Cell, c.Old, c.New)
	}
	for _, g := range rep.MergedEntities {
		fmt.Printf("    identified entities: %v\n", g)
	}
	return nil
}
