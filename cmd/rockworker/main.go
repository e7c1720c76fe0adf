// Command rockworker is the worker-process side of Rock's distributed
// chase: it rebuilds the coordinator's pipeline from the same dataset
// and rules (the lockstep-replica precondition — see
// internal/chase/distributed.go), connects to the coordinator over
// TCP, and serves chase rounds until the run completes:
//
//	rock clean -in ./bankdata -distributed 3          # prints ADDR, waits
//	rockworker -coord ADDR -in ./bankdata &           # x3, same -workers
//
// The dataset directory, rules file and -workers count MUST be
// identical to the coordinator's; the handshake fingerprint rejects
// mismatches before any round runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/rockclean/rock/internal/cluster/remote"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/rock"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rockworker:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rockworker", flag.ExitOnError)
	coord := fs.String("coord", "", "coordinator address (required; printed by rock clean -distributed)")
	in := fs.String("in", "./rockdata", "dataset directory — must be the coordinator's dataset")
	rulesFile := fs.String("rules", "", "rules file (default: <in>/rules.ree) — must be the coordinator's rules")
	workers := fs.Int("workers", 4, "partition count — must match the coordinator's -workers")
	predication := fs.Bool("predication", true, "serve ML predications from the value-keyed caches (mirror of rock clean -predication)")
	dialTimeout := fs.Duration("dial-timeout", 30*time.Second, "total budget for connecting to the coordinator (dials are retried)")
	verbose := fs.Bool("v", false, "log rounds and unit counts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coord == "" {
		return fmt.Errorf("-coord is required")
	}
	if *rulesFile == "" {
		*rulesFile = filepath.Join(*in, "rules.ree")
	}
	db, err := loadDB(*in)
	if err != nil {
		return err
	}

	// Mirror cmd/rock cmdClean's pipeline construction exactly: same
	// matcher registrations, same training calls, same rule parse — any
	// divergence would break replica lockstep (and is caught by the
	// fingerprint handshake or the per-round unit-count check).
	opts := rock.DefaultOptions()
	opts.Workers = *workers
	opts.Predication = *predication
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
	fmt.Printf("rockworker: loaded %d relations (%d tuples), %d rules; connecting to %s\n",
		len(db.Relations), db.TupleCount(), len(rules), *coord)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "rockworker: "+format+"\n", args...)
		}
	}
	err = remote.RunWorker(ctx, p.FollowerEngine(), remote.WorkerOptions{
		Coord:       *coord,
		Fingerprint: p.Fingerprint(),
		DialTimeout: *dialTimeout,
		Meta:        strconv.Itoa(os.Getpid()),
		Logf:        logf,
	})
	if err != nil {
		return err
	}
	fmt.Println("rockworker: run complete, coordinator closed the session")
	return nil
}

// loadDB mirrors cmd/rock's loader: a directory of <Relation>.csv files.
func loadDB(dir string) (*data.Database, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	db := data.NewDatabase()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".csv") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		rel, err := data.ReadCSV(f, strings.TrimSuffix(e.Name(), ".csv"))
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		db.Add(rel)
	}
	if len(db.Relations) == 0 {
		return nil, fmt.Errorf("no .csv relations in %s", dir)
	}
	return db, nil
}
