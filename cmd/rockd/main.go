// Command rockd serves Rock as a long-running, multi-tenant
// cleaning-as-a-service daemon — the repo's substitute for the paper's
// Kubernetes deployment consuming continuous update streams (§3, §6).
// Each tenant holds a warm pipeline (rules, trained models, the §5.4
// predication layer, accumulated truth); ingests coalesce into
// incremental cleans; reads carry the read-your-fixes session token.
//
//	rockd                                    # ecommerce tenants on :8080
//	rockd -addr :0 -tenants acme,globex      # ephemeral port, two warm tenants
//	rockd -workload bank -n 2000 -workers 8  # generated Bank tenants
//
// Endpoints (per tenant):
//
//	POST /v1/{tenant}/ingest     {"rel":..,"tuples":[{"eid":..,"values":[..]}]}
//	GET  /v1/{tenant}/fixes      ?token=&since=&timeout_ms=
//	GET  /v1/{tenant}/query      ?rel=&tid=&token=
//	POST /v1/{tenant}/clean      full batch clean
//	GET  /v1/{tenant}/metrics    Prometheus exposition
//	GET  /v1/{tenant}/telemetry/ spans, snapshot, trace
//	GET  /healthz
//
// SIGTERM/SIGINT drains: new ingests get 503, queued batches flush,
// then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/rockclean/rock/internal/serve"
	"github.com/rockclean/rock/internal/workload"
	"github.com/rockclean/rock/rock"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
		app       = flag.String("workload", "ecommerce", "tenant workload: ecommerce, bank, logistics, sales")
		n         = flag.Int("n", 400, "base tuples per generated tenant dataset")
		seed      = flag.Int64("seed", 2024, "generator seed")
		workers   = flag.Int("workers", 4, "chase/detect worker pool size per tenant")
		window    = flag.Duration("window", 20*time.Millisecond, "ingest coalescing window")
		maxBatch  = flag.Int("max-batch", 64, "flush a batch early at this many queued tuples")
		queue     = flag.Int("queue", 1024, "per-tenant queued-tuple bound (429 beyond)")
		maxTuples = flag.Int("max-tuples", 0, "per-tenant tuple quota (413 beyond; 0 = unlimited)")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-batch clean timeout")
		spanCap   = flag.Int("span-cap", 4096, "retained trace spans per tenant")
		tenants   = flag.String("tenants", "", "comma-separated tenants to warm at startup")
		drainFor  = flag.Duration("drain", 60*time.Second, "max time to drain on shutdown")
	)
	flag.Parse()

	opts := rock.DefaultOptions()
	opts.Workers = *workers
	cfg := serve.Config{
		BatchWindow:  *window,
		MaxBatch:     *maxBatch,
		QueueLimit:   *queue,
		MaxTuples:    *maxTuples,
		CleanTimeout: *timeout,
		SpanCap:      *spanCap,
	}
	s := serve.New(cfg, serve.WorkloadFactory(*app, workload.Config{N: *n, Seed: *seed}, opts))

	// Warm the preload tenants before accepting traffic: rule parsing
	// and model training happen now, not on the first request.
	for _, name := range strings.Split(*tenants, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		start := time.Now()
		if _, err := s.Tenant(name); err != nil {
			log.Fatalf("rockd: warm tenant %s: %v", name, err)
		}
		log.Printf("rockd: tenant %s warm (%s workload) in %v", name, *app, time.Since(start).Round(time.Millisecond))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("rockd: listen %s: %v", *addr, err)
	}
	// The CI smoke test scrapes this line for the ephemeral port.
	fmt.Printf("rockd: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT, os.Interrupt)
	defer stop()
	select {
	case err := <-errCh:
		log.Fatalf("rockd: serve: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("rockd: draining (up to %v)", *drainFor)
	dctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := s.Shutdown(dctx); err != nil {
		log.Fatalf("rockd: drain: %v", err)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("rockd: http shutdown: %v", err)
	}
	log.Printf("rockd: drained, bye")
}
