package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rockclean/rock/internal/workload"
	"github.com/rockclean/rock/rock"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg, WorkloadFactory("ecommerce", workload.Config{}, rock.DefaultOptions()))
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

// mateX2Ingest is one new transaction whose manufactory disagrees with
// the rest of its commodity class; phi2 (same commodity → same
// manufactory) must correct it to the class's resolved value, "Apple".
func mateX2Ingest(eid string) IngestRequest {
	return IngestRequest{
		Rel: "Trans",
		Tuples: []IngestTuple{{
			EID:    eid,
			Values: []string{"p3", "s3", "Mate X2 (Limited Sold)", "Huawei", "5200", "2023-08-12"},
		}},
	}
}

// TestReadYourFixes is the session-guarantee test: concurrent clients
// each ingest a tuple with a known error, then read back with their
// token — every client must see its own tuple's certain fix.
func TestReadYourFixes(t *testing.T) {
	_, hs := testServer(t, DefaultConfig())
	base := hs.URL + "/v1/acme"

	// Warm the tenant: full clean settles the initial errors so batch
	// fixes afterwards belong to the ingested tuples.
	if code := doJSON(t, http.MethodPost, base+"/clean", nil, nil); code != http.StatusOK {
		t.Fatalf("clean: status %d", code)
	}

	const clients = 8
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eid := fmt.Sprintf("sess-%d", i)
			var ing IngestResponse
			if code := doJSON(t, http.MethodPost, base+"/ingest", mateX2Ingest(eid), &ing); code != http.StatusAccepted {
				errCh <- fmt.Errorf("client %d: ingest status %d", i, code)
				return
			}
			var fixes FixesResponse
			url := fmt.Sprintf("%s/fixes?token=%d&timeout_ms=30000", base, ing.Token)
			if code := doJSON(t, http.MethodGet, url, nil, &fixes); code != http.StatusOK {
				errCh <- fmt.Errorf("client %d: fixes status %d", i, code)
				return
			}
			if fixes.Applied < ing.Token {
				errCh <- fmt.Errorf("client %d: applied %d < token %d", i, fixes.Applied, ing.Token)
				return
			}
			var mine *FixRecord
			for j := range fixes.Fixes {
				f := fixes.Fixes[j]
				if f.EID == eid && f.Attr == "mfg" {
					mine = &fixes.Fixes[j]
				}
			}
			if mine == nil {
				errCh <- fmt.Errorf("client %d: no mfg fix for %s in %d fixes", i, eid, len(fixes.Fixes))
				return
			}
			if mine.New != "Apple" {
				errCh <- fmt.Errorf("client %d: fix %s -> %q, want Apple", i, mine.Old, mine.New)
				return
			}
			// And the cleaned value must be visible through /query.
			var q QueryResponse
			url = fmt.Sprintf("%s/query?rel=Trans&tid=%d&token=%d&timeout_ms=30000", base, mine.TID, ing.Token)
			if code := doJSON(t, http.MethodGet, url, nil, &q); code != http.StatusOK {
				errCh <- fmt.Errorf("client %d: query status %d", i, code)
				return
			}
			if q.Values["mfg"] != "Apple" {
				errCh <- fmt.Errorf("client %d: query mfg = %q, want Apple", i, q.Values["mfg"])
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestBackpressure: once queued tuples exceed QueueLimit the server
// answers 429 instead of buffering without bound.
func TestBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueLimit = 3
	cfg.MaxBatch = 1000
	cfg.BatchWindow = time.Hour // batches effectively never flush on their own
	s, hs := testServer(t, cfg)
	base := hs.URL + "/v1/acme"

	got429 := false
	for i := 0; i < cfg.QueueLimit+1; i++ {
		code := doJSON(t, http.MethodPost, base+"/ingest", mateX2Ingest(fmt.Sprintf("bp-%d", i)), nil)
		switch code {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			got429 = true
		default:
			t.Fatalf("ingest %d: status %d", i, code)
		}
	}
	if !got429 {
		t.Fatal("queue over limit never produced 429")
	}
	ctx, cancel := timeoutCtx(t, 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestQuota: MaxTuples bounds the tenant's database size with 413.
func TestQuota(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxTuples = 16 // the ecommerce dataset already has 15 tuples
	s, hs := testServer(t, cfg)
	base := hs.URL + "/v1/acme"

	if code := doJSON(t, http.MethodPost, base+"/ingest", mateX2Ingest("q-1"), nil); code != http.StatusAccepted {
		t.Fatalf("first ingest: status %d", code)
	}
	if code := doJSON(t, http.MethodPost, base+"/ingest", mateX2Ingest("q-2"), nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-quota ingest: status %d, want 413", code)
	}
	ctx, cancel := timeoutCtx(t, 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestGracefulDrain: Shutdown flushes queued batches (their fixes
// appear in the ledger) and subsequent ingests get 503.
func TestGracefulDrain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchWindow = time.Hour // the drain, not the window, must flush
	s, hs := testServer(t, cfg)
	base := hs.URL + "/v1/acme"

	var ing IngestResponse
	if code := doJSON(t, http.MethodPost, base+"/ingest", mateX2Ingest("d-1"), &ing); code != http.StatusAccepted {
		t.Fatalf("ingest: status %d", code)
	}
	ctx, cancel := timeoutCtx(t, 120*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	tn, err := s.Tenant("acme")
	if err == nil || tn != nil {
		t.Fatal("tenant lookup after drain should fail")
	}
	if code := doJSON(t, http.MethodPost, base+"/ingest", mateX2Ingest("d-2"), nil); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain ingest: status %d, want 503", code)
	}

	// The queued batch must have been flushed on the way down.
	s.mu.Lock()
	acme := s.tenants["acme"]
	s.mu.Unlock()
	fixes, applied, _, _ := acme.fixesSince(0)
	if applied < ing.Token {
		t.Fatalf("drain left applied=%d behind token=%d", applied, ing.Token)
	}
	found := false
	for _, f := range fixes {
		if f.EID == "d-1" && f.Attr == "mfg" && f.New == "Apple" {
			found = true
		}
	}
	if !found {
		t.Fatalf("drained batch's fix missing from ledger (%d fixes)", len(fixes))
	}
}

// TestMetricsEndpoint: per-tenant Prometheus exposition carries the
// serve.* series.
func TestMetricsEndpoint(t *testing.T) {
	_, hs := testServer(t, DefaultConfig())
	base := hs.URL + "/v1/acme"
	var ing IngestResponse
	if code := doJSON(t, http.MethodPost, base+"/ingest", mateX2Ingest("m-1"), &ing); code != http.StatusAccepted {
		t.Fatalf("ingest: status %d", code)
	}
	var fixes FixesResponse
	url := fmt.Sprintf("%s/fixes?token=%d&timeout_ms=30000", base, ing.Token)
	if code := doJSON(t, http.MethodGet, url, nil, &fixes); code != http.StatusOK {
		t.Fatalf("fixes: status %d", code)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{"serve_ingest_requests", "serve_batches", "serve_batch_clean", "serve_ingest_visible"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
}

func timeoutCtx(_ *testing.T, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// TestWorkloadTenantsFirstClean builds a tenant from every named
// workload and completes its first full clean: each application's rules
// name models (M_addr, M_SKU, M_rank) the factory must have wired.
func TestWorkloadTenantsFirstClean(t *testing.T) {
	for _, app := range []string{"bank", "logistics", "sales", "ecommerce"} {
		t.Run(app, func(t *testing.T) {
			s := New(DefaultConfig(), WorkloadFactory(app, workload.Config{N: 300, Seed: 1}, rock.DefaultOptions()))
			hs := httptest.NewServer(s.Handler())
			defer hs.Close()
			var out CleanResponse
			if code := doJSON(t, "POST", hs.URL+"/v1/acme/clean", nil, &out); code != http.StatusOK {
				t.Fatalf("first clean of a %s tenant: status %d (%+v)", app, code, out)
			}
			ctx, cancel := timeoutCtx(t, 60*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCleanResponseCarriesEID: POST /clean answers with the records it
// appended to the fix ledger, so each fix names the entity of the tuple
// it corrected, exactly as GET /fixes reports it.
func TestCleanResponseCarriesEID(t *testing.T) {
	s, hs := testServer(t, DefaultConfig())
	base := hs.URL + "/v1/acme"
	var out CleanResponse
	if code := doJSON(t, http.MethodPost, base+"/clean", nil, &out); code != http.StatusOK {
		t.Fatalf("clean: status %d", code)
	}
	if len(out.Fixes) == 0 || len(out.Fixes) != out.Corrections {
		t.Fatalf("clean returned %d fixes for %d corrections", len(out.Fixes), out.Corrections)
	}
	var ledger FixesResponse
	if code := doJSON(t, http.MethodGet, base+"/fixes", nil, &ledger); code != http.StatusOK {
		t.Fatalf("fixes: status %d", code)
	}
	if len(ledger.Fixes) != len(out.Fixes) {
		t.Fatalf("ledger holds %d fixes, clean returned %d", len(ledger.Fixes), len(out.Fixes))
	}
	for i, f := range out.Fixes {
		if f.EID == "" {
			t.Fatalf("fix %s carries no eid", f.Cell)
		}
		if f != ledger.Fixes[i] {
			t.Fatalf("fix %d: clean returned %+v, ledger holds %+v", i, f, ledger.Fixes[i])
		}
	}
	ctx, cancel := timeoutCtx(t, 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
