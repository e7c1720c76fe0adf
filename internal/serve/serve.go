// Package serve is rockd's core: a long-running, multi-tenant
// cleaning-as-a-service layer over rock.Pipeline. The paper deploys
// Rock as a persistent service on a 21-node Kubernetes cluster fed by
// continuous update streams (§3, §6); here one process holds warm
// per-tenant engine state — loaded rules, trained models, the §5.4
// predication layer, and the accumulated truth — behind an HTTP+JSON
// API:
//
//	POST /v1/{tenant}/ingest     queue tuples; returns a session token
//	GET  /v1/{tenant}/fixes      fix ledger; ?token= blocks until covered
//	GET  /v1/{tenant}/query      read one cleaned tuple (?token= as above)
//	POST /v1/{tenant}/clean      full batch clean
//	GET  /v1/{tenant}/metrics    per-tenant Prometheus exposition
//	GET  /v1/{tenant}/telemetry/ per-tenant obs endpoints (spans, snapshot, trace)
//	GET  /healthz                liveness (503 while draining)
//
// Ingests coalesce per tenant for up to Config.BatchWindow (or
// Config.MaxBatch tuples, whichever comes first) and then run one
// incremental clean. The response token gives the read-your-fixes
// session guarantee: a read presenting it blocks until the covering
// batch has materialized, so a client always sees the certain fixes of
// its own writes. Backpressure is a bounded per-tenant queue (429 when
// full) plus an optional tuple quota (413); SIGTERM drains in-flight
// batches before exit.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"time"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/rock"
)

var (
	errDraining     = errors.New("server draining")
	errBackpressure = errors.New("ingest queue full")
	errQuota        = errors.New("tenant tuple quota exceeded")
)

// Config tunes the service.
type Config struct {
	// BatchWindow is how long ingests coalesce before a flush.
	BatchWindow time.Duration
	// MaxBatch flushes early once this many tuples are queued.
	MaxBatch int
	// QueueLimit bounds queued-but-unmaterialized tuples per tenant;
	// ingests beyond it get 429 (backpressure).
	QueueLimit int
	// MaxTuples caps a tenant's total tuple count (0 = unlimited);
	// ingests beyond it get 413 (quota).
	MaxTuples int
	// CleanTimeout bounds one batch clean; the run degrades gracefully
	// to its certain fixes at the deadline.
	CleanTimeout time.Duration
	// SpanCap is the per-tenant retained-span ring size.
	SpanCap int
	// MaxFixLedger caps the per-tenant retained fix ledger. When a batch
	// pushes the ledger past the cap the oldest entries are truncated;
	// ?since= indices remain stable because they are absolute positions
	// (the tenant tracks how many entries were dropped). 0 = default.
	MaxFixLedger int
}

// DefaultConfig returns serving defaults sized for small tenants.
func DefaultConfig() Config {
	return Config{
		BatchWindow:  20 * time.Millisecond,
		MaxBatch:     64,
		QueueLimit:   1024,
		MaxTuples:    0,
		CleanTimeout: 30 * time.Second,
		SpanCap:      4096,
		MaxFixLedger: 65536,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.BatchWindow <= 0 {
		c.BatchWindow = d.BatchWindow
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = d.MaxBatch
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = d.QueueLimit
	}
	if c.CleanTimeout <= 0 {
		c.CleanTimeout = d.CleanTimeout
	}
	if c.SpanCap <= 0 {
		c.SpanCap = d.SpanCap
	}
	if c.MaxFixLedger <= 0 {
		c.MaxFixLedger = d.MaxFixLedger
	}
	return c
}

// PipelineFactory builds a tenant's pipeline on first use. The registry
// is the tenant's obs registry (spans already enabled); the factory
// must wire it into the pipeline's Options.Obs so engine metrics land
// on the tenant's /metrics.
type PipelineFactory func(tenant string, reg *obs.Registry) (*rock.Pipeline, error)

// Server is the multi-tenant service: a tenant registry plus the HTTP
// API. Create with New, mount Handler, call Shutdown on SIGTERM.
type Server struct {
	cfg     Config
	factory PipelineFactory
	mux     *http.ServeMux

	mu       sync.Mutex
	tenants  map[string]*Tenant
	draining bool
}

var tenantName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_-]{0,63}$`)

// New creates a server whose tenants are built lazily by factory.
func New(cfg Config, factory PipelineFactory) *Server {
	s := &Server{
		cfg:     cfg.withDefaults(),
		factory: factory,
		tenants: make(map[string]*Tenant),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/{tenant}/ingest", s.tenantHandler(s.handleIngest))
	s.mux.HandleFunc("GET /v1/{tenant}/fixes", s.tenantHandler(s.handleFixes))
	s.mux.HandleFunc("GET /v1/{tenant}/query", s.tenantHandler(s.handleQuery))
	s.mux.HandleFunc("POST /v1/{tenant}/clean", s.tenantHandler(s.handleClean))
	s.mux.HandleFunc("GET /v1/{tenant}/metrics", s.tenantHandler(s.handleMetrics))
	s.mux.Handle("GET /v1/{tenant}/telemetry/", s.tenantHandler(s.handleTelemetry))
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Tenant returns (building if needed) the named tenant.
func (s *Server) Tenant(name string) (*Tenant, error) {
	if !tenantName.MatchString(name) {
		return nil, fmt.Errorf("invalid tenant name %q", name)
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errDraining
	}
	if t, ok := s.tenants[name]; ok {
		s.mu.Unlock()
		return t, nil
	}
	s.mu.Unlock()
	// Build outside the lock: model training can take a while and must
	// not block other tenants' requests.
	reg := obs.New()
	reg.EnableSpans(s.cfg.SpanCap)
	p, err := s.factory(name, reg)
	if err != nil {
		return nil, fmt.Errorf("tenant %s: %w", name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, errDraining
	}
	if t, ok := s.tenants[name]; ok {
		// Lost the build race; the winner's pipeline is the tenant.
		return t, nil
	}
	t := newTenant(name, s.cfg, reg, p)
	s.tenants[name] = t
	return t, nil
}

// Shutdown drains every tenant: new ingests are rejected with 503,
// queued batches flush, and the call returns once all workers exited
// (or ctx expires).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ts := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	for _, t := range ts {
		t.beginDrain()
	}
	for _, t := range ts {
		select {
		case <-t.done:
		case <-ctx.Done():
			return fmt.Errorf("drain %s: %w", t.name, ctx.Err())
		}
	}
	return nil
}

// ---- HTTP plumbing ----

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

func statusOf(err error) int {
	switch {
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, errBackpressure):
		return http.StatusTooManyRequests
	case errors.Is(err, errQuota):
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) tenantHandler(h func(http.ResponseWriter, *http.Request, *Tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, err := s.Tenant(r.PathValue("tenant"))
		if err != nil {
			code := statusOf(err)
			if code == http.StatusInternalServerError {
				code = http.StatusBadRequest
			}
			writeError(w, code, err)
			return
		}
		h(w, r, t)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	n := len(s.tenants)
	s.mu.Unlock()
	code := http.StatusOK
	if draining {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"draining": draining, "tenants": n})
}

// ---- ingest ----

// IngestTuple is one inserted row; values are rendered with the same
// textual forms data.Parse accepts ("null" for null cells).
type IngestTuple struct {
	EID    string   `json:"eid"`
	Values []string `json:"values"`
}

// IngestUpdate overwrites one existing cell.
type IngestUpdate struct {
	TID   int    `json:"tid"`
	Attr  string `json:"attr"`
	Value string `json:"value"`
}

// IngestRequest is the POST /ingest body: inserts and updates against
// one relation.
type IngestRequest struct {
	Rel     string         `json:"rel"`
	Tuples  []IngestTuple  `json:"tuples,omitempty"`
	Updates []IngestUpdate `json:"updates,omitempty"`
}

// IngestResponse carries the session token covering this ingest.
type IngestResponse struct {
	Token    uint64 `json:"token"`
	Accepted int    `json:"accepted"`
	Pending  int    `json:"pending"`
}

// parseOps turns an IngestRequest into queueable ops, validating
// against the relation schema (read-only, safe off the run lock).
func parseOps(db *data.Database, req IngestRequest) ([]op, int, error) {
	rel := db.Rel(req.Rel)
	if rel == nil {
		return nil, 0, fmt.Errorf("unknown relation %q", req.Rel)
	}
	attrs := rel.Schema.Attrs
	ops := make([]op, 0, len(req.Tuples)+len(req.Updates))
	for _, tu := range req.Tuples {
		if tu.EID == "" {
			return nil, 0, fmt.Errorf("tuple missing eid")
		}
		if len(tu.Values) != len(attrs) {
			return nil, 0, fmt.Errorf("tuple %s: %d values for %d attributes", tu.EID, len(tu.Values), len(attrs))
		}
		vals := make([]data.Value, len(attrs))
		for i, raw := range tu.Values {
			v, err := data.Parse(attrs[i].Type, raw)
			if err != nil {
				return nil, 0, fmt.Errorf("tuple %s.%s: %w", tu.EID, attrs[i].Name, err)
			}
			vals[i] = v
		}
		ops = append(ops, op{rel: req.Rel, eid: tu.EID, values: vals})
	}
	for _, up := range req.Updates {
		i := rel.Schema.Index(up.Attr)
		if i < 0 {
			return nil, 0, fmt.Errorf("update: unknown attribute %s.%s", req.Rel, up.Attr)
		}
		v, err := data.Parse(attrs[i].Type, up.Value)
		if err != nil {
			return nil, 0, fmt.Errorf("update %s[%d].%s: %w", req.Rel, up.TID, up.Attr, err)
		}
		ops = append(ops, op{rel: req.Rel, update: true, tid: up.TID, attr: up.Attr, val: v})
	}
	return ops, len(req.Tuples), nil
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, t *Tenant) {
	var req IngestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		t.reg.Inc("serve.ingest.bad_request")
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
		return
	}
	ops, inserts, err := parseOps(t.p.DB(), req)
	if err != nil {
		t.reg.Inc("serve.ingest.bad_request")
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(ops) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty ingest"))
		return
	}
	token, pending, err := t.enqueue(ops, inserts)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, IngestResponse{Token: token, Accepted: len(ops), Pending: pending})
}

// ---- reads ----

// FixesResponse is the fix ledger past ?since=, plus the watermark.
// Total counts every fix ever applied; Offset is the index of the
// oldest entry still retained (entries before it were truncated by
// Config.MaxFixLedger). ?since= indices are absolute, so a cursor of
// Total stays valid across truncations.
type FixesResponse struct {
	Applied uint64      `json:"applied"`
	Total   int         `json:"total"`
	Offset  int         `json:"offset,omitempty"`
	Fixes   []FixRecord `json:"fixes"`
}

// sessionWait honours ?token= (block until applied) with ?timeout_ms=
// bounding the wait (default 10s). Returns false after writing an
// error response.
func sessionWait(w http.ResponseWriter, r *http.Request, t *Tenant) bool {
	q := r.URL.Query()
	tok := q.Get("token")
	if tok == "" {
		return true
	}
	token, err := strconv.ParseUint(tok, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad token %q", tok))
		return false
	}
	timeout := 10 * time.Second
	if ms := q.Get("timeout_ms"); ms != "" {
		n, err := strconv.Atoi(ms)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad timeout_ms %q", ms))
			return false
		}
		timeout = time.Duration(n) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	if err := t.waitApplied(ctx, token); err != nil {
		writeError(w, http.StatusGatewayTimeout, err)
		return false
	}
	return true
}

func (s *Server) handleFixes(w http.ResponseWriter, r *http.Request, t *Tenant) {
	if !sessionWait(w, r, t) {
		return
	}
	since := 0
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad since %q", v))
			return
		}
		since = n
	}
	fixes, applied, total, offset := t.fixesSince(since)
	writeJSON(w, http.StatusOK, FixesResponse{Applied: applied, Total: total, Offset: offset, Fixes: fixes})
}

// QueryResponse is one cleaned tuple.
type QueryResponse struct {
	Rel     string            `json:"rel"`
	TID     int               `json:"tid"`
	EID     string            `json:"eid"`
	Values  map[string]string `json:"values"`
	Applied uint64            `json:"applied"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, t *Tenant) {
	if !sessionWait(w, r, t) {
		return
	}
	q := r.URL.Query()
	rel := q.Get("rel")
	tid, err := strconv.Atoi(q.Get("tid"))
	if rel == "" || err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("query needs rel= and numeric tid="))
		return
	}
	vals, eid, err := t.readTuple(rel, tid)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	t.mu.Lock()
	applied := t.applied
	t.mu.Unlock()
	writeJSON(w, http.StatusOK, QueryResponse{Rel: rel, TID: tid, EID: eid, Values: vals, Applied: applied})
}

// ---- full clean ----

// CleanResponse summarises a full batch clean.
type CleanResponse struct {
	Corrections int         `json:"corrections"`
	Rounds      int         `json:"rounds"`
	Partial     bool        `json:"partial"`
	Fixes       []FixRecord `json:"fixes"`
}

func (s *Server) handleClean(w http.ResponseWriter, r *http.Request, t *Tenant) {
	ctx, cancel := context.WithTimeout(r.Context(), t.cfg.CleanTimeout)
	defer cancel()
	rep, fixes, err := t.cleanFull(ctx)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, CleanResponse{
		Corrections: len(rep.Corrections),
		Rounds:      rep.ChaseRounds,
		Partial:     rep.Partial,
		Fixes:       fixes,
	})
}

// ---- telemetry ----

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request, t *Tenant) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = t.reg.Snapshot().WritePrometheus(w)
}

func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request, t *Tenant) {
	prefix := "/v1/" + r.PathValue("tenant") + "/telemetry"
	http.StripPrefix(prefix, t.reg.Handler()).ServeHTTP(w, r)
}
