package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/ml"
	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/internal/quality"
	"github.com/rockclean/rock/internal/serve"
	"github.com/rockclean/rock/internal/workload"
	"github.com/rockclean/rock/rock"
)

const tenantName = "bench"

// stream is serve-stream: an in-process serve.Server behind httptest
// (real HTTP on loopback) with the default serve.Config, one Logistics
// tenant warmed by a full POST /clean in set-up, then cfg.workers
// closed-loop sessions. A session posts one tuple per ingest (16 on every
// 8th), taken from a second Logistics dataset at seed+1 under prefixed
// EIDs, and blocks on GET /fixes?token= before its next ingest.
type stream struct {
	cfg    config
	in     *input
	srv    *serve.Server
	hs     *httptest.Server
	base   string
	bodies [][][]byte // session → ingest → JSON body
	sizes  [][]int    // tuples in each body
	// warm is the wall of the set-up POST /clean and warmF1 the quality of
	// its cell corrections against the tenant's gold.
	warm   time.Duration
	warmF1 float64
}

// tenantFactory assembles the Logistics tenant. serve.PipelineFromDataset
// cannot: it registers only M_ER, so the tenant's first clean fails with
// `ml: unknown model "M_addr"` (README, findings).
func tenantFactory(ds *workload.Dataset, workers int) serve.PipelineFactory {
	return func(_ string, reg *obs.Registry) (*rock.Pipeline, error) {
		opts := rock.DefaultOptions()
		opts.Workers = workers
		opts.Obs = reg
		p := rock.NewPipelineWith(ds.DB, opts)
		p.RegisterMatcher("M_ER", 0.82)
		p.RegisterMatcher("M_addr", 0.82)
		p.TrainCorrelationModels()
		p.RegisterGraph(ds.Graph, 0.6)
		for _, r := range ds.Rules {
			if _, err := p.AddRule(r.String()); err != nil {
				return nil, fmt.Errorf("rule %s: %w", r.ID, err)
			}
		}
		return p, nil
	}
}

// ingestFeed turns a second Logistics dataset into the tuples the
// sessions ingest, under prefixed EIDs. It leaves out every order whose
// street M_addr takes for another, different street of the same zip
// (among the tenant's tuples and the feed so far). The rule rs-cr would
// set such streets equal, and which of three or more candidate values
// wins depends on which tuples are present when the conflict is first
// resolved: fed one tuple at a time, 4 of 14 seeds ended with streets a
// full clean then rewrote (README, findings). Without those orders the
// stream's result does not depend on how ingests fall into batches, and
// "incremental ≡ batch" can be checked on every seed.
func ingestFeed(tenant, second *workload.Dataset) []serve.IngestTuple {
	addr := ml.NewCachedModel(ml.NewSimilarityMatcher("M_addr", 0.82))
	rel := tenant.DB.Rel("Order")
	street, zip := rel.Schema.Index("street"), rel.Schema.Index("zip")
	// seen lists, per zip, every street value present and the true street
	// it stands for: a generator typo stands for the street its witness
	// carries, every other value for itself.
	type alias struct{ value, stands data.Value }
	seen := make(map[string][]alias)
	standsFor := func(ds *workload.Dataset, t *data.Tuple) alias {
		if v, ok := ds.Gold.WrongCells[quality.CellKey("Order", t.TID, "street")]; ok {
			return alias{t.Values[street], v}
		}
		return alias{t.Values[street], t.Values[street]}
	}
	// clashes reports whether a, as stored or as repaired, resembles a
	// street of the zip that stands for another one.
	clashes := func(z string, a alias) bool {
		for _, o := range seen[z] {
			if o.stands.Equal(a.stands) {
				continue
			}
			for _, v := range []data.Value{a.value, a.stands} {
				for _, ov := range []data.Value{o.value, o.stands} {
					if addr.Predict([]data.Value{v}, []data.Value{ov}) {
						return true
					}
				}
			}
		}
		return false
	}
	// add records a once per zip: most orders repeat a street of theirs.
	add := func(z string, a alias) {
		for _, o := range seen[z] {
			if o.value.Equal(a.value) && o.stands.Equal(a.stands) {
				return
			}
		}
		seen[z] = append(seen[z], a)
	}
	for _, t := range rel.Tuples {
		add(t.Values[zip].String(), standsFor(tenant, t))
	}
	var feed []serve.IngestTuple
	for _, t := range second.DB.Rel("Order").Tuples {
		z, a := t.Values[zip].String(), standsFor(second, t)
		if clashes(z, a) {
			continue
		}
		add(z, a)
		vals := make([]string, len(t.Values))
		for j, v := range t.Values {
			vals[j] = v.String()
		}
		feed = append(feed, serve.IngestTuple{EID: "in-" + t.EID, Values: vals})
	}
	return feed
}

func (s *stream) setup() (pins, error) {
	wc := workload.Config{N: s.cfg.sizes.ServeN, Seed: s.cfg.seed}
	in, err := newInput(workload.Logistics(wc), false)
	if err != nil {
		return nil, err
	}
	p := pins{}
	in.pin(p)
	s.in = in

	wc.Seed++
	wc.N *= 8 // leaves, after ingestFeed, twice what two sessions send in 15 s
	feed := ingestFeed(in.ds, workload.Logistics(wc))
	seq, err := json.Marshal(feed)
	if err != nil {
		return nil, err
	}
	p["ingest/fnv64"] = fnv64(seq)
	// Session k sends every workers-th tuple of the feed, so what a
	// session sends does not depend on how the sessions interleave.
	s.bodies = make([][][]byte, s.cfg.workers)
	s.sizes = make([][]int, s.cfg.workers)
	for k := range s.bodies {
		next := k
		for i := 0; next < len(feed); i++ {
			n := 1
			if i%8 == 7 {
				n = 16
			}
			req := serve.IngestRequest{Rel: "Order"}
			for ; n > 0 && next < len(feed); n-- {
				req.Tuples = append(req.Tuples, feed[next])
				next += s.cfg.workers
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			s.bodies[k] = append(s.bodies[k], body)
			s.sizes[k] = append(s.sizes[k], len(req.Tuples))
		}
	}

	s.srv = serve.New(serve.DefaultConfig(), tenantFactory(in.ds, s.cfg.workers))
	s.hs = httptest.NewServer(s.srv.Handler())
	s.base = s.hs.URL + "/v1/" + tenantName
	t0 := time.Now()
	warm, err := s.clean()
	if err != nil {
		return nil, fmt.Errorf("warm clean: %w", err)
	}
	s.warm = time.Since(t0)
	corr := quality.NewCorrections()
	attrs := in.ds.DB.Rel("Order").Schema
	for _, f := range warm.Fixes {
		typ, _ := attrs.TypeOf(f.Attr)
		v, err := data.Parse(typ, f.New)
		if err != nil {
			return nil, fmt.Errorf("warm clean fix %s: %w", f.Cell, err)
		}
		corr.AddCell(f.Rel, f.TID, f.Attr, v)
	}
	// The response carries cell corrections only, so score those: the
	// conflict-resolution and imputation parts of the gold.
	sc := quality.ScoreCorrection(in.ds.Gold, corr, in.rawValue)
	cells := sc.CR
	cells.Add(sc.MI)
	s.warmF1 = cells.F1()
	return p, nil
}

func (s *stream) close() {
	if s.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "bench: serve shutdown:", err)
	}
	s.hs.Close()
	s.hs, s.srv = nil, nil
}

func (s *stream) probeInput() *input { return s.in }

// clean posts a full batch clean.
func (s *stream) clean() (*serve.CleanResponse, error) {
	resp, err := http.Post(s.base+"/clean", "application/json", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("POST /clean: status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	var out serve.CleanResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// post sends one ingest and returns the session token of its ack.
func (s *stream) post(body []byte) (uint64, error) {
	resp, err := http.Post(s.base+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("POST /ingest: status %d", resp.StatusCode)
	}
	var ing serve.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		return 0, err
	}
	return ing.Token, nil
}

// wait blocks until the batch covering token has materialised. since= is
// past the ledger's end: the wait is for the watermark, not the fix list.
func (s *stream) wait(token uint64) error {
	resp, err := http.Get(fmt.Sprintf("%s/fixes?token=%d&since=%d&timeout_ms=60000", s.base, token, 1<<30))
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /fixes?token=%d: status %d", token, resp.StatusCode)
	}
	return nil
}

func (s *stream) measure(rec *recorder, tr *tracer) error {
	rec.f1 = s.warmF1
	tenant, err := s.srv.Tenant(tenantName)
	if err != nil {
		return err
	}
	before := tenant.Registry().Snapshot()

	type op struct {
		ack, wait time.Duration
		tuples    int
		err       error
	}
	results := make([][]op, s.cfg.workers)
	var wg sync.WaitGroup
	rec.startGo()
	start := time.Now()
	for k := range results {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < len(s.bodies[k]) && (i < s.cfg.sizes.MinIngests || time.Since(start) < s.cfg.seconds); i++ {
				root := tr.start("rep", nil, i)
				root.SetNode(fmt.Sprintf("session-%d", k))
				o := op{tuples: s.sizes[k][i]}
				var token uint64
				o.ack, o.err = tr.step("serve.ingest_ack", root, i, func() (err error) { token, err = s.post(s.bodies[k][i]); return })
				if o.err == nil {
					o.wait, o.err = tr.step("serve.wait_visible", root, i, func() error { return s.wait(token) })
				}
				root.End()
				results[k] = append(results[k], o)
			}
		}(k)
	}
	wg.Wait()
	rec.streamWall = time.Since(start)
	rec.stopGo()

	var acks, waits []float64
	tuples := 0
	for k, ops := range results {
		for i, o := range ops {
			rec.check(o.err == nil, "session %d ingest %d: %v", k, i, o.err)
			if o.err != nil {
				continue
			}
			rec.op(o.ack+o.wait, o.tuples)
			tuples += o.tuples
			acks = append(acks, millis(o.ack))
			waits = append(waits, millis(o.wait))
		}
	}

	after := tenant.Registry().Snapshot()
	// The tenant's registry spans the warm clean and every batch; diffs is
	// the stream's share of its counters.
	diffs := make(map[string]uint64)
	for name, v := range after.Counters {
		diffs[name] = v - before.Counters[name]
	}
	diff := func(name string) float64 { return float64(diffs[name]) }
	bad := diff("serve.batch.errors") + diff("serve.apply.errors") + diff("serve.batch.partial")
	rec.check(bad == 0, "tenant counted %v failed, partial or misapplied batches", bad)
	// Incremental ≡ batch: after the stream a full clean finds nothing
	// left to correct.
	final, err := s.clean()
	if err != nil {
		return fmt.Errorf("final clean: %w", err)
	}
	rec.check(final.Corrections == 0, "final POST /clean made %d corrections after the stream, want 0: %+v", final.Corrections, final.Fixes)

	if tr == nil {
		return nil
	}
	tr.checkCoverage(rec)
	rec.set("data.tuples", float64(after.Gauges["serve.tuples"]))
	rec.set("serve.ingest_ack_p50_ms", median(acks))
	rec.set("serve.wait_p50_ms", median(waits))
	rec.set("serve.batches", diff("serve.batches"))
	rec.set("serve.batch_tuples_mean", diff("serve.batch.tuples")/diff("serve.batches"))
	rec.set("serve.batch_clean_p50_ms", millis(after.Histograms["serve.batch.clean"].P50))
	rec.set("serve.batch_clean_p95_ms", millis(after.Histograms["serve.batch.clean"].P95))
	rec.set("serve.rejected", diff("serve.ingest.rejected.queue")+diff("serve.ingest.rejected.quota")+diff("serve.ingest.rejected.draining"))
	rec.set("serve.valuations_per_tuple", diff("chase.valuations")/float64(tuples))
	rec.set("serve.ml_calls_per_tuple", diff("chase.ml_calls")/float64(tuples))
	rec.set("serve.full_clean_s", seconds(s.warm))
	for _, name := range []struct{ layer, counter string }{
		{"chase.rounds", "chase.rounds"}, {"chase.units", "chase.units"},
		{"chase.valuations", "chase.valuations"}, {"chase.ml_calls", "chase.ml_calls"},
		{"chase.fixes_applied", "chase.fixes.applied"}, {"chase.fixes_rejected", "chase.fixes.rejected"},
		{"chase.steals", "chase.steals"},
	} {
		rec.set(name.layer, diff(name.counter))
	}
	// The predication layer publishes its cumulative counters as gauges.
	for _, name := range []struct{ layer, gauge string }{
		{"ml.pred_hits", "pred.hits"}, {"ml.pred_misses", "pred.misses"}, {"ml.pred_warmed", "pred.warmed"},
	} {
		rec.set(name.layer, float64(after.Gauges[name.gauge]-before.Gauges[name.gauge]))
	}
	execCounters(rec, diffs)
	finishCounts(rec, nil)
	rec.set("chase.run_s", seconds(time.Duration(diff("chase.wall_ns")))/diff("serve.batches"))
	tr.program = after.Spans
	return nil
}
