package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/rock"
)

// op is one queued mutation. Ingest handlers never touch the tenant's
// database — they only parse and enqueue; the tenant's worker applies
// ops to a rock.Delta under the run lock. That single rule keeps HTTP
// concurrency away from the engine's data structures.
type op struct {
	rel string
	// insert
	eid    string
	values []data.Value
	// update (when update is true)
	update bool
	tid    int
	attr   string
	val    data.Value

	at time.Time // enqueue time, for the ingest→fix-visible histogram
}

// FixRecord is one applied correction in a tenant's fix ledger.
type FixRecord struct {
	// Seq is the batch watermark that materialized the fix (0 for fixes
	// from a full /clean run).
	Seq   uint64 `json:"seq"`
	Cell  string `json:"cell"`
	Rel   string `json:"rel"`
	TID   int    `json:"tid"`
	EID   string `json:"eid,omitempty"`
	Attr  string `json:"attr"`
	Old   string `json:"old"`
	New   string `json:"new"`
	IsNew bool   `json:"is_new"`
}

// Tenant is one isolated cleaning session: a warm rock.Pipeline (rules,
// trained models, §5.4 predication layer, accumulated truth), its own
// obs registry, a coalescing ingest batcher, and the read-your-fixes
// watermark.
type Tenant struct {
	name string
	cfg  Config
	reg  *obs.Registry
	p    *rock.Pipeline

	// runMu serializes engine runs (batch flushes and full cleans write
	// the database; /query readers take the read side).
	runMu sync.RWMutex

	mu         sync.Mutex
	queue      []op
	batchStart time.Time
	timer      *time.Timer
	seq        uint64 // last issued ingest token
	applied    uint64 // watermark: every token ≤ applied is materialized
	appliedCh  chan struct{}
	pending    int // queued ops not yet materialized
	tuples     int // tenant tuple count (quota accounting)
	fixes      []FixRecord
	fixOffset  int // ledger entries truncated so far; ?since= indices are absolute
	draining   bool

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

func newTenant(name string, cfg Config, reg *obs.Registry, p *rock.Pipeline) *Tenant {
	t := &Tenant{
		name:      name,
		cfg:       cfg,
		reg:       reg,
		p:         p,
		appliedCh: make(chan struct{}),
		tuples:    p.DB().TupleCount(),
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	reg.SetGauge("serve.tuples", int64(t.tuples))
	go t.worker()
	return t
}

// Registry exposes the tenant's obs registry (metrics endpoints, load
// generators).
func (t *Tenant) Registry() *obs.Registry { return t.reg }

// enqueue validates admission (drain, backpressure, quota), assigns the
// batch token, and queues the ops. It returns the token and the queue
// depth after admission.
func (t *Tenant) enqueue(ops []op, inserts int) (uint64, int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.draining {
		t.reg.Inc("serve.ingest.rejected.draining")
		return 0, t.pending, errDraining
	}
	if t.pending+len(ops) > t.cfg.QueueLimit {
		t.reg.Inc("serve.ingest.rejected.queue")
		return 0, t.pending, errBackpressure
	}
	if t.cfg.MaxTuples > 0 && t.tuples+inserts > t.cfg.MaxTuples {
		t.reg.Inc("serve.ingest.rejected.quota")
		return 0, t.pending, errQuota
	}
	t.seq++
	now := time.Now()
	for i := range ops {
		ops[i].at = now
	}
	t.queue = append(t.queue, ops...)
	t.pending += len(ops)
	t.tuples += inserts
	t.reg.Inc("serve.ingest.requests")
	t.reg.Add("serve.ingest.tuples", uint64(len(ops)))
	t.reg.SetGauge("serve.pending", int64(t.pending))
	t.reg.SetGauge("serve.tuples", int64(t.tuples))
	if t.batchStart.IsZero() {
		t.batchStart = now
		t.timer = time.AfterFunc(t.cfg.BatchWindow, t.kickNow)
	}
	if len(t.queue) >= t.cfg.MaxBatch {
		t.kickNow()
	}
	return t.seq, t.pending, nil
}

func (t *Tenant) kickNow() {
	select {
	case t.kick <- struct{}{}:
	default:
	}
}

// worker is the tenant's single flush loop: every batch clean runs
// here, so engine runs are naturally serialized per tenant.
func (t *Tenant) worker() {
	defer close(t.done)
	for {
		select {
		case <-t.kick:
			t.maybeFlush(false)
		case <-t.stop:
			// Drain: flush whatever is queued, ignoring the window.
			t.maybeFlush(true)
			return
		}
	}
}

// maybeFlush runs one batch if the coalescing window elapsed, the batch
// is full, or force is set; it keeps flushing while more work qualifies
// (ops that arrived during a long run).
func (t *Tenant) maybeFlush(force bool) {
	for {
		t.mu.Lock()
		if len(t.queue) == 0 {
			t.mu.Unlock()
			return
		}
		elapsed := time.Since(t.batchStart)
		if !force && elapsed < t.cfg.BatchWindow && len(t.queue) < t.cfg.MaxBatch {
			// Too early: re-arm for the remainder of the window.
			t.timer.Reset(t.cfg.BatchWindow - elapsed)
			t.mu.Unlock()
			return
		}
		ops := t.queue
		hi := t.seq
		t.queue = nil
		t.batchStart = time.Time{}
		t.mu.Unlock()
		t.runBatch(ops, hi)
		if !force {
			return
		}
	}
}

// runBatch applies one coalesced batch through CleanIncrementalReport,
// appends the corrections to the fix ledger, and advances the
// read-your-fixes watermark to hi.
func (t *Tenant) runBatch(ops []op, hi uint64) {
	t.runMu.Lock()
	d := t.p.NewDelta()
	// insertErrs is tracked separately from update failures: enqueue
	// charged the tuple quota for every insert in the batch, so each
	// insert that never materializes must be refunded below or the
	// tenant's quota leaks until restart.
	applyErrs, insertErrs := 0, 0
	for _, o := range ops {
		if o.update {
			if !d.Update(o.rel, o.tid, o.attr, o.val) {
				applyErrs++
			}
		} else if d.Insert(o.rel, o.eid, o.values...) == nil {
			applyErrs++
			insertErrs++
		}
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), t.cfg.CleanTimeout)
	rep, err := d.CleanIncrementalReport(ctx)
	cancel()
	var recs []FixRecord
	if err == nil {
		// Render while still holding the run lock: the EID lookup reads
		// the database.
		recs = t.renderFixes(hi, rep.Corrections)
	}
	t.runMu.Unlock()

	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if applyErrs > 0 {
		t.reg.Add("serve.apply.errors", uint64(applyErrs))
	}
	if insertErrs > 0 {
		// Refund quota for inserts that never landed. Failed updates cost
		// nothing (enqueue only charges inserts), and a whole-clean error
		// does not refund: Delta.Insert mutates the database immediately,
		// so successfully inserted tuples persist even when the clean fails.
		t.tuples -= insertErrs
		t.reg.SetGauge("serve.tuples", int64(t.tuples))
	}
	if err != nil {
		t.reg.Inc("serve.batch.errors")
	} else {
		t.reg.Inc("serve.batches")
		t.reg.Add("serve.batch.tuples", uint64(len(ops)))
		if rep.Partial {
			t.reg.Inc("serve.batch.partial")
		}
		t.appendFixes(recs)
		t.reg.Observe("serve.batch.clean", now.Sub(start))
		for _, o := range ops {
			t.reg.Observe("serve.ingest.visible", now.Sub(o.at))
		}
	}
	// Advance the watermark even on error: a failed batch must not wedge
	// readers forever; the error is visible in serve.batch.errors.
	t.pending -= len(ops)
	t.applied = hi
	t.reg.SetGauge("serve.pending", int64(t.pending))
	close(t.appliedCh)
	t.appliedCh = make(chan struct{})
}

// renderFixes turns corrections into ledger records. Caller holds
// runMu (the EID lookup reads the database).
func (t *Tenant) renderFixes(seq uint64, cs []rock.Correction) []FixRecord {
	recs := make([]FixRecord, 0, len(cs))
	for _, c := range cs {
		eid := ""
		if r := t.p.DB().Rel(c.Cell.Rel); r != nil {
			if tu := r.Get(c.Cell.TID); tu != nil {
				eid = tu.EID
			}
		}
		recs = append(recs, FixRecord{
			Seq:   seq,
			Cell:  c.Cell.String(),
			Rel:   c.Cell.Rel,
			TID:   c.Cell.TID,
			EID:   eid,
			Attr:  c.Cell.Attr,
			Old:   c.Old.String(),
			New:   c.New.String(),
			IsNew: c.IsNew,
		})
	}
	return recs
}

// appendFixes records rendered corrections in the ledger and truncates
// the oldest entries past Config.MaxFixLedger, advancing fixOffset so
// absolute ?since= cursors survive the truncation. Caller holds t.mu.
func (t *Tenant) appendFixes(recs []FixRecord) {
	t.fixes = append(t.fixes, recs...)
	if limit := t.cfg.MaxFixLedger; limit > 0 && len(t.fixes) > limit {
		drop := len(t.fixes) - limit
		t.fixOffset += drop
		// Reallocate rather than re-slice so the dropped records' backing
		// array is actually released.
		t.fixes = append([]FixRecord(nil), t.fixes[drop:]...)
		t.reg.Add("serve.fixes.truncated", uint64(drop))
		t.reg.SetGauge("serve.fixes.offset", int64(t.fixOffset))
	}
	t.reg.Add("serve.fixes.applied", uint64(len(recs)))
}

// cleanFull runs a whole-database batch clean (POST /clean), serialized
// against batch flushes through the run lock. It returns the report and
// its corrections rendered as the ledger records it appended.
func (t *Tenant) cleanFull(ctx context.Context) (*rock.Report, []FixRecord, error) {
	t.runMu.Lock()
	start := time.Now()
	rep, err := t.p.CleanCtx(ctx)
	var recs []FixRecord
	if err == nil {
		recs = t.renderFixes(0, rep.Corrections)
	}
	t.runMu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	t.mu.Lock()
	t.reg.Inc("serve.clean.full")
	t.reg.Observe("serve.clean.full.latency", time.Since(start))
	t.appendFixes(recs)
	t.mu.Unlock()
	return rep, recs, nil
}

// waitApplied blocks until the watermark covers token (the
// read-your-fixes session guarantee) or ctx expires.
func (t *Tenant) waitApplied(ctx context.Context, token uint64) error {
	for {
		t.mu.Lock()
		if t.applied >= token {
			t.mu.Unlock()
			return nil
		}
		ch := t.appliedCh
		t.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return fmt.Errorf("token %d not applied: %w", token, ctx.Err())
		}
	}
}

// fixesSince returns the ledger entries at absolute index >= since,
// with the current watermark, the all-time fix count, and the oldest
// retained index. A since that predates the retained window is clamped
// to the window start (those entries were truncated and are gone).
func (t *Tenant) fixesSince(since int) ([]FixRecord, uint64, int, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reg.Inc("serve.reads.fixes")
	total := t.fixOffset + len(t.fixes)
	if since < t.fixOffset {
		since = t.fixOffset
	}
	if since > total {
		since = total
	}
	out := make([]FixRecord, total-since)
	copy(out, t.fixes[since-t.fixOffset:])
	return out, t.applied, total, t.fixOffset
}

// readTuple snapshots one tuple's current (cleaned) values.
func (t *Tenant) readTuple(rel string, tid int) (map[string]string, string, error) {
	t.runMu.RLock()
	defer t.runMu.RUnlock()
	r := t.p.DB().Rel(rel)
	if r == nil {
		return nil, "", fmt.Errorf("unknown relation %q", rel)
	}
	tup := r.Get(tid)
	if tup == nil {
		return nil, "", fmt.Errorf("no tuple %d in %s", tid, rel)
	}
	vals := make(map[string]string, len(r.Schema.Attrs))
	for i, a := range r.Schema.Attrs {
		vals[a.Name] = tup.Values[i].String()
	}
	t.reg.Inc("serve.reads.query")
	return vals, tup.EID, nil
}

// beginDrain rejects new ingests and tells the worker to flush what is
// queued and exit. Idempotent.
func (t *Tenant) beginDrain() {
	t.mu.Lock()
	already := t.draining
	t.draining = true
	if t.timer != nil {
		t.timer.Stop()
	}
	t.mu.Unlock()
	if !already {
		close(t.stop)
	}
}
