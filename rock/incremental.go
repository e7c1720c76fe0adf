package rock

import (
	"context"

	"github.com/rockclean/rock/internal/chase"
	"github.com/rockclean/rock/internal/crystal"
	"github.com/rockclean/rock/internal/detect"
	"github.com/rockclean/rock/internal/obs"
)

// Delta tracks a batch of updates to the pipeline's database for the
// incremental modes (paper §3: "the users may opt to employ Rock to
// monitor changes to D, and incrementally detect and fix errors in
// response to updates"). Obtain one from Pipeline.NewDelta, record every
// inserted/updated tuple, then call DetectIncremental or CleanIncremental.
type Delta struct {
	p *Pipeline
	// w holds the dirty TIDs and counts the delta's writes, so the column
	// refresh re-stamps a column only when no other write came in between.
	w *crystal.Writes
}

// NewDelta starts tracking an update batch.
func (p *Pipeline) NewDelta() *Delta {
	return &Delta{p: p, w: crystal.NewWrites(p.db)}
}

// Insert appends a tuple to a relation and records it as dirty; it
// returns the new tuple (nil if the relation is unknown).
func (d *Delta) Insert(rel, eid string, values ...Value) *Tuple {
	r := d.p.db.Rel(rel)
	if r == nil {
		return nil
	}
	t := r.Insert(eid, values...)
	d.w.Wrote(rel, t.TID)
	return t
}

// Update overwrites one cell and records the tuple as dirty; it reports
// whether the tuple and attribute existed.
func (d *Delta) Update(rel string, tid int, attr string, v Value) bool {
	r := d.p.db.Rel(rel)
	if r == nil || !r.SetValue(tid, attr, v) {
		return false
	}
	d.w.Wrote(rel, tid)
	return true
}

// Size returns the number of tracked dirty tuples.
func (d *Delta) Size() int {
	n := 0
	for _, m := range d.w.Dirty {
		n += len(m)
	}
	return n
}

// refreshColumns brings the env's dictionary-encoded columns current for
// the delta's writes — O(|Δ|) per column instead of a rebuild — and counts
// the columns refreshed into reg. A write to the database the delta did not
// make (another delta's, a direct SetValue) leaves the columns to rebuild.
func (d *Delta) refreshColumns(reg *obs.Registry) {
	reg.Add("exec.columns.refreshed", uint64(d.p.env.Columns.Refresh(d.p.db, d.w)))
}

// DetectIncremental finds only the errors involving this delta's tuples.
func (d *Delta) DetectIncremental() ([]DetectedError, error) {
	errs, _, err := d.DetectIncrementalCtx(context.Background())
	return errs, err
}

// DetectIncrementalCtx is DetectIncremental under a cancellation context:
// on cancel it returns the errors found so far with partial=true and a
// nil error. Like the batch path it runs under a root span
// ("detect.incremental") and fills the pipeline's warm predication layer,
// so a following CleanIncremental serves detection-scored pairs as cache
// hits.
func (d *Delta) DetectIncrementalCtx(ctx context.Context) ([]DetectedError, bool, error) {
	reg := d.p.opts.Obs
	if reg == nil {
		reg = obs.New()
	}
	d.refreshColumns(reg)
	root := reg.StartSpan("detect.incremental", nil)
	defer root.End()
	dOpts := d.p.detectOptions(d.p.predication(), reg)
	dOpts.Span = root
	det := detect.New(d.p.env, d.p.rules, dOpts)
	errs, partial, err := det.DetectIncrementalCtx(ctx, d.w.Dirty)
	if err != nil {
		return nil, partial, err
	}
	return detectedErrors(errs), partial, nil
}

// CleanIncremental chases only from this delta's tuples (fixes propagate
// through the usual activation machinery), materialises the validated
// fixes, and returns the applied corrections.
func (d *Delta) CleanIncremental() ([]Correction, error) {
	out, _, err := d.CleanIncrementalCtx(context.Background())
	return out, err
}

// CleanIncrementalCtx is CleanIncremental under a cancellation context.
// On cancel the chase degrades gracefully: the certain fixes established
// so far are materialised and returned with partial=true and a nil error.
func (d *Delta) CleanIncrementalCtx(ctx context.Context) ([]Correction, bool, error) {
	rep, err := d.CleanIncrementalReport(ctx)
	if err != nil {
		return nil, false, err
	}
	return rep.Corrections, rep.Partial, nil
}

// CleanIncrementalReport is CleanIncrementalCtx returning the full run
// Report — corrections plus the predication cache counters, chase
// trace, per-rule profile and metrics snapshot of the incremental run.
// rockd reads it to attribute per-batch cost and cache behaviour. The
// incremental chase shares the batch path's whole option set (one
// builder, see Pipeline.chaseOptions), including the §5.4 predication
// layer and the root trace span. Its corrections are, as in the batch
// path, the cells Materialize writes: U's validated cells compared with
// the stored values — so a cell validated since the last clean counts
// even when the delta never reaches it.
func (d *Delta) CleanIncrementalReport(ctx context.Context) (*Report, error) {
	reg := d.p.opts.Obs
	if reg == nil {
		reg = obs.New()
	}
	pred := d.p.predication()
	d.refreshColumns(reg)
	root := reg.StartSpan("clean.incremental", nil)
	defer root.End()
	eng := chase.New(d.p.env, d.p.rules, d.p.gamma, d.p.chaseOptions(pred, reg, root))
	chaseRep, err := eng.RunIncrementalCtx(ctx, d.w.Dirty)
	if err != nil {
		return nil, err
	}
	rep := reportOf(chaseRep)
	rep.Corrections = correctionsOf(eng.MaterializeChanges())
	root.End()
	rep.Metrics = reg.Snapshot()
	return rep, nil
}
