// Package cluster is the in-process worker pool Rock's chase and
// detection run on (paper §6 uses 21 Kubernetes nodes; here a worker is
// a goroutine). Each drain sorts its units into one pending list,
// costliest first, and every idle worker takes the next unit from it:
// greedy longest-first list scheduling, §5.2's "an idle node fetches more
// work" within one process, where every worker reads the same columns.
// Runner is the surface it shares with the cross-process coordinator in
// internal/cluster/remote.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/rockclean/rock/internal/crystal"
	"github.com/rockclean/rock/internal/obs"
)

// Runner is the drain/submit surface the chase engine schedules on.
// The in-process Cluster implements it with goroutine workers; the
// remote coordinator (internal/cluster/remote) implements it over TCP
// worker processes. Everything the engine needs — submission, the
// barrier drain, and observability routing — goes through this interface
// so the two are interchangeable. Submit and DrainWithStats are called
// from one goroutine.
type Runner interface {
	Submit(u *crystal.WorkUnit)
	DrainWithStats(ctx context.Context, opts Options) DrainStats
	SetObs(reg *obs.Registry, prefix string)
}

var _ Runner = (*Cluster)(nil)

// Cluster is a pool of named workers draining one pending list.
type Cluster struct {
	nodes   []string
	pending []*crystal.WorkUnit // submitted since the last drain

	// reg/prefix route the cluster's observability into the owning
	// phase's registry ("detect" or "chase"); nil records nothing.
	reg    *obs.Registry
	prefix string
}

// New creates a cluster of n workers named node-0..node-(n-1).
func New(n int) *Cluster {
	if n < 1 {
		n = 1
	}
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("node-%d", i)
	}
	return &Cluster{nodes: nodes}
}

// SetObs routes the cluster's metrics into reg under the given name
// prefix (e.g. "chase" yields "chase.node.node-0.units",
// "chase.queue_depth"). A nil registry (the default) records nothing.
func (c *Cluster) SetObs(reg *obs.Registry, prefix string) {
	c.reg = reg
	c.prefix = prefix
}

// Submit adds a unit to the next drain's pending list.
func (c *Cluster) Submit(u *crystal.WorkUnit) { c.pending = append(c.pending, u) }

// Options tunes a drain run.
type Options struct {
	// MaxRetries bounds how many times a panicking unit is retried —
	// on a different node when one is alive — before it is given up and
	// reported as a UnitError. 0 means the first panic fails the unit.
	MaxRetries int
	// RetryBackoff is the base backoff before a retry; attempt k waits
	// k*RetryBackoff, cut short when the drain's context is cancelled.
	// Zero retries immediately. The in-process pool and the remote
	// coordinator apply the same policy (see Retry).
	RetryBackoff time.Duration
	// Faults, when non-nil, injects failures (panicking units,
	// stragglers, node kills) into this drain. Production runs leave it
	// nil; the fault-tolerance tests set it.
	Faults *FaultInjector
}

// UnitError describes a work unit that could not be completed: it
// panicked on every attempt, or its node died with no survivor to take
// the unit over.
type UnitError struct {
	UnitID   int
	RuleID   string
	Part     string
	Node     string // node of the last attempt
	Attempts int    // total attempts made (0 if never started)
	Err      error
}

func (e *UnitError) Error() string {
	return fmt.Sprintf("unit %d (%s %s) failed on %s after %d attempt(s): %v",
		e.UnitID, e.RuleID, e.Part, e.Node, e.Attempts, e.Err)
}

func (e *UnitError) Unwrap() error { return e.Err }

// Retry is the one retry policy of every executor (the in-process pool
// and the remote coordinator): it decides the fate of unit u after its
// attempt-th attempt failed with err on node. Past opts.MaxRetries
// attempts the unit is given up and the UnitError is returned. Otherwise
// Retry waits attempt × opts.RetryBackoff — cut short when ctx is
// cancelled — and returns the node the retry must avoid: node itself
// when others, asked after the wait, reports a live node besides it; ""
// when node is the only survivor and the retry may run where it failed.
// The caller only chooses where the retry runs.
func Retry(ctx context.Context, opts Options, u *crystal.WorkUnit, node string, attempt int, err error, others func() bool) (avoid string, failed *UnitError) {
	if attempt > opts.MaxRetries {
		return "", &UnitError{UnitID: u.ID, RuleID: u.RuleID, Part: u.Part, Node: node, Attempts: attempt, Err: err}
	}
	if opts.RetryBackoff > 0 {
		t := time.NewTimer(time.Duration(attempt) * opts.RetryBackoff)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}
	if others() {
		return node, nil
	}
	return "", nil
}

// errNoSurvivor marks units stranded when every node has been killed.
var errNoSurvivor = errors.New("no surviving node to run unit")

// DrainStats describes one drain: per-node unit counts for THIS drain
// only, the number of units it started with, and the fault-tolerance
// outcomes.
type DrainStats struct {
	PerNode map[string]int
	Queued  int

	Panics     int         // recovered unit panics (including retried ones)
	Retries    int         // retry attempts scheduled after a panic
	Reassigned int         // retries that must run on a node other than the one that failed
	Cancelled  bool        // drain stopped early on context cancellation
	Skipped    int         // units left unexecuted by a cancelled drain
	Killed     []string    // nodes killed by fault injection during this drain
	Failed     []UnitError // units that exhausted retries or lost their node
}

// pendingUnit is one entry of a drain's pending list: a unit, and for a
// retry the node it must avoid while another node lives.
type pendingUnit struct {
	u     *crystal.WorkUnit
	avoid string
}

// drainRun is the shared state of one DrainWithStats call, all of it
// under mu, including the statistics it returns. Workers wait on cond
// when no pending unit is theirs to take but units are still outstanding
// (in flight or in retry backoff); every change a waiter cares about — a
// retry queued, a node killed, the last unit settled, cancellation —
// broadcasts.
type drainRun struct {
	ctx   context.Context
	nodes int
	mu    sync.Mutex
	cond  *sync.Cond

	queue       []pendingUnit // costliest first; retries are appended
	outstanding int           // units not yet completed or permanently failed
	dead        map[string]bool
	attempts    map[*crystal.WorkUnit]int // panics per unit so far
	st          DrainStats
}

// othersAliveLocked reports whether a node besides a live one survives.
func (d *drainRun) othersAliveLocked() bool { return len(d.dead) < d.nodes-1 }

// takeLocked removes and returns the first pending unit node may run:
// the costliest one, passing over retries that avoid node while another
// node lives. It returns nil when there is none.
func (d *drainRun) takeLocked(node string) *crystal.WorkUnit {
	others := d.othersAliveLocked()
	for i, p := range d.queue {
		if p.avoid == node && others {
			continue
		}
		if i == 0 {
			d.queue = d.queue[1:]
		} else {
			d.queue = append(d.queue[:i], d.queue[i+1:]...)
		}
		return p.u
	}
	return nil
}

// settleLocked retires one outstanding unit, waking the waiters when it
// was the last.
func (d *drainRun) settleLocked() {
	d.outstanding--
	if d.outstanding == 0 {
		d.cond.Broadcast()
	}
}

// DrainWithStats runs every submitted unit to completion across all
// workers and returns this drain's statistics. The units form one
// pending list, sorted by EstCost descending with ties in ID order; each
// worker loops: take the next unit it may run, run it, repeat until no
// units remain outstanding, the context is cancelled, or fault injection
// kills the node — survivors then drain what is left.
//
// PerNode counts this drain only: the chase drains the same shared
// cluster once per round, and utilization stats derived from cumulative
// counts would inflate every round after the first.
//
// A panicking unit is recovered and settled by Retry: retried with
// backoff up to opts.MaxRetries times (on a different live node when one
// exists), then surfaced as a UnitError — other units keep running
// either way. Cancelling ctx stops the drain between units: in-flight
// units finish, the rest are counted in Skipped, and Cancelled is set.
// When every node is killed, the units left are errNoSurvivor failures.
func (c *Cluster) DrainWithStats(ctx context.Context, opts Options) DrainStats {
	if ctx == nil {
		ctx = context.Background()
	}
	queue := make([]pendingUnit, len(c.pending))
	for i, u := range c.pending {
		queue[i] = pendingUnit{u: u}
	}
	c.pending = nil
	sort.Slice(queue, func(i, j int) bool {
		a, b := queue[i].u, queue[j].u
		if a.EstCost != b.EstCost {
			return a.EstCost > b.EstCost
		}
		return a.ID < b.ID
	})
	if c.reg != nil {
		c.reg.SetGauge(c.prefix+".queue_depth", int64(len(queue)))
	}
	d := &drainRun{
		ctx:         ctx,
		nodes:       len(c.nodes),
		queue:       queue,
		outstanding: len(queue),
		dead:        make(map[string]bool, len(c.nodes)),
		attempts:    make(map[*crystal.WorkUnit]int),
		st:          DrainStats{PerNode: make(map[string]int, len(c.nodes)), Queued: len(queue)},
	}
	d.cond = sync.NewCond(&d.mu)
	// Wake every waiting worker when the context is cancelled, so none
	// sleeps on the cond past the deadline.
	stop := context.AfterFunc(ctx, func() {
		d.mu.Lock()
		d.st.Cancelled = true
		d.cond.Broadcast()
		d.mu.Unlock()
	})
	var wg sync.WaitGroup
	for _, node := range c.nodes {
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			c.workerLoop(node, d, opts)
		}(node)
	}
	wg.Wait()
	stop()

	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.st
	// Workers leave units behind only when the drain was cancelled or
	// every node was killed. Cancelled leftovers are merely skipped;
	// leftovers with no surviving node are failures.
	if st.Cancelled {
		st.Skipped = len(d.queue)
		if c.reg != nil {
			c.reg.Inc(c.prefix + ".cancelled")
		}
	} else {
		for _, p := range d.queue {
			st.Failed = append(st.Failed, UnitError{
				UnitID: p.u.ID, RuleID: p.u.RuleID, Part: p.u.Part,
				Node: st.Killed[len(st.Killed)-1], Attempts: d.attempts[p.u], Err: errNoSurvivor,
			})
		}
	}
	return st
}

// workerLoop is one node's work manager for the duration of a drain.
func (c *Cluster) workerLoop(node string, d *drainRun, opts Options) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		// Poll the context before taking each unit: a context that is
		// only polled, never closing Done, still stops the drain between
		// units.
		if !d.st.Cancelled && d.ctx.Err() != nil {
			d.st.Cancelled = true
			d.cond.Broadcast()
		}
		if d.st.Cancelled || d.outstanding == 0 || d.dead[node] {
			return
		}
		u := d.takeLocked(node)
		if u == nil {
			d.cond.Wait()
			continue
		}
		d.mu.Unlock()
		c.runOne(node, u, d, opts)
		d.mu.Lock()
	}
}

// runOne executes a single unit with panic isolation and drives the
// retry policy on failure.
func (c *Cluster) runOne(node string, u *crystal.WorkUnit, d *drainRun, opts Options) {
	if opts.Faults != nil {
		if delay := opts.Faults.delayFor(u.ID); delay > 0 {
			// Stragglers stay interruptible: cancellation cuts the
			// injected slowness short (the unit itself still runs).
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-d.ctx.Done():
				t.Stop()
			}
		}
	}
	err := runShielded(opts.Faults, u, node)
	if err == nil {
		if c.reg != nil {
			c.reg.Inc(c.prefix + ".node." + node + ".units")
		}
		d.mu.Lock()
		d.st.PerNode[node]++
		d.settleLocked()
		d.mu.Unlock()
		if opts.Faults != nil && opts.Faults.shouldDie(node) {
			c.killNode(node, d)
		}
		return
	}

	// The unit panicked (recovered into err): Retry gives it up or
	// decides which node the retry avoids.
	if c.reg != nil {
		c.reg.Inc(c.prefix + ".unit_panics")
	}
	d.mu.Lock()
	d.st.Panics++
	d.attempts[u]++
	attempt := d.attempts[u]
	d.mu.Unlock()
	// node is alive: a node is only killed after a unit it completed.
	avoid, failed := Retry(d.ctx, opts, u, node, attempt, err, func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.othersAliveLocked()
	})
	d.mu.Lock()
	defer d.mu.Unlock()
	if failed != nil {
		d.st.Failed = append(d.st.Failed, *failed)
		d.settleLocked()
		if c.reg != nil {
			c.reg.Inc(c.prefix + ".unit_failures")
		}
		return
	}
	// A cancelled wait still queues the retry: the drain counts it as
	// Skipped.
	d.st.Retries++
	if c.reg != nil {
		c.reg.Inc(c.prefix + ".retries")
	}
	if avoid != "" {
		d.st.Reassigned++
		if c.reg != nil {
			c.reg.Inc(c.prefix + ".reassigned")
		}
	}
	d.queue = append(d.queue, pendingUnit{u: u, avoid: avoid})
	d.cond.Broadcast()
}

// runShielded runs the unit under recover(), converting a panic into an
// error so one bad unit cannot take down the process.
func runShielded(f *FaultInjector, u *crystal.WorkUnit, node string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("unit panic: %v", r)
		}
	}()
	if f != nil {
		f.maybePanic(u.ID)
	}
	u.Run(node)
	return nil
}

// killNode marks a node dead mid-drain (fault injection): its worker
// exits at its next turn and the survivors drain the pending list.
func (c *Cluster) killNode(node string, d *drainRun) {
	d.mu.Lock()
	d.dead[node] = true
	d.st.Killed = append(d.st.Killed, node)
	d.cond.Broadcast()
	d.mu.Unlock()
	if c.reg != nil {
		c.reg.Inc(c.prefix + ".node_killed")
	}
}
