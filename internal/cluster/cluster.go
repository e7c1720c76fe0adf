// Package cluster is the in-process worker pool Rock's chase and
// detection run on (paper §6 uses 21 Kubernetes nodes; here a worker is
// a goroutine). Each drain sorts its units into one pending list,
// costliest first, and every idle worker takes the next unit from it:
// greedy longest-first list scheduling, §5.2's "an idle node fetches more
// work", where every worker reads the same columns. The cross-process
// coordinator in internal/cluster/remote drains the same list over its
// worker connections (DrainOn); Runner is the surface the two share.
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

// Runner is the drain surface the chase engine schedules on. The
// in-process Cluster implements it with goroutine workers; the remote
// coordinator (internal/cluster/remote) implements it over TCP worker
// processes. Everything the engine needs — the barrier drain of a
// round's units, and observability routing — goes through this interface
// so the two are interchangeable. DrainWithStats is called from one
// goroutine at a time.
type Runner interface {
	DrainWithStats(ctx context.Context, units []*crystal.WorkUnit, opts Options) DrainStats
	SetObs(reg *obs.Registry, prefix string)
}

var _ Runner = (*Cluster)(nil)

// Cluster is a pool of named workers; it keeps nothing between drains.
type Cluster struct {
	nodes []string

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

// Options tunes a drain run.
type Options struct {
	// MaxRetries bounds how many times a panicking unit is retried —
	// on a different node when one is alive — before it is given up and
	// reported as a UnitError. 0 means the first panic fails the unit.
	MaxRetries int
	// RetryBackoff is the base backoff before a retry; attempt k waits
	// k*RetryBackoff, cut short when the drain's context is cancelled.
	// Zero retries immediately. Both transports drain through DrainOn,
	// so the in-process pool and the remote coordinator apply the same
	// policy.
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

// errNoSurvivor marks units stranded when every node has been killed.
var errNoSurvivor = errors.New("no surviving node to run unit")

// ErrNodeLost is what a drain's run function returns when the node died
// with the unit in flight (a worker process whose connection broke): the
// drain marks the node dead and puts the unit back on the pending list
// without counting an attempt.
var ErrNodeLost = errors.New("cluster: node lost with the unit in flight")

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
	Killed     []string    // nodes killed (fault injection) or lost during this drain
	Failed     []UnitError // units that exhausted retries or lost their node
}

// pendingUnit is one entry of a drain's pending list: a unit, and for a
// retry the node it must avoid while another node lives.
type pendingUnit struct {
	u     *crystal.WorkUnit
	avoid string
}

// drainRun is the shared state of one drain, all of it under mu,
// including the statistics it returns. Workers wait on cond when no
// pending unit is theirs to take but units are still outstanding (in
// flight or in retry backoff); every change a waiter cares about — a
// unit queued, a node killed, the last unit settled, cancellation —
// broadcasts.
type drainRun struct {
	ctx   context.Context
	run   func(ctx context.Context, node string, u *crystal.WorkUnit) error
	opts  Options
	nodes int
	mu    sync.Mutex
	cond  *sync.Cond

	queue       []pendingUnit // costliest first; retries and lost units are appended
	outstanding int           // units not yet completed or permanently failed
	dead        map[string]bool
	attempts    map[*crystal.WorkUnit]int // failed attempts per unit so far
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

// DrainWithStats runs units to completion on the pool's goroutine
// workers and returns this drain's statistics (see DrainOn).
func (c *Cluster) DrainWithStats(ctx context.Context, units []*crystal.WorkUnit, opts Options) DrainStats {
	return c.DrainOn(ctx, c.nodes, units, func(_ context.Context, node string, u *crystal.WorkUnit) error {
		u.Run(node)
		return nil
	}, opts)
}

// DrainOn runs units on the given nodes and returns this drain's
// statistics. It is the one scheduler of both transports: the pool
// passes its goroutine workers and u.Run; the remote coordinator passes
// its live worker connections and a run that ships the unit and waits
// for its outcome. The units form one pending
// list, sorted by EstCost descending with ties in ID order; each node
// loops: take the next unit it may run, run it, repeat until no units
// remain outstanding, the context is cancelled, or the node dies —
// survivors then drain what is left.
//
// run returns nil when the unit completed, ErrNodeLost when the node died
// with the unit in flight, and ctx's error when the drain was cancelled
// before the unit's outcome arrived; those two put the unit back on the
// list without counting an attempt. A panic inside run, or any other
// error, fails the attempt.
//
// PerNode counts this drain only: the chase drains the same shared
// cluster once per round, and utilization stats derived from cumulative
// counts would inflate every round after the first.
//
// A failed attempt is settled by retry: retried with backoff up to
// opts.MaxRetries times (on a different live node when one exists), then
// surfaced as a UnitError — other units keep running either way.
// Cancelling ctx stops the drain between units: in-flight units finish
// or are abandoned, the rest are counted in Skipped, and Cancelled is
// set. When every node is dead, the units left are errNoSurvivor
// failures.
func (c *Cluster) DrainOn(ctx context.Context, nodes []string, units []*crystal.WorkUnit, run func(ctx context.Context, node string, u *crystal.WorkUnit) error, opts Options) DrainStats {
	if ctx == nil {
		ctx = context.Background()
	}
	queue := make([]pendingUnit, len(units))
	for i, u := range units {
		queue[i] = pendingUnit{u: u}
	}
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
		run:         run,
		opts:        opts,
		nodes:       len(nodes),
		queue:       queue,
		outstanding: len(queue),
		dead:        make(map[string]bool, len(nodes)),
		attempts:    make(map[*crystal.WorkUnit]int),
		st:          DrainStats{PerNode: make(map[string]int, len(nodes)), Queued: len(queue)},
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
	for _, node := range nodes {
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			c.workerLoop(node, d)
		}(node)
	}
	wg.Wait()
	stop()

	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.st
	// Workers leave units behind only when the drain was cancelled or
	// every node died. Cancelled leftovers are merely skipped; leftovers
	// with no surviving node are failures.
	if st.Cancelled {
		st.Skipped = len(d.queue)
		if c.reg != nil {
			c.reg.Inc(c.prefix + ".cancelled")
		}
	} else {
		last := ""
		if len(st.Killed) > 0 {
			last = st.Killed[len(st.Killed)-1]
		}
		for _, p := range d.queue {
			st.Failed = append(st.Failed, UnitError{
				UnitID: p.u.ID, RuleID: p.u.RuleID, Part: p.u.Part,
				Node: last, Attempts: d.attempts[p.u], Err: errNoSurvivor,
			})
		}
	}
	return st
}

// workerLoop is one node's work manager for the duration of a drain.
func (c *Cluster) workerLoop(node string, d *drainRun) {
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
		c.runOne(node, u, d)
		d.mu.Lock()
	}
}

// runOne executes a single unit on node with panic isolation and settles
// its outcome: completed, back on the list, retried or failed.
func (c *Cluster) runOne(node string, u *crystal.WorkUnit, d *drainRun) {
	faults := d.opts.Faults
	if faults != nil {
		if delay := faults.delayFor(u.ID); delay > 0 {
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
	err := d.runShielded(node, u)
	if err == nil {
		if c.reg != nil {
			c.reg.Inc(c.prefix + ".node." + node + ".units")
		}
		die := faults != nil && faults.shouldDie(node)
		d.mu.Lock()
		d.st.PerNode[node]++
		d.settleLocked()
		if die {
			c.killLocked(node, d)
		}
		d.mu.Unlock()
		return
	}
	lost := errors.Is(err, ErrNodeLost)
	if lost || (d.ctx.Err() != nil && errors.Is(err, d.ctx.Err())) {
		// The unit never reached an outcome. It goes back on the list
		// without an attempt counted: a survivor runs it, or a cancelled
		// drain counts it Skipped.
		d.mu.Lock()
		if lost {
			c.killLocked(node, d)
		}
		d.queue = append(d.queue, pendingUnit{u: u})
		d.cond.Broadcast()
		d.mu.Unlock()
		return
	}

	// The attempt failed (a recovered panic): retry gives the unit up or
	// waits out its backoff.
	if c.reg != nil {
		c.reg.Inc(c.prefix + ".unit_panics")
	}
	d.mu.Lock()
	d.st.Panics++
	d.attempts[u]++
	attempt := d.attempts[u]
	d.mu.Unlock()
	failed := retry(d.ctx, d.opts, u, node, attempt, err)
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
	// The retry avoids node while another node lives (node itself is
	// alive: only its own worker marks it dead).
	avoid := ""
	if d.othersAliveLocked() {
		avoid = node
		d.st.Reassigned++
		if c.reg != nil {
			c.reg.Inc(c.prefix + ".reassigned")
		}
	}
	d.queue = append(d.queue, pendingUnit{u: u, avoid: avoid})
	d.cond.Broadcast()
}

// retry is the drain's one retry policy, whichever transport ran the
// unit: it decides the fate of unit u after its attempt-th attempt failed
// with err on node. Past opts.MaxRetries attempts the unit is given up
// and the UnitError is returned; otherwise retry waits attempt ×
// opts.RetryBackoff, cut short when ctx is cancelled, and returns nil.
func retry(ctx context.Context, opts Options, u *crystal.WorkUnit, node string, attempt int, err error) *UnitError {
	if attempt > opts.MaxRetries {
		return &UnitError{UnitID: u.ID, RuleID: u.RuleID, Part: u.Part, Node: node, Attempts: attempt, Err: err}
	}
	if opts.RetryBackoff > 0 {
		t := time.NewTimer(time.Duration(attempt) * opts.RetryBackoff)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}
	return nil
}

// runShielded runs the unit under recover(), converting a panic into an
// error so one bad unit cannot take down the process.
func (d *drainRun) runShielded(node string, u *crystal.WorkUnit) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("unit panic: %v", r)
		}
	}()
	if d.opts.Faults != nil {
		d.opts.Faults.maybePanic(u.ID)
	}
	return d.run(d.ctx, node, u)
}

// killLocked marks a node dead mid-drain (a fault-injected kill or a lost
// node): its worker exits at its next turn and the survivors drain the
// pending list.
func (c *Cluster) killLocked(node string, d *drainRun) {
	d.dead[node] = true
	d.st.Killed = append(d.st.Killed, node)
	d.cond.Broadcast()
	if c.reg != nil {
		c.reg.Inc(c.prefix + ".node_killed")
	}
}
