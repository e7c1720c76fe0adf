// Package cluster is the in-process worker pool Rock's chase and
// detection run on (paper §6 uses 21 Kubernetes nodes; here a worker is
// a goroutine): each worker has its own work manager that drains the
// crystal scheduler, stealing from peers when idle. Runner is the surface
// it shares with the cross-process coordinator in internal/cluster/remote.
package cluster

import (
	"context"
	"errors"
	"fmt"
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
// so the two are interchangeable.
type Runner interface {
	Submit(u *crystal.WorkUnit)
	DrainWithStats(ctx context.Context, opts Options) DrainStats
	SetObs(reg *obs.Registry, prefix string)
}

var _ Runner = (*Cluster)(nil)

// Cluster is a set of named workers sharing a ring and scheduler.
type Cluster struct {
	Ring  *crystal.Ring
	Sched *crystal.Scheduler
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
	// Scale virtual nodes with cluster size: at a fixed replica count the
	// consistent-hash imbalance grows with n (max/mean deviation is roughly
	// sqrt(log n / replicas)), so bigger clusters get more ring positions
	// per node. Capped to bound ring memory and Owner() lookup cost.
	replicas := 64 * n
	if replicas > 1024 {
		replicas = 1024
	}
	ring := crystal.NewRing(replicas)
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("node-%d", i)
		ring.AddNode(nodes[i])
	}
	return &Cluster{Ring: ring, Sched: crystal.NewScheduler(nodes), nodes: nodes}
}

// SetObs routes the cluster's metrics into reg under the given name
// prefix (e.g. "chase" yields "chase.steals", "chase.node.node-0.units",
// "chase.queue_depth"). A nil registry (the default) records nothing.
// Steals are counted as they happen via the scheduler's OnSteal hook.
func (c *Cluster) SetObs(reg *obs.Registry, prefix string) {
	c.reg = reg
	c.prefix = prefix
	if reg == nil {
		c.Sched.OnSteal = nil
		return
	}
	steals := reg.Counter(prefix + ".steals")
	c.Sched.OnSteal = func(string, string, *crystal.WorkUnit) { steals.Inc() }
}

// Submit assigns a work unit by partition affinity.
func (c *Cluster) Submit(u *crystal.WorkUnit) { c.Sched.Assign(c.Ring, u) }

// Options tunes a drain run.
type Options struct {
	// Steal enables work stealing in the in-process pool (on by default
	// in Rock; the ablation benchmark turns it off). The remote
	// coordinator ignores it: it splits units evenly over its workers.
	Steal bool
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
// only, the number of steals it performed, the queue depth when it
// started, and the fault-tolerance outcomes.
type DrainStats struct {
	PerNode map[string]int
	Steals  int
	Queued  int

	Panics     int         // recovered unit panics (including retried ones)
	Retries    int         // retry attempts scheduled after a panic
	Reassigned int         // units re-homed to a different node (retries + reclaimed)
	Cancelled  bool        // drain stopped early on context cancellation
	Skipped    int         // units left unexecuted by a cancelled drain
	Killed     []string    // nodes killed by fault injection during this drain
	Failed     []UnitError // units that exhausted retries or lost their node
}

// drainRun is the shared state of one DrainWithStats call. Workers wait
// on cond when their queues are empty but units are still outstanding
// (in flight, in retry backoff, or queued on a peer with stealing off);
// version guards against missed wakeups: it is bumped, with a
// broadcast, on every state change a waiter cares about.
type drainRun struct {
	ctx  context.Context
	mu   sync.Mutex
	cond *sync.Cond

	version     int
	outstanding int            // units not yet completed or permanently failed
	perNode     map[string]int // units each node completed in this drain
	cancelled   bool
	dead        map[string]bool
	attempts    map[*crystal.WorkUnit]int // panics per unit so far

	panics     int
	retries    int
	reassigned int
	killed     []string
	failed     []UnitError
}

func (d *drainRun) bumpLocked() {
	d.version++
	d.cond.Broadcast()
}

// DrainWithStats runs every queued unit to completion across all
// workers and returns this drain's statistics. Each worker loops: pop
// (or steal) a unit, run it, repeat until no units remain outstanding,
// the context is cancelled, or fault injection kills the node.
//
// PerNode counts this drain only: the chase drains the same shared
// cluster once per round, and utilization stats derived from cumulative
// counts would inflate every round after the first.
//
// A panicking unit is recovered and settled by Retry: retried with
// backoff up to opts.MaxRetries times (reassigned to a different live
// node when one exists), then surfaced as a UnitError — other units keep
// running either way. Cancelling ctx stops the drain
// between units: in-flight units finish, the rest are reclaimed from
// the scheduler and counted in Skipped, and Cancelled is set.
func (c *Cluster) DrainWithStats(ctx context.Context, opts Options) DrainStats {
	if ctx == nil {
		ctx = context.Background()
	}
	st := DrainStats{Queued: c.Sched.Pending()}
	stealsBefore := c.Sched.Steals()
	if c.reg != nil {
		c.reg.SetGauge(c.prefix+".queue_depth", int64(st.Queued))
	}
	d := &drainRun{
		ctx:         ctx,
		outstanding: st.Queued,
		perNode:     make(map[string]int, len(c.nodes)),
		dead:        make(map[string]bool, len(c.nodes)),
		attempts:    make(map[*crystal.WorkUnit]int),
	}
	d.cond = sync.NewCond(&d.mu)

	// Watchdog: wake every waiting worker when the context is cancelled,
	// so none sleeps on the cond past the deadline.
	stop := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		select {
		case <-ctx.Done():
			d.mu.Lock()
			d.cancelled = true
			d.bumpLocked()
			d.mu.Unlock()
		case <-stop:
		}
	}()

	var wg sync.WaitGroup
	for _, node := range c.nodes {
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			c.workerLoop(node, d, opts)
		}(node)
	}
	wg.Wait()
	close(stop)
	watch.Wait()

	d.mu.Lock()
	st.PerNode = d.perNode
	st.Cancelled = d.cancelled
	st.Panics = d.panics
	st.Retries = d.retries
	st.Reassigned = d.reassigned
	st.Killed = append([]string(nil), d.killed...)
	st.Failed = append([]UnitError(nil), d.failed...)
	d.mu.Unlock()

	// A drain must leave the scheduler empty so the next round starts
	// clean: reclaim whatever a cancelled (or fully killed) run left
	// behind. Cancelled leftovers are merely skipped; leftovers with no
	// surviving node are failures.
	for _, node := range c.nodes {
		leftover := c.Sched.Reclaim(node)
		if len(leftover) == 0 {
			continue
		}
		if st.Cancelled {
			st.Skipped += len(leftover)
			continue
		}
		for _, u := range leftover {
			st.Failed = append(st.Failed, UnitError{
				UnitID: u.ID, RuleID: u.RuleID, Part: u.Part,
				Node: node, Attempts: 0, Err: errNoSurvivor,
			})
		}
	}
	if st.Cancelled && c.reg != nil {
		c.reg.Inc(c.prefix + ".cancelled")
	}

	st.Steals = c.Sched.Steals() - stealsBefore
	return st
}

// workerLoop is one node's work manager for the duration of a drain.
func (c *Cluster) workerLoop(node string, d *drainRun, opts Options) {
	d.mu.Lock()
	for {
		if d.cancelled || d.outstanding == 0 || d.dead[node] {
			d.mu.Unlock()
			return
		}
		// Poll the context before taking each unit: a context that is
		// only polled, never closing Done, still stops the drain between
		// units.
		if d.ctx.Err() != nil {
			d.cancelled = true
			d.bumpLocked()
			d.mu.Unlock()
			return
		}
		v := d.version
		d.mu.Unlock()
		u := c.Sched.Next(node, opts.Steal)
		if u == nil {
			d.mu.Lock()
			// Sleep only if nothing changed since the queues looked
			// empty; a version bump in between may have re-queued work.
			if d.version == v && !d.cancelled && d.outstanding > 0 && !d.dead[node] {
				d.cond.Wait()
			}
			continue
		}
		c.runOne(node, u, d, opts)
		d.mu.Lock()
	}
}

// runOne executes a single unit with panic isolation and drives the
// retry/reassignment policy on failure.
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
		d.perNode[node]++
		d.outstanding--
		d.bumpLocked()
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
	d.panics++
	d.attempts[u]++
	attempt := d.attempts[u]
	d.mu.Unlock()
	// node is alive: a node is only killed after a unit it completed.
	avoid, failed := Retry(d.ctx, opts, u, node, attempt, err, func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return len(d.dead) < len(c.nodes)-1
	})
	if failed != nil {
		d.mu.Lock()
		d.failed = append(d.failed, *failed)
		d.outstanding--
		d.bumpLocked()
		d.mu.Unlock()
		if c.reg != nil {
			c.reg.Inc(c.prefix + ".unit_failures")
		}
		return
	}
	if c.reg != nil {
		c.reg.Inc(c.prefix + ".retries")
	}
	// A cancelled wait still requeues the unit: the drain's leftover
	// reclaim counts it as Skipped.
	d.mu.Lock()
	d.retries++
	exclude := d.deadSetLocked()
	d.mu.Unlock()
	if avoid != "" {
		exclude[avoid] = true
	}
	target := c.Sched.AssignExcluding(u, exclude)
	d.mu.Lock()
	if target != node {
		d.reassigned++
	}
	d.bumpLocked()
	d.mu.Unlock()
	if c.reg != nil && target != node {
		c.reg.Inc(c.prefix + ".reassigned")
	}
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

// deadSetLocked copies the dead-node set (d.mu held) for AssignExcluding.
func (d *drainRun) deadSetLocked() map[string]bool {
	ex := make(map[string]bool, len(d.dead)+1)
	for n := range d.dead {
		ex[n] = true
	}
	return ex
}

// killNode marks a node dead mid-drain (fault injection), reclaims its
// pending queue, and re-homes the orphaned units on the survivors.
func (c *Cluster) killNode(node string, d *drainRun) {
	d.mu.Lock()
	if d.dead[node] {
		d.mu.Unlock()
		return
	}
	d.dead[node] = true
	d.killed = append(d.killed, node)
	exclude := d.deadSetLocked()
	d.bumpLocked()
	d.mu.Unlock()
	if c.reg != nil {
		c.reg.Inc(c.prefix + ".node_killed")
	}
	orphans := c.Sched.Reclaim(node)
	moved := 0
	for _, o := range orphans {
		if target := c.Sched.AssignExcluding(o, exclude); target != node {
			moved++
		}
	}
	if moved > 0 {
		d.mu.Lock()
		d.reassigned += moved
		d.bumpLocked()
		d.mu.Unlock()
		if c.reg != nil {
			c.reg.Add(c.prefix+".reassigned", uint64(moved))
		}
	}
}
