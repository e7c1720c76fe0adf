package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"github.com/rockclean/rock/internal/chase"
	"github.com/rockclean/rock/internal/cluster"
	"github.com/rockclean/rock/internal/crystal"
	"github.com/rockclean/rock/internal/obs"
)

// CoordOptions configures a Coordinator.
type CoordOptions struct {
	// Addr is the TCP listen address; ":0" picks a free port (read the
	// bound address back with Addr() after Start).
	Addr string
	// Workers is the number of worker processes expected to connect.
	Workers int
	// Fingerprint digests this process's replica inputs; workers whose
	// hello carries a different fingerprint are rejected.
	Fingerprint string
	// AcceptTimeout bounds WaitWorkers. Default 30s.
	AcceptTimeout time.Duration
	// Logf, when set, receives progress lines (worker joins, deaths,
	// reassignments).
	Logf func(format string, args ...any)
}

// heartbeatTimeout is how long a worker connection may stay silent (no
// heartbeat, ack or result) before the coordinator declares it dead and
// redistributes its queue: five worker heartbeat intervals.
const heartbeatTimeout = 5 * heartbeatInterval

func (o CoordOptions) withDefaults() CoordOptions {
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.AcceptTimeout <= 0 {
		o.AcceptTimeout = 30 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// event is one message (or death notice) from a worker's reader
// goroutine, serialized onto the coordinator's event channel.
type event struct {
	node string
	env  envelope
	err  error // non-nil: the connection died (EOF, reset, heartbeat timeout)
}

// workerConn is one connected worker process.
type workerConn struct {
	name    string
	meta    string // worker-supplied identity from the hello (e.g. its PID)
	conn    net.Conn
	writeMu sync.Mutex // WriteFrame is a single Write, but serialize anyway
	alive   bool
}

// send writes one encoded envelope as a frame.
func (w *workerConn) send(payload []byte) error {
	w.writeMu.Lock()
	defer w.writeMu.Unlock()
	return WriteFrame(w.conn, payload)
}

// Coordinator owns the truth ledger side of a distributed chase: it
// accepts worker connections, runs the round barrier (BeginRound),
// splits each round's work units evenly over the workers, collects
// deduction buffers, and survives worker deaths by redistributing
// their queues. It implements both cluster.Runner and chase.DistRunner
// — hand it to rock.Options.Cluster (or Pipeline.SetCluster) and the
// engine schedules rounds on it instead of the in-process pool.
type Coordinator struct {
	opts CoordOptions
	ln   net.Listener

	mu      sync.Mutex
	workers map[string]*workerConn
	order   []string // names in connection order ("worker-0".."worker-N-1")

	events chan event

	round    int
	units    map[int]*crystal.WorkUnit // Submit buffer for the current round
	outcomes []chase.UnitOutcome

	reg    *obs.Registry
	prefix string
}

// NewCoordinator creates an unstarted coordinator.
func NewCoordinator(opts CoordOptions) *Coordinator {
	opts = opts.withDefaults()
	return &Coordinator{
		opts:    opts,
		workers: make(map[string]*workerConn),
		events:  make(chan event, 256),
		units:   make(map[int]*crystal.WorkUnit),
	}
}

// Start binds the listener and returns the bound address — call it
// before launching workers so ":0" deployments can hand the real
// address to the worker processes.
func (c *Coordinator) Start() (string, error) {
	ln, err := net.Listen("tcp", c.opts.Addr)
	if err != nil {
		return "", fmt.Errorf("remote: listen %s: %w", c.opts.Addr, err)
	}
	c.ln = ln
	return ln.Addr().String(), nil
}

// Addr returns the bound listen address ("" before Start).
func (c *Coordinator) Addr() string {
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// WaitWorkers accepts connections until the expected worker count is
// reached, verifying each hello's fingerprint and assigning names in
// connection order. It must complete before the coordinator is handed
// to the engine.
func (c *Coordinator) WaitWorkers(ctx context.Context) error {
	if c.ln == nil {
		if _, err := c.Start(); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(c.opts.AcceptTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	for i := 0; i < c.opts.Workers; i++ {
		if tl, ok := c.ln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
		conn, err := c.ln.Accept()
		if err != nil {
			return fmt.Errorf("remote: accepting worker %d/%d: %w", i, c.opts.Workers, err)
		}
		name := fmt.Sprintf("worker-%d", i)
		meta, err := c.handshake(conn, name, deadline)
		if err != nil {
			conn.Close()
			return err
		}
		w := &workerConn{name: name, meta: meta, conn: conn, alive: true}
		c.mu.Lock()
		c.workers[name] = w
		c.order = append(c.order, name)
		c.mu.Unlock()
		go c.reader(w)
		c.opts.Logf("remote: %s joined from %s", name, conn.RemoteAddr())
	}
	return nil
}

func (c *Coordinator) handshake(conn net.Conn, name string, deadline time.Time) (string, error) {
	conn.SetDeadline(deadline)
	defer conn.SetDeadline(time.Time{})
	env, err := readMsg(conn, DefaultMaxFrame)
	if err != nil {
		return "", fmt.Errorf("remote: reading hello: %w", err)
	}
	if env.Type != mtHello || env.Hello == nil {
		return "", fmt.Errorf("remote: expected hello, got %q", env.Type)
	}
	if env.Hello.Fingerprint != c.opts.Fingerprint {
		writeMsg(conn, envelope{Type: mtHelloAck, Ack: &helloAckMsg{
			Err: fmt.Sprintf("fingerprint mismatch: coordinator %q, worker %q",
				c.opts.Fingerprint, env.Hello.Fingerprint),
		}})
		return "", fmt.Errorf("remote: worker fingerprint %q != coordinator %q",
			env.Hello.Fingerprint, c.opts.Fingerprint)
	}
	return env.Hello.Name, writeMsg(conn, envelope{Type: mtHelloAck, Ack: &helloAckMsg{Name: name}})
}

// WorkerMeta returns the identity string the named worker supplied in
// its hello (cmd/rockworker sends its PID — FaultInjector.ProcessKill
// hooks resolve the OS process to SIGKILL through it).
func (c *Coordinator) WorkerMeta(name string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.workers[name]; w != nil {
		return w.meta
	}
	return ""
}

// reader pumps one worker's messages onto the event channel. The read
// deadline doubles as the heartbeat monitor: workers heartbeat every
// heartbeatInterval, so a connection silent for heartbeatTimeout is a
// dead process (SIGKILL produces EOF/RST even sooner).
func (c *Coordinator) reader(w *workerConn) {
	for {
		w.conn.SetReadDeadline(time.Now().Add(heartbeatTimeout))
		env, err := readMsg(w.conn, DefaultMaxFrame)
		if err != nil {
			c.events <- event{node: w.name, err: err}
			return
		}
		if env.Type == mtHeartbeat {
			continue
		}
		c.events <- event{node: w.name, env: env}
	}
}

// liveWorkers returns the alive workers in connection order.
func (c *Coordinator) liveWorkers() []*workerConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*workerConn
	for _, name := range c.order {
		if w := c.workers[name]; w != nil && w.alive {
			out = append(out, w)
		}
	}
	return out
}

func (c *Coordinator) worker(name string) *workerConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.workers[name]
}

// markDead transitions a worker to dead (idempotent) and reports
// whether this call made the transition.
func (c *Coordinator) markDead(name string) bool {
	c.mu.Lock()
	w := c.workers[name]
	dead := w != nil && w.alive
	if dead {
		w.alive = false
	}
	c.mu.Unlock()
	if dead {
		w.conn.Close()
		if c.reg != nil {
			c.reg.Counter(c.prefix + ".remote.worker_deaths").Inc()
		}
		c.opts.Logf("remote: %s declared dead", name)
	}
	return dead
}

// --- cluster.Runner ---

var _ cluster.Runner = (*Coordinator)(nil)

// Submit buffers one work unit's metadata for the current round. The
// unit's Run closure is never invoked — execution happens on
// the worker replica, addressed by the unit's ID (its index in the
// round's deterministic work list).
func (c *Coordinator) Submit(u *crystal.WorkUnit) {
	c.units[u.ID] = u
}

// SetObs wires drain counters into the registry.
func (c *Coordinator) SetObs(reg *obs.Registry, prefix string) {
	c.reg, c.prefix = reg, prefix
}

// --- chase.DistRunner ---

// BeginRound ships the round preamble to every live worker and
// collects their acks. An ack error or unit-count mismatch means a
// replica diverged and aborts the run; a worker death during the
// barrier is tolerated while survivors remain.
func (c *Coordinator) BeginRound(ctx context.Context, pre chase.RoundPreamble) error {
	c.round = pre.Round
	c.units = make(map[int]*crystal.WorkUnit)
	c.outcomes = nil

	payload, err := encodeMsg(envelope{Type: mtRound, Round: &pre})
	if err != nil {
		return err
	}
	waiting := map[string]bool{}
	for _, w := range c.liveWorkers() {
		if err := w.send(payload); err != nil {
			c.markDead(w.name)
			continue
		}
		waiting[w.name] = true
	}
	if len(waiting) == 0 {
		return fmt.Errorf("remote: round %d: no live workers", pre.Round)
	}
	for len(waiting) > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case ev := <-c.events:
			if ev.err != nil {
				if c.markDead(ev.node) {
					delete(waiting, ev.node)
				}
				if len(c.liveWorkers()) == 0 {
					return fmt.Errorf("remote: round %d: all workers died during barrier (last: %s: %v)",
						pre.Round, ev.node, ev.err)
				}
				continue
			}
			if ev.env.Type != mtRoundAck || ev.env.RAck == nil {
				continue // stale result from a reassigned unit of the previous round
			}
			ack := ev.env.RAck
			if ack.Round != pre.Round {
				continue
			}
			if ack.Err != "" {
				return fmt.Errorf("remote: round %d: %s rejected preamble: %s", pre.Round, ev.node, ack.Err)
			}
			if ack.Units != pre.Units {
				return fmt.Errorf("remote: round %d: %s derived %d units, coordinator has %d (replica diverged)",
					pre.Round, ev.node, ack.Units, pre.Units)
			}
			delete(waiting, ev.node)
		}
	}
	return nil
}

// TakeResults returns the outcomes collected by the last drain, sorted
// by unit index (the serial generation order), and resets the buffer.
func (c *Coordinator) TakeResults() []chase.UnitOutcome {
	out := c.outcomes
	c.outcomes = nil
	sort.Slice(out, func(i, j int) bool { return out[i].Unit < out[j].Unit })
	return out
}

// DrainWithStats splits the submitted units over the live workers and
// consumes results until every unit is resolved, the context is
// cancelled, or no workers survive. Worker deaths — heartbeat timeouts,
// connection errors, or fault-injected kills — redistribute the dead
// worker's incomplete queue across survivors; a unit that panicked on
// its worker is retried or given up by cluster.Retry, as in the
// in-process pool.
func (c *Coordinator) DrainWithStats(ctx context.Context, opts cluster.Options) cluster.DrainStats {
	stats := cluster.DrainStats{PerNode: map[string]int{}, Queued: len(c.units)}

	ids := make([]int, 0, len(c.units))
	for id := range c.units {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	unitHome := map[int]string{} // unit ID -> current worker
	done := map[int]bool{}
	attempts := map[int]int{}
	live := c.liveWorkers()
	if len(live) == 0 {
		for _, id := range ids {
			u := c.units[id]
			stats.Failed = append(stats.Failed, cluster.UnitError{
				UnitID: id, RuleID: u.RuleID, Part: u.Part,
				Attempts: 0, Err: fmt.Errorf("no surviving worker"),
			})
		}
		return stats
	}
	// Live worker k (in connection order) gets the k-th contiguous chunk
	// of the sorted unit IDs. Every replica holds all the data, so
	// placement only decides which replica computes a buffer, never what
	// the buffer holds.
	chunk := (len(ids) + len(live) - 1) / len(live)
	for i, id := range ids {
		unitHome[id] = live[i/chunk].name
	}
	for k, w := range live {
		if us := ids[min(k*chunk, len(ids)):min((k+1)*chunk, len(ids))]; len(us) > 0 {
			if err := c.assign(w, us); err != nil {
				c.deadAndReassign(w.name, unitHome, done, &stats)
			}
		}
	}

	// Failed units are marked done when they are given up, so pending
	// counts exactly the units still awaiting a result.
	pending := func() int {
		n := 0
		for _, id := range ids {
			if !done[id] {
				n++
			}
		}
		return n
	}

	for pending() > 0 {
		// Cancellation wins over results already queued, so a drain that
		// was cancelled during a retry backoff stops at once.
		if ctx.Err() != nil {
			stats.Cancelled = true
			stats.Skipped = pending()
			return stats
		}
		select {
		case <-ctx.Done():
		case ev := <-c.events:
			if ev.err != nil {
				if c.markDead(ev.node) {
					stats.Killed = append(stats.Killed, ev.node)
					c.reassignFrom(ev.node, unitHome, done, &stats)
				}
				continue
			}
			if ev.env.Type != mtResult || ev.env.Result == nil {
				continue
			}
			res := ev.env.Result
			out := res.Outcome
			if _, ok := c.units[out.Unit]; !ok || res.Round != c.round || done[out.Unit] {
				continue // unknown unit, stale round, or duplicate after a reassignment race
			}
			if res.Err != "" {
				attempts[out.Unit]++
				stats.Panics++
				c.retry(ctx, opts, out.Unit, ev.node, attempts[out.Unit], errors.New(res.Err), unitHome, done, &stats)
				continue
			}
			done[out.Unit] = true
			stats.PerNode[ev.node]++
			out.Node = ev.node
			c.outcomes = append(c.outcomes, out)
			if c.reg != nil {
				c.reg.Counter(c.prefix + ".remote.results").Inc()
			}
			// Fault injection: a scheduled kill on this node fires after the
			// unit count it was configured with. Real mode (ProcessKill set)
			// SIGKILLs the actual process inside ShouldDie and detection
			// happens the honest way — EOF/RST or heartbeat timeout on the
			// reader; simulated mode closes the connection here, which the
			// reader reports as a death through the same path.
			if opts.Faults != nil && opts.Faults.ShouldDie(ev.node) {
				if opts.Faults.ProcessKill == nil {
					if w := c.worker(ev.node); w != nil {
						w.conn.Close()
					}
				}
			}
		}
	}
	c.opts.Logf("remote: round %d drained: per-node %v, reassigned %d, killed %v",
		c.round, stats.PerNode, stats.Reassigned, stats.Killed)
	return stats
}

// assign sends w units of the current round to execute.
func (c *Coordinator) assign(w *workerConn, units []int) error {
	payload, err := encodeMsg(envelope{Type: mtAssign, Assign: &assignMsg{Round: c.round, Units: units}})
	if err != nil {
		return err
	}
	return w.send(payload)
}

// deadAndReassign marks a worker dead and moves its incomplete units.
func (c *Coordinator) deadAndReassign(name string, unitHome map[int]string, done map[int]bool, stats *cluster.DrainStats) {
	if c.markDead(name) {
		stats.Killed = append(stats.Killed, name)
		c.reassignFrom(name, unitHome, done, stats)
	}
}

// reassignFrom redistributes a dead worker's incomplete units across
// the survivors (round-robin in connection order); with no survivors
// the units are reported failed.
func (c *Coordinator) reassignFrom(deadNode string, unitHome map[int]string, done map[int]bool, stats *cluster.DrainStats) {
	var orphans []int
	for id, home := range unitHome {
		if home == deadNode && !done[id] {
			orphans = append(orphans, id)
		}
	}
	sort.Ints(orphans)
	if len(orphans) == 0 {
		return
	}
	live := c.liveWorkers()
	if len(live) == 0 {
		for _, id := range orphans {
			u := c.units[id]
			stats.Failed = append(stats.Failed, cluster.UnitError{
				UnitID: id, RuleID: u.RuleID, Part: u.Part, Node: deadNode,
				Err: fmt.Errorf("no surviving worker"),
			})
			done[id] = true
		}
		return
	}
	moved := map[string][]int{}
	for i, id := range orphans {
		w := live[i%len(live)]
		moved[w.name] = append(moved[w.name], id)
		unitHome[id] = w.name
	}
	for name, us := range moved {
		if err := c.assign(c.worker(name), us); err != nil {
			c.deadAndReassign(name, unitHome, done, stats)
			continue
		}
		stats.Reassigned += len(us)
		c.opts.Logf("remote: reassigned %d unit(s) from %s to %s", len(us), deadNode, name)
	}
	if c.reg != nil {
		c.reg.Counter(c.prefix + ".remote.reassigned").Add(uint64(len(orphans)))
	}
}

// retry settles a unit whose attempt-th attempt failed on failedOn by
// cluster.Retry, the policy the in-process pool applies too: the unit is
// given up, or re-sent to the first live worker (in connection order) the
// decision does not rule out. A worker the send fails on is dead, and its
// queue — the retried unit included — moves to the survivors.
func (c *Coordinator) retry(ctx context.Context, opts cluster.Options, unit int, failedOn string, attempt int, err error,
	unitHome map[int]string, done map[int]bool, stats *cluster.DrainStats) {
	u := c.units[unit]
	avoid, failed := cluster.Retry(ctx, opts, u, failedOn, attempt, err, func() bool {
		for _, w := range c.liveWorkers() {
			if w.name != failedOn {
				return true
			}
		}
		return false
	})
	var target *workerConn
	if failed == nil {
		for _, w := range c.liveWorkers() {
			if w.name != avoid {
				target = w
				break
			}
		}
	}
	if target == nil {
		if failed == nil {
			failed = &cluster.UnitError{UnitID: unit, RuleID: u.RuleID, Part: u.Part, Node: failedOn,
				Attempts: attempt, Err: fmt.Errorf("no surviving worker to retry on: %w", err)}
		}
		stats.Failed = append(stats.Failed, *failed)
		done[unit] = true
		return
	}
	stats.Retries++
	unitHome[unit] = target.name
	if target.name != failedOn {
		stats.Reassigned++
	}
	if err := c.assign(target, []int{unit}); err != nil {
		c.deadAndReassign(target.name, unitHome, done, stats)
	}
}

// Close tears down every worker connection and the listener; workers
// observe EOF and exit cleanly.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	for _, w := range c.workers {
		w.alive = false
		w.conn.Close()
	}
	c.mu.Unlock()
	if c.ln != nil {
		return c.ln.Close()
	}
	return nil
}
