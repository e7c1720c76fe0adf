package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
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
	// drained rounds).
	Logf func(format string, args ...any)
}

// heartbeatTimeout is how long a worker connection may stay silent (no
// heartbeat, ack or result) before the coordinator declares it dead:
// five worker heartbeat intervals.
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

// replyKey names the one reply a worker connection awaits: a round's ack
// (unit 0), or one unit's result in a round.
type replyKey struct {
	typ         msgType
	round, unit int
}

// workerConn is one connected worker process. It has at most one request
// in flight: the round preamble, or one unit.
type workerConn struct {
	name    string
	meta    string // worker-supplied identity from the hello (e.g. its PID)
	conn    net.Conn
	writeMu sync.Mutex    // WriteFrame is a single Write, but serialize anyway
	lost    chan struct{} // closed by the reader when the connection dies
	alive   bool          // under the coordinator's mu

	mu    sync.Mutex
	key   replyKey
	reply chan envelope // nil when no reply is awaited
}

// send writes one encoded envelope as a frame. A failed write closes the
// connection, so the reader reports the worker lost.
func (w *workerConn) send(payload []byte) {
	w.writeMu.Lock()
	defer w.writeMu.Unlock()
	if WriteFrame(w.conn, payload) != nil {
		w.conn.Close()
	}
}

// expect registers key as the reply this connection awaits and returns
// the channel the reader delivers it on.
func (w *workerConn) expect(key replyKey) chan envelope {
	ch := make(chan envelope, 1)
	w.mu.Lock()
	w.key, w.reply = key, ch
	w.mu.Unlock()
	return ch
}

// deliver hands env to the awaited reply if key is the one awaited, once;
// anything else — an unknown unit, a stale round, a duplicate — is
// dropped.
func (w *workerConn) deliver(key replyKey, env envelope) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.reply != nil && key == w.key {
		w.reply <- env
		w.reply = nil
	}
}

// wait returns the reply, cluster.ErrNodeLost when the worker dies
// first, or ctx's error when it is cancelled first.
func (w *workerConn) wait(ctx context.Context, reply chan envelope) (envelope, error) {
	select {
	case env := <-reply:
		return env, nil
	case <-w.lost:
		return envelope{}, cluster.ErrNodeLost
	case <-ctx.Done():
		return envelope{}, ctx.Err()
	}
}

// Coordinator owns the truth ledger side of a distributed chase: it
// accepts worker connections, runs the round barrier (BeginRound), drains
// each round's work units over the live workers through cluster's one
// scheduler — one unit in flight per worker, costliest first — and hands
// each deduction buffer to the round's sink as it arrives. A worker that
// dies with a unit in flight is dropped and its unit runs on a survivor.
// It implements both cluster.Runner and chase.DistRunner — hand it to
// rock.Options.Cluster (or Pipeline.SetCluster) and the engine schedules
// rounds on it instead of the in-process pool.
type Coordinator struct {
	opts CoordOptions
	ln   net.Listener
	pool cluster.Cluster // the drain

	mu      sync.Mutex
	workers map[string]*workerConn
	order   []string // names in connection order ("worker-0".."worker-N-1")

	// round and sink are the current round's, set by BeginRound before
	// its drain starts the goroutines that read them.
	round int
	sink  func(chase.UnitOutcome, error)

	reg    *obs.Registry
	prefix string
}

// NewCoordinator creates an unstarted coordinator.
func NewCoordinator(opts CoordOptions) *Coordinator {
	opts = opts.withDefaults()
	return &Coordinator{opts: opts, workers: make(map[string]*workerConn)}
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
		w := &workerConn{name: name, meta: meta, conn: conn, lost: make(chan struct{}), alive: true}
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

// reader routes one worker's replies to the request awaiting them. The
// read deadline doubles as the heartbeat monitor: workers heartbeat every
// heartbeatInterval, so a connection silent for heartbeatTimeout is a
// dead process (SIGKILL produces EOF/RST even sooner).
func (c *Coordinator) reader(w *workerConn) {
	for {
		w.conn.SetReadDeadline(time.Now().Add(heartbeatTimeout))
		env, err := readMsg(w.conn, DefaultMaxFrame)
		if err != nil {
			c.markDead(w)
			return
		}
		switch {
		case env.Type == mtResult && env.Result != nil:
			w.deliver(replyKey{mtResult, env.Result.Round, env.Result.Outcome.Unit}, env)
		case env.Type == mtRoundAck && env.RAck != nil:
			w.deliver(replyKey{mtRoundAck, env.RAck.Round, 0}, env)
		}
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

// markDead retires a worker whose connection failed: it is no longer
// live, and whatever awaits its reply sees it lost. Only the worker's
// reader calls it, once.
func (c *Coordinator) markDead(w *workerConn) {
	c.mu.Lock()
	died := w.alive // false after Close: a shutdown, not a death
	w.alive = false
	c.mu.Unlock()
	w.conn.Close()
	close(w.lost)
	if died {
		if c.reg != nil {
			c.reg.Counter(c.prefix + ".remote.worker_deaths").Inc()
		}
		c.opts.Logf("remote: %s declared dead", w.name)
	}
}

// --- cluster.Runner ---

var _ cluster.Runner = (*Coordinator)(nil)

// SetObs wires drain counters into the registry.
func (c *Coordinator) SetObs(reg *obs.Registry, prefix string) {
	c.reg, c.prefix = reg, prefix
	c.pool.SetObs(reg, prefix)
}

// --- chase.DistRunner ---

// BeginRound ships the round preamble to every live worker and
// collects their acks, and makes sink the round's: the drain hands it
// every outcome a worker returns. An ack error or unit-count mismatch
// means a replica diverged and aborts the run; a worker death during the
// barrier is tolerated while survivors remain.
func (c *Coordinator) BeginRound(ctx context.Context, pre chase.RoundPreamble, sink func(chase.UnitOutcome, error)) error {
	c.round, c.sink = pre.Round, sink

	payload, err := encodeMsg(envelope{Type: mtRound, Round: &pre})
	if err != nil {
		return err
	}
	live := c.liveWorkers()
	replies := make([]chan envelope, len(live))
	for i, w := range live {
		replies[i] = w.expect(replyKey{mtRoundAck, pre.Round, 0})
		w.send(payload)
	}
	acked := 0
	for i, w := range live {
		env, err := w.wait(ctx, replies[i])
		if errors.Is(err, cluster.ErrNodeLost) {
			continue
		}
		if err != nil {
			return err
		}
		if ack := env.RAck; ack.Err != "" {
			return fmt.Errorf("remote: round %d: %s rejected preamble: %s", pre.Round, w.name, ack.Err)
		} else if ack.Units != pre.Units {
			return fmt.Errorf("remote: round %d: %s derived %d units, coordinator has %d (replica diverged)",
				pre.Round, w.name, ack.Units, pre.Units)
		}
		acked++
	}
	if acked == 0 {
		return fmt.Errorf("remote: round %d: no live workers", pre.Round)
	}
	return nil
}

// DrainWithStats drains units over the live workers through cluster's
// scheduler (Cluster.DrainOn): each worker runs one unit at a time,
// taking the costliest one left, so kill, retry, cancel and Skipped
// accounting are the in-process pool's. A unit's Run closure is never
// invoked: a worker replica runs it, addressed by the unit's ID (its
// index in the round's deterministic work list). A unit whose worker
// died in flight goes back on the list; one that panicked on its worker
// is retried or given up by the pool's retry policy.
func (c *Coordinator) DrainWithStats(ctx context.Context, units []*crystal.WorkUnit, opts cluster.Options) cluster.DrainStats {
	live := c.liveWorkers()
	nodes := make([]string, len(live))
	byName := make(map[string]*workerConn, len(live))
	for i, w := range live {
		nodes[i] = w.name
		byName[w.name] = w
	}
	st := c.pool.DrainOn(ctx, nodes, units, func(ctx context.Context, node string, u *crystal.WorkUnit) error {
		return c.runOn(ctx, byName[node], u)
	}, opts)
	c.opts.Logf("remote: round %d drained: per-node %v, retries %d, killed %v",
		c.round, st.PerNode, st.Retries, st.Killed)
	return st
}

// runOn sends unit u to worker w and waits for its result, w's death or
// cancellation. A completed unit's outcome goes to the round's sink.
func (c *Coordinator) runOn(ctx context.Context, w *workerConn, u *crystal.WorkUnit) error {
	payload, err := encodeMsg(envelope{Type: mtAssign, Assign: &assignMsg{Round: c.round, Units: []int{u.ID}}})
	if err != nil {
		return err
	}
	reply := w.expect(replyKey{mtResult, c.round, u.ID})
	w.send(payload)
	env, err := w.wait(ctx, reply)
	if err != nil {
		return err
	}
	if env.Result.Err != "" {
		return errors.New(env.Result.Err)
	}
	out := env.Result.Outcome
	out.Node = w.name
	c.sink(out, nil)
	if c.reg != nil {
		c.reg.Counter(c.prefix + ".remote.results").Inc()
	}
	return nil
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
