package remote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"github.com/rockclean/rock/internal/chase"
)

// Follower is the engine surface a worker process drives: round
// preparation (journal replay + unit derivation) and on-demand unit
// execution. *chase.Engine implements it; rock.Pipeline.FollowerEngine
// builds one from the same deterministic pipeline as the coordinator.
type Follower interface {
	FollowRound(pre chase.RoundPreamble) (int, error)
	RunFollowUnit(ctx context.Context, i int, node string) (chase.UnitOutcome, error)
}

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Coord is the coordinator's TCP address.
	Coord string
	// Fingerprint must match the coordinator's (see CoordOptions).
	Fingerprint string
	// DialTimeout is the total budget for connecting (individual dials
	// are retried until it elapses — the coordinator may not be listening
	// yet when the worker process launches). Default 30s.
	DialTimeout time.Duration
	// Meta is an identity string sent in the hello and readable on the
	// coordinator via WorkerMeta — cmd/rockworker sends its PID so
	// fault-injection hooks can SIGKILL the real process.
	Meta string
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// heartbeatInterval is how often a worker signals liveness, well under
// the coordinator's heartbeatTimeout.
const heartbeatInterval = time.Second

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 30 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// RunWorker connects the engine replica to the coordinator and serves
// rounds until the coordinator closes the connection (normal
// shutdown), the context is cancelled, or a protocol error occurs. It
// is the whole main loop of a worker process (cmd/rockworker).
func RunWorker(ctx context.Context, eng Follower, opts WorkerOptions) error {
	opts = opts.withDefaults()
	conn, err := dialRetry(ctx, opts.Coord, opts.DialTimeout)
	if err != nil {
		return err
	}
	defer conn.Close()

	// Handshake: prove this replica was built from the same inputs.
	var writeMu sync.Mutex
	send := func(env envelope) error {
		writeMu.Lock()
		defer writeMu.Unlock()
		return writeMsg(conn, env)
	}
	if err := send(envelope{Type: mtHello, Hello: &helloMsg{Fingerprint: opts.Fingerprint, Name: opts.Meta}}); err != nil {
		return fmt.Errorf("remote: sending hello: %w", err)
	}
	conn.SetReadDeadline(time.Now().Add(opts.DialTimeout))
	env, err := readMsg(conn, DefaultMaxFrame)
	if err != nil {
		return fmt.Errorf("remote: reading hello ack: %w", err)
	}
	conn.SetReadDeadline(time.Time{})
	if env.Type != mtHelloAck || env.Ack == nil {
		return fmt.Errorf("remote: expected hello_ack, got %q", env.Type)
	}
	if env.Ack.Err != "" {
		return fmt.Errorf("remote: coordinator rejected worker: %s", env.Ack.Err)
	}
	name := env.Ack.Name
	opts.Logf("remote: joined as %s", name)

	// Heartbeats keep the coordinator's read deadline from firing while
	// the worker sits idle between rounds or grinds a long unit.
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go func() {
		t := time.NewTicker(heartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				if send(envelope{Type: mtHeartbeat}) != nil {
					return
				}
			}
		}
	}()

	// Cancellation: unblock the read loop by closing the connection.
	go func() {
		<-hbCtx.Done()
		conn.Close()
	}()

	for {
		env, err := readMsg(conn, DefaultMaxFrame)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if peerClosed(err) {
				return nil // coordinator closed the run: normal shutdown
			}
			return fmt.Errorf("remote: %s read: %w", name, err)
		}
		switch env.Type {
		case mtRound:
			pre := env.Round
			if pre == nil {
				return fmt.Errorf("remote: %s: round message without a preamble", name)
			}
			units, ferr := eng.FollowRound(*pre)
			ack := roundAckMsg{Round: pre.Round, Units: units}
			if ferr != nil {
				ack.Err = ferr.Error()
			}
			if err := send(envelope{Type: mtRoundAck, RAck: &ack}); err != nil {
				if peerClosed(err) {
					return nil
				}
				return fmt.Errorf("remote: %s sending round ack: %w", name, err)
			}
			opts.Logf("remote: %s round %d: %d units", name, pre.Round, units)
		case mtAssign:
			if env.Assign == nil {
				return fmt.Errorf("remote: %s: assign message without units", name)
			}
			for _, i := range env.Assign.Units {
				res := runShielded(ctx, eng, i, name)
				res.Round = env.Assign.Round
				if err := send(envelope{Type: mtResult, Result: &res}); err != nil {
					if peerClosed(err) {
						return nil
					}
					return fmt.Errorf("remote: %s sending result: %w", name, err)
				}
			}
		default:
			// Unknown types are ignored for forward compatibility.
		}
	}
}

// peerClosed reports that a read or write failed because the coordinator
// closed the connection: end of stream, a closed socket, or a write the
// peer's close refused (EPIPE) or reset (ECONNRESET). The coordinator
// closes deliberately once a run ends, even with a unit in flight.
func peerClosed(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ECONNRESET)
}

// runShielded executes one unit under a recover() shield so a
// panicking rule takes down the unit, not the worker process — the
// coordinator then retries it elsewhere, mirroring the in-process
// pool's panic recovery.
func runShielded(ctx context.Context, eng Follower, i int, node string) (res resultMsg) {
	res.Outcome.Unit = i
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Sprintf("unit %d panicked: %v", i, r)
		}
	}()
	out, err := eng.RunFollowUnit(ctx, i, node)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Outcome = out
	return res
}

// dialRetry dials the coordinator, retrying until the budget elapses —
// worker processes routinely start before the coordinator binds.
func dialRetry(ctx context.Context, addr string, budget time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(budget)
	var lastErr error
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d := net.Dialer{Timeout: time.Second}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
	return nil, fmt.Errorf("remote: dial %s: budget exhausted: %w", addr, lastErr)
}
