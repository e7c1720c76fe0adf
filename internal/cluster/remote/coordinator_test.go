package remote

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rockclean/rock/internal/chase"
	"github.com/rockclean/rock/internal/cluster"
	"github.com/rockclean/rock/internal/crystal"
)

// panicFollower is a replica whose unit 0 panics on its first `panics`
// attempts (every attempt when panics < 0); other units succeed, after
// delay when it is set.
type panicFollower struct {
	panics   int64
	delay    time.Duration
	attempts atomic.Int64
	mu       sync.Mutex
	failedOn []string // nodes unit 0 panicked on
}

func (f *panicFollower) FollowRound(pre chase.RoundPreamble) (int, error) { return pre.Units, nil }

func (f *panicFollower) RunFollowUnit(_ context.Context, i int, node string) (chase.UnitOutcome, error) {
	if i == 0 {
		if n := f.attempts.Add(1); f.panics < 0 || n <= f.panics {
			f.mu.Lock()
			f.failedOn = append(f.failedOn, node)
			f.mu.Unlock()
			panic("unit 0 fails")
		}
	}
	time.Sleep(f.delay)
	return chase.UnitOutcome{Unit: i, Valuations: 1}, nil
}

// drainOnLoopback runs one round of units over two in-process workers
// through a real loopback coordinator, and returns the drain's stats, the
// outcomes its sink received (in unit order) and how long the drain
// took. Each fake, given the address and
// the fingerprint, speaks the protocol in place of one worker; the other
// workers serve f. cancelAfter, when positive, cancels the drain's
// context that long after the drain starts.
func drainOnLoopback(t *testing.T, f *panicFollower, units int, opts cluster.Options, cancelAfter time.Duration, fakes ...func(addr, fp string)) (cluster.DrainStats, []chase.UnitOutcome, time.Duration) {
	t.Helper()
	const fp = "retry-test"
	coord := NewCoordinator(CoordOptions{Addr: "127.0.0.1:0", Workers: 2, Fingerprint: fp})
	addr, err := coord.Start()
	if err != nil {
		t.Fatal(err)
	}
	var workers sync.WaitGroup
	for i := 0; i < 2; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			if i < len(fakes) {
				fakes[i](addr, fp)
				return
			}
			if err := RunWorker(context.Background(), f, WorkerOptions{Coord: addr, Fingerprint: fp}); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	defer func() {
		coord.Close()
		workers.Wait()
	}()
	if err := coord.WaitWorkers(context.Background()); err != nil {
		t.Fatal(err)
	}
	var got outcomes
	if err := coord.BeginRound(context.Background(), chase.RoundPreamble{Round: 1, Units: units}, got.sink); err != nil {
		t.Fatal(err)
	}
	list := make([]*crystal.WorkUnit, units)
	for i := range list {
		list[i] = &crystal.WorkUnit{ID: i, RuleID: "r", Part: fmt.Sprintf("p%d/b", i), EstCost: 1}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if cancelAfter > 0 {
		time.AfterFunc(cancelAfter, cancel)
	}
	start := time.Now()
	st := coord.DrainWithStats(ctx, list, opts)
	return st, got.sorted(), time.Since(start)
}

// outcomes records every outcome a round's sink is handed.
type outcomes struct {
	mu   sync.Mutex
	list []chase.UnitOutcome
}

func (o *outcomes) sink(out chase.UnitOutcome, _ error) {
	o.mu.Lock()
	o.list = append(o.list, out)
	o.mu.Unlock()
}

// sorted returns the outcomes in unit order.
func (o *outcomes) sorted() []chase.UnitOutcome {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := slices.Clone(o.list)
	slices.SortFunc(out, func(a, b chase.UnitOutcome) int { return a.Unit - b.Unit })
	return out
}

// TestCoordinatorRetryPolicy pins the coordinator to the retry policy of
// the in-process pool, whose drain it shares: a panicked unit retries on
// another worker, a unit that always panics is given up after
// MaxRetries+1 attempts, and the retry backoff yields to cancellation.
func TestCoordinatorRetryPolicy(t *testing.T) {
	t.Run("retries on the other worker", func(t *testing.T) {
		f := &panicFollower{panics: 1}
		st, outs, _ := drainOnLoopback(t, f, 6, cluster.Options{MaxRetries: 2, RetryBackoff: time.Millisecond}, 0)
		if st.Panics != 1 || st.Retries != 1 || st.Reassigned != 1 || len(st.Failed) != 0 {
			t.Fatalf("Panics/Retries/Reassigned/Failed = %d/%d/%d/%d, want 1/1/1/0", st.Panics, st.Retries, st.Reassigned, len(st.Failed))
		}
		if len(outs) != 6 || outs[0].Unit != 0 {
			t.Fatalf("want all 6 outcomes, unit 0 first; got %d", len(outs))
		}
		if outs[0].Node == f.failedOn[0] {
			t.Errorf("unit 0 retried on %s, the worker it panicked on", outs[0].Node)
		}
	})
	t.Run("gives up after MaxRetries+1 attempts", func(t *testing.T) {
		const maxRetries = 2
		st, outs, _ := drainOnLoopback(t, &panicFollower{panics: -1}, 4, cluster.Options{MaxRetries: maxRetries}, 0)
		if len(st.Failed) != 1 {
			t.Fatalf("want one UnitError, got %v", st.Failed)
		}
		if ue := st.Failed[0]; ue.UnitID != 0 || ue.Attempts != maxRetries+1 || ue.Err == nil {
			t.Errorf("UnitError = %+v, want unit 0 after %d attempts", ue, maxRetries+1)
		}
		if st.Panics != maxRetries+1 || st.Retries != maxRetries {
			t.Errorf("Panics/Retries = %d/%d, want %d/%d", st.Panics, st.Retries, maxRetries+1, maxRetries)
		}
		if len(outs) != 3 {
			t.Errorf("the 3 healthy units must still complete: %d outcomes", len(outs))
		}
	})
	t.Run("backoff yields to cancellation", func(t *testing.T) {
		f := &panicFollower{panics: -1}
		st, _, took := drainOnLoopback(t, f, 4, cluster.Options{MaxRetries: 5, RetryBackoff: 30 * time.Second}, 50*time.Millisecond)
		if !st.Cancelled {
			t.Errorf("drain not marked cancelled: %+v", st)
		}
		if took > 5*time.Second {
			t.Fatalf("cancelled drain took %v; the retry backoff ignored cancellation", took)
		}
		if f.attempts.Load() == 0 {
			t.Error("unit 0 never ran — no backoff was entered, the test proved nothing")
		}
	})
}

// TestCoordinatorIgnoresUnknownUnit has a worker report a failed result
// for a unit the round never had, a completed one for an index past the
// round's units, and every real result twice: the coordinator must drop
// the bogus ones rather than look the unit up to retry it or hand it to
// the sink, and keep one outcome per unit.
func TestCoordinatorIgnoresUnknownUnit(t *testing.T) {
	const fp = "unknown-unit"
	coord := NewCoordinator(CoordOptions{Addr: "127.0.0.1:0", Workers: 1, Fingerprint: fp})
	addr, err := coord.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	go func() { // a worker that answers every assignment with one bogus result first, then each result twice
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer conn.Close()
		writeMsg(conn, envelope{Type: mtHello, Hello: &helloMsg{Fingerprint: fp}})
		for {
			env, err := readMsg(conn, 0)
			if err != nil {
				return
			}
			switch {
			case env.Round != nil:
				writeMsg(conn, envelope{Type: mtRoundAck, RAck: &roundAckMsg{Round: env.Round.Round, Units: env.Round.Units}})
			case env.Assign != nil:
				r := env.Assign.Round
				writeMsg(conn, envelope{Type: mtResult, Result: &resultMsg{Round: r, Err: "bogus", Outcome: chase.UnitOutcome{Unit: 999}}})
				writeMsg(conn, envelope{Type: mtResult, Result: &resultMsg{Round: r, Outcome: chase.UnitOutcome{Unit: 2}}})
				for _, u := range env.Assign.Units {
					for range 2 {
						writeMsg(conn, envelope{Type: mtResult, Result: &resultMsg{Round: r, Outcome: chase.UnitOutcome{Unit: u}}})
					}
				}
			}
		}
	}()
	if err := coord.WaitWorkers(context.Background()); err != nil {
		t.Fatal(err)
	}
	var got outcomes
	if err := coord.BeginRound(context.Background(), chase.RoundPreamble{Round: 1, Units: 2}, got.sink); err != nil {
		t.Fatal(err)
	}
	list := make([]*crystal.WorkUnit, 2)
	for i := range list {
		list[i] = &crystal.WorkUnit{ID: i, RuleID: "r", Part: fmt.Sprintf("p%d/b", i)}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st := coord.DrainWithStats(ctx, list, cluster.Options{MaxRetries: 1})
	if outs := got.sorted(); st.Cancelled || st.Panics != 0 || len(st.Failed) != 0 || len(outs) != 2 {
		t.Fatalf("drain = %+v with %d outcomes; want the 2 real units and the bogus one dropped", st, len(outs))
	}
	for i, out := range got.sorted() {
		if out.Unit != i {
			t.Errorf("outcome %d is unit %d: an index outside the round reached the sink", i, out.Unit)
		}
	}
}

// TestCoordinatorReRunsUnitOfLostWorker: a worker that takes one unit and
// closes its connection with the unit in flight is dropped, and the unit
// runs on the survivor — no attempt counted, no UnitError, one outcome
// per unit.
func TestCoordinatorReRunsUnitOfLostWorker(t *testing.T) {
	const units = 6
	lost := make(chan string, 1)
	fake := func(addr, fp string) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer conn.Close()
		writeMsg(conn, envelope{Type: mtHello, Hello: &helloMsg{Fingerprint: fp}})
		ack, err := readMsg(conn, 0)
		if err != nil || ack.Ack == nil {
			return
		}
		for {
			env, err := readMsg(conn, 0)
			if err != nil {
				return
			}
			switch {
			case env.Round != nil:
				writeMsg(conn, envelope{Type: mtRoundAck, RAck: &roundAckMsg{Round: env.Round.Round, Units: env.Round.Units}})
			case env.Assign != nil:
				lost <- ack.Ack.Name
				return
			}
		}
	}
	// The survivor's units take 10 ms, so the fake is sure to take one.
	st, outs, _ := drainOnLoopback(t, &panicFollower{delay: 10 * time.Millisecond}, units, cluster.Options{MaxRetries: 1}, 0, fake)
	var name string
	select {
	case name = <-lost:
	default:
		t.Fatal("the fake worker never took a unit; the test proved nothing")
	}
	if st.Panics != 0 || len(st.Failed) != 0 || !slices.Equal(st.Killed, []string{name}) {
		t.Fatalf("Panics/Failed/Killed = %d/%v/%v, want 0/[]/[%s]", st.Panics, st.Failed, st.Killed, name)
	}
	if len(outs) != units {
		t.Fatalf("%d outcomes, want one per unit (%d)", len(outs), units)
	}
	for i, out := range outs {
		if out.Unit != i || out.Node == name {
			t.Errorf("outcome %d: unit %d on %s, want unit %d on the survivor", i, out.Unit, out.Node, i)
		}
	}
}

// TestCancelledRemoteDrainReturnsPromptly: cancelling a drain whose units
// are in flight on the workers returns at once rather than waiting for
// their results, accounts for every unit, and leaves no goroutine behind
// once the coordinator is closed.
func TestCancelledRemoteDrainReturnsPromptly(t *testing.T) {
	before := runtime.NumGoroutine()
	const units = 8
	// The coordinator closes while the workers are mid-unit, so their
	// result sends fail: run them as fakes that ignore RunWorker's error.
	f := &panicFollower{delay: time.Second}
	worker := func(addr, fp string) { RunWorker(context.Background(), f, WorkerOptions{Coord: addr, Fingerprint: fp}) }
	st, outs, took := drainOnLoopback(t, f, units, cluster.Options{}, 50*time.Millisecond, worker, worker)
	if !st.Cancelled || st.Skipped == 0 {
		t.Errorf("Cancelled/Skipped = %v/%d, want a cancelled drain that skipped units", st.Cancelled, st.Skipped)
	}
	if took > 500*time.Millisecond {
		t.Errorf("cancelled drain took %v; it waited for the units in flight", took)
	}
	if len(outs)+st.Skipped != units {
		t.Errorf("outcomes (%d) + skipped (%d) != %d units", len(outs), st.Skipped, units)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
