// External test package: fault-tolerance behaviour of the chase —
// cooperative cancellation (partial reports, graceful degradation,
// resumability) and recovery from injected unit panics and node kills.
package chase_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rockclean/rock/internal/baselines"
	"github.com/rockclean/rock/internal/chase"
	"github.com/rockclean/rock/internal/cluster"
	"github.com/rockclean/rock/internal/crystal"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/internal/workload"
)

func logisticsBench(workers int) *baselines.Bench {
	return baselines.NewBench(workload.Logistics(workload.Config{N: 150, Seed: 11}), workers)
}

func faultOpts(b *baselines.Bench, workers int, parallel bool) chase.Options {
	opts := chase.DefaultOptions()
	opts.Workers = workers
	opts.Parallel = parallel
	opts.Oracle = b.GoldOracle()
	opts.EIDRefs = b.DS.EIDRefs
	return opts
}

// countdownCtx is a context whose Err flips to context.Canceled after a
// fixed number of polls — deterministic mid-run cancellation, unlike a
// timer. Done returns nil (never closes): the serial chase and the
// executor only poll Err, which is exactly the path under test.
type countdownCtx struct {
	context.Context
	remaining int64
}

func (c *countdownCtx) Err() error {
	if atomic.AddInt64(&c.remaining, -1) < 0 {
		return context.Canceled
	}
	return nil
}

func (c *countdownCtx) Done() <-chan struct{} { return nil }

// TestPreCancelledRunIsPartial: a context cancelled before RunCtx returns
// an empty partial report, not an error.
func TestPreCancelledRunIsPartial(t *testing.T) {
	b := logisticsBench(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := chase.New(b.Env, b.Rules, b.DS.Gamma, faultOpts(b, 4, true))
	rep, err := eng.RunCtx(ctx)
	if err != nil {
		t.Fatalf("cancelled run must degrade, not fail: %v", err)
	}
	if !rep.Partial {
		t.Fatal("cancelled run must report Partial")
	}
	if len(rep.Applied) != 0 {
		t.Fatalf("no round ran, yet %d fixes applied", len(rep.Applied))
	}
}

// TestCancelMidRunResumesToFullFixSet: cancelling after a bounded number
// of context polls yields a partial run whose accumulated certain fixes,
// used as the ground truth of a fresh engine, converge to the exact truth
// snapshot of an uninterrupted run.
func TestCancelMidRunResumesToFullFixSet(t *testing.T) {
	b := logisticsBench(1)

	clean := chase.New(b.Env, b.Rules, b.DS.Gamma, faultOpts(b, 1, false))
	cleanRep, err := clean.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := clean.Truth().Snapshot()

	sawPartial := false
	for _, polls := range []int64{3, 40, 400} {
		eng := chase.New(b.Env, b.Rules, b.DS.Gamma, faultOpts(b, 1, false))
		rep, err := eng.RunCtx(&countdownCtx{Context: context.Background(), remaining: polls})
		if err != nil {
			t.Fatalf("polls=%d: cancelled run must degrade, not fail: %v", polls, err)
		}
		if !rep.Partial {
			// The budget outlasted the whole run; nothing was cut short.
			if got := eng.Truth().Snapshot(); got != want {
				t.Fatalf("polls=%d: complete run diverged from clean run", polls)
			}
			continue
		}
		sawPartial = true
		if len(rep.Applied) > len(cleanRep.Applied) {
			t.Fatalf("polls=%d: partial run applied %d fixes, clean run only %d",
				polls, len(rep.Applied), len(cleanRep.Applied))
		}
		resumed := chase.New(b.Env, b.Rules, eng.Truth(), faultOpts(b, 1, false))
		if _, err := resumed.Run(); err != nil {
			t.Fatalf("polls=%d: resume failed: %v", polls, err)
		}
		if got := resumed.Truth().Snapshot(); got != want {
			t.Fatalf("polls=%d: resumed truth diverged from uninterrupted run", polls)
		}
	}
	if !sawPartial {
		t.Fatal("no poll budget produced a partial run — cancellation never bit")
	}
}

// TestDeadlineCancelParallelIsPartialNotError: a deadline that expires
// mid-drain on the parallel path ends the run with Partial=true and a nil
// error, and the chase.cancelled counter records it.
func TestDeadlineCancelParallelIsPartialNotError(t *testing.T) {
	b := baselines.NewBench(workload.Logistics(workload.Config{N: 600, Seed: 11}), 4)
	reg := obs.New()
	opts := faultOpts(b, 4, true)
	opts.Obs = reg
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel()
	eng := chase.New(b.Env, b.Rules, b.DS.Gamma, opts)
	rep, err := eng.RunCtx(ctx)
	if err != nil {
		t.Fatalf("deadline must degrade, not fail: %v", err)
	}
	if !rep.Partial {
		t.Skip("run finished inside the deadline on this machine")
	}
	if reg.CounterValue("chase.cancelled") == 0 {
		t.Fatal("partial deadline run must increment chase.cancelled")
	}
}

// meetingPool is the in-process pool of n workers, except that in its
// first drain no unit body starts until each of the n workers has taken
// one: a worker whose unit panics before running takes another, so the
// workers meet as long as the drain has n units more than panics. A
// meeting that has not happened in ten seconds gives up and is recorded.
type meetingPool struct {
	*cluster.Cluster
	n       int
	drained bool

	mu       sync.Mutex
	at       map[string]bool
	open     chan struct{}
	timedOut atomic.Bool
}

func (p *meetingPool) Submit(u *crystal.WorkUnit) {
	if !p.drained {
		run := u.Run
		u.Run = func(node string) {
			p.meet(node)
			run(node)
		}
	}
	p.Cluster.Submit(u)
}

func (p *meetingPool) DrainWithStats(ctx context.Context, opts cluster.Options) cluster.DrainStats {
	defer func() { p.drained = true }()
	return p.Cluster.DrainWithStats(ctx, opts)
}

func (p *meetingPool) meet(node string) {
	p.mu.Lock()
	if !p.at[node] && len(p.at) < p.n {
		p.at[node] = true
		if len(p.at) == p.n {
			close(p.open)
		}
	}
	p.mu.Unlock()
	select {
	case <-p.open:
	case <-time.After(10 * time.Second):
		p.timedOut.Store(true)
	}
}

// TestFaultyChaseMatchesCleanChase holds fault recovery to the result:
// with unit panics injected on first attempt (and, on the parallel pool, a
// node killed mid-drain), bounded retry plus reassignment must land on the
// exact fix set of a fault-free run, serial or parallel. The second half
// panics from inside a unit instead (an oracle that fails once,
// mid-enumeration, after the unit has already escalated conflicts): the
// retried unit must not report twice what its failed attempt had found,
// serial or parallel.
func TestFaultyChaseMatchesCleanChase(t *testing.T) {
	clean := logisticsBench(4)
	cleanEng := chase.New(clean.Env, clean.Rules, clean.DS.Gamma, faultOpts(clean, 4, true))
	cleanRep, err := cleanEng.Run()
	if err != nil {
		t.Fatal(err)
	}

	for _, parallel := range []bool{false, true} {
		faulty := logisticsBench(4)
		reg := obs.New()
		opts := faultOpts(faulty, 4, parallel)
		opts.Obs = reg
		inj := cluster.NewFaultInjector()
		inj.PanicUnit(0, 1)
		inj.PanicUnit(2, 1)
		inj.PanicUnit(9, 1)
		kills := uint64(0)
		if parallel {
			// Deterministic kill: in the first drain every worker holds a
			// unit before any finishes, so node-2 completes one and dies
			// there. The serial pool of one has no survivor to kill a
			// node for.
			opts.Cluster = &meetingPool{Cluster: cluster.New(4), n: 4, at: map[string]bool{}, open: make(chan struct{})}
			inj.KillNode("node-2", 1)
			kills = 1
		}
		opts.Drain.Faults = inj
		eng := chase.New(faulty.Env, faulty.Rules, faulty.DS.Gamma, opts)
		rep, err := eng.RunCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Partial {
			t.Fatalf("parallel=%t: recovery failed: faulty run partial with %d unit errors", parallel, len(rep.UnitErrors))
		}
		if got, want := eng.Truth().Snapshot(), cleanEng.Truth().Snapshot(); got != want {
			t.Fatalf("parallel=%t: faulty run's truth diverged from fault-free run", parallel)
		}
		if len(rep.Applied) != len(cleanRep.Applied) {
			t.Fatalf("parallel=%t: applied-fix counts diverge: faulty %d vs clean %d", parallel, len(rep.Applied), len(cleanRep.Applied))
		}
		if reg.CounterValue("chase.unit_panics") == 0 {
			t.Fatalf("parallel=%t: injection never fired — the test proved nothing", parallel)
		}
		if reg.CounterValue("chase.retries") == 0 {
			t.Fatalf("parallel=%t: no retries recorded despite injected panics", parallel)
		}
		if mp, ok := opts.Cluster.(*meetingPool); ok && mp.timedOut.Load() {
			t.Fatal("the four workers never met in the first drain")
		}
		if got := reg.CounterValue("chase.node_killed"); got != kills {
			t.Fatalf("parallel=%t: expected %d node kill(s), got %d", parallel, kills, got)
		}
	}

	bank := baselines.NewBench(workload.Bank(workload.Config{N: 300, Seed: 7}), 8)
	for _, parallel := range []bool{false, true} {
		run := func(panicAt int64) (string, *chase.Report, *obs.Registry) {
			var calls atomic.Int64
			reg := obs.New()
			opts := faultOpts(bank, 8, parallel)
			opts.Obs = reg
			// Declines every question, so each one is escalated again by
			// every unit that meets it; fails exactly once.
			opts.Oracle = func(string, string, string, []data.Value) (data.Value, bool) {
				if calls.Add(1) == panicAt {
					panic("oracle unavailable")
				}
				return data.Value{}, false
			}
			eng := chase.New(bank.Env, bank.Rules, bank.DS.Gamma, opts)
			rep, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			return eng.Truth().Snapshot(), rep, reg
		}
		wantSnap, want, _ := run(0)
		if len(want.Unresolved) == 0 {
			t.Fatalf("parallel=%t: nothing escalated — the test proved nothing", parallel)
		}
		// Several failure points: whether the unit asking the n-th question
		// has escalated anything yet depends on n (and, in parallel, on the
		// interleaving); serially the 120th and 200th have.
		for _, panicAt := range []int64{40, 120, 200} {
			gotSnap, got, reg := run(panicAt)
			if reg.CounterValue("chase.unit_panics") != 1 || got.Partial {
				t.Fatalf("parallel=%t panicAt=%d: want one recovered unit panic, got %d (partial=%t)",
					parallel, panicAt, reg.CounterValue("chase.unit_panics"), got.Partial)
			}
			if len(got.Unresolved) != len(want.Unresolved) || got.ResolvedMI != want.ResolvedMI {
				t.Errorf("parallel=%t panicAt=%d: retried unit reported twice: %d unresolved / %d resolved by M_c, fault-free %d / %d",
					parallel, panicAt, len(got.Unresolved), got.ResolvedMI, len(want.Unresolved), want.ResolvedMI)
			}
			if gotSnap != wantSnap {
				t.Errorf("parallel=%t panicAt=%d: truth diverged from the fault-free run", parallel, panicAt)
			}
		}
	}
}

// TestSerialRetryBackoffYieldsToCancellation: the serial reference retries
// under the pool's policy, so a backoff far longer than the run is cut
// short by cancellation and the run comes back partial, not after the
// sleep.
func TestSerialRetryBackoffYieldsToCancellation(t *testing.T) {
	bank := baselines.NewBench(workload.Bank(workload.Config{N: 300, Seed: 7}), 8)
	reg := obs.New()
	opts := faultOpts(bank, 8, false)
	opts.Obs = reg
	opts.Drain.MaxRetries = 5
	opts.Drain.RetryBackoff = 30 * time.Second
	opts.Oracle = func(string, string, string, []data.Value) (data.Value, bool) { panic("oracle unavailable") }
	eng := chase.New(bank.Env, bank.Rules, bank.DS.Gamma, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	rep, err := eng.RunCtx(ctx)
	if err != nil {
		t.Fatalf("cancelled run must degrade, not fail: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled run took %v: the retry backoff ignored cancellation", elapsed)
	}
	if !rep.Partial {
		t.Fatal("cancelled run must report Partial")
	}
	if reg.CounterValue("chase.unit_panics") == 0 {
		t.Fatal("the oracle never panicked — no backoff was entered, the test proved nothing")
	}
}
