package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rockclean/rock/internal/crystal"
	"github.com/rockclean/rock/internal/obs"
)

func sumCounts(m map[string]int) int {
	s := 0
	for _, n := range m {
		s += n
	}
	return s
}

func TestPanicIsolationAndRetry(t *testing.T) {
	c := New(4)
	reg := obs.New()
	c.SetObs(reg, "chase")
	var ran int64
	for i := 0; i < 40; i++ {
		c.Submit(&crystal.WorkUnit{ID: i, Part: fmt.Sprintf("p%d/b", i), EstCost: 1,
			Run: func(string) { atomic.AddInt64(&ran, 1) }})
	}
	f := NewFaultInjector()
	f.PanicUnit(7, 1)  // first attempt panics, retry succeeds
	f.PanicUnit(23, 2) // two panics, third attempt succeeds
	st := c.DrainWithStats(context.Background(), Options{
		Steal: true, MaxRetries: 2, RetryBackoff: 100 * time.Microsecond, Faults: f,
	})
	if ran != 40 {
		t.Fatalf("ran %d of 40 despite retries", ran)
	}
	if st.Panics != 3 {
		t.Errorf("Panics = %d, want 3", st.Panics)
	}
	if st.Retries != 3 {
		t.Errorf("Retries = %d, want 3", st.Retries)
	}
	if st.Reassigned != 3 {
		t.Errorf("Reassigned = %d, want 3 (multi-node cluster retries elsewhere)", st.Reassigned)
	}
	if len(st.Failed) != 0 {
		t.Errorf("no unit should fail permanently: %v", st.Failed)
	}
	if got := reg.CounterValue("chase.unit_panics"); got != 3 {
		t.Errorf("obs chase.unit_panics = %d, want 3", got)
	}
	if got := reg.CounterValue("chase.retries"); got != 3 {
		t.Errorf("obs chase.retries = %d, want 3", got)
	}
	if got := reg.CounterValue("chase.reassigned"); got != 3 {
		t.Errorf("obs chase.reassigned = %d, want 3", got)
	}
}

func TestRetriesExhaustedYieldTypedUnitError(t *testing.T) {
	c := New(3)
	var ran int64
	for i := 0; i < 10; i++ {
		c.Submit(&crystal.WorkUnit{ID: i, RuleID: fmt.Sprintf("r%d", i), Part: fmt.Sprintf("p%d/b", i),
			EstCost: 1, Run: func(string) { atomic.AddInt64(&ran, 1) }})
	}
	f := NewFaultInjector()
	f.PanicUnit(4, 100) // panics forever
	st := c.DrainWithStats(context.Background(), Options{Steal: true, MaxRetries: 2, Faults: f})
	if ran != 9 {
		t.Errorf("the 9 healthy units must still run: ran %d", ran)
	}
	if len(st.Failed) != 1 {
		t.Fatalf("want exactly one UnitError, got %v", st.Failed)
	}
	fe := st.Failed[0]
	if fe.UnitID != 4 || fe.RuleID != "r4" || fe.Attempts != 3 {
		t.Errorf("UnitError fields: %+v", fe)
	}
	if fe.Err == nil || fe.Error() == "" {
		t.Error("UnitError must wrap the recovered panic")
	}
	if st.Panics != 3 || st.Retries != 2 {
		t.Errorf("Panics/Retries = %d/%d, want 3/2", st.Panics, st.Retries)
	}
}

func TestSingleNodeRetriesLocally(t *testing.T) {
	// With one worker there is no other node; the retry must fall back
	// to the same node instead of deadlocking.
	c := New(1)
	var ran int64
	c.Submit(&crystal.WorkUnit{ID: 0, Part: "p/b", EstCost: 1,
		Run: func(string) { atomic.AddInt64(&ran, 1) }})
	f := NewFaultInjector()
	f.PanicUnit(0, 1)
	st := c.DrainWithStats(context.Background(), Options{MaxRetries: 1, Faults: f})
	if ran != 1 {
		t.Fatalf("unit did not run after local retry")
	}
	if st.Reassigned != 0 {
		t.Errorf("single-node retry cannot reassign: %d", st.Reassigned)
	}
}

func TestKillNodeMidDrainReassignsQueue(t *testing.T) {
	c := New(4)
	reg := obs.New()
	c.SetObs(reg, "chase")
	owner := c.Ring.Owner("hot/block")
	var ran int64
	for i := 0; i < 50; i++ {
		c.Submit(&crystal.WorkUnit{ID: i, Part: "hot/block", EstCost: 1,
			Run: func(string) { atomic.AddInt64(&ran, 1) }})
	}
	f := NewFaultInjector()
	f.KillNode(owner, 3) // owner dies after 3 units; 47 orphans re-homed
	// Steal off: without reassignment the orphans would strand forever.
	st := c.DrainWithStats(context.Background(), Options{Steal: false, MaxRetries: 1, Faults: f})
	if ran != 50 {
		t.Fatalf("ran %d of 50 after node kill", ran)
	}
	if len(st.Killed) != 1 || st.Killed[0] != owner {
		t.Errorf("Killed = %v, want [%s]", st.Killed, owner)
	}
	if st.Reassigned != 47 {
		t.Errorf("Reassigned = %d, want 47", st.Reassigned)
	}
	if st.PerNode[owner] != 3 {
		t.Errorf("dead node executed %d units, want 3", st.PerNode[owner])
	}
	if len(st.Failed) != 0 {
		t.Errorf("survivors must absorb the orphans: %v", st.Failed)
	}
	if got := reg.CounterValue("chase.node_killed"); got != 1 {
		t.Errorf("obs chase.node_killed = %d, want 1", got)
	}
}

func TestAllNodesDeadStrandsRemainder(t *testing.T) {
	c := New(1)
	var ran int64
	for i := 0; i < 5; i++ {
		c.Submit(&crystal.WorkUnit{ID: i, Part: fmt.Sprintf("p%d/b", i), EstCost: 1,
			Run: func(string) { atomic.AddInt64(&ran, 1) }})
	}
	f := NewFaultInjector()
	f.KillNode("node-0", 2)
	st := c.DrainWithStats(context.Background(), Options{Faults: f})
	if ran != 2 {
		t.Fatalf("ran %d, want 2 before the only node died", ran)
	}
	if len(st.Failed) != 3 {
		t.Fatalf("3 stranded units must surface as UnitErrors: %v", st.Failed)
	}
	if c.Sched.Pending() != 0 {
		t.Error("drain must leave the scheduler empty even after total node loss")
	}
}

func TestStragglerStillCompletes(t *testing.T) {
	c := New(4)
	var ran int64
	for i := 0; i < 20; i++ {
		c.Submit(&crystal.WorkUnit{ID: i, Part: fmt.Sprintf("p%d/b", i), EstCost: 1,
			Run: func(string) { atomic.AddInt64(&ran, 1) }})
	}
	f := NewFaultInjector()
	f.SlowUnit(11, 20*time.Millisecond)
	start := time.Now()
	st := c.DrainWithStats(context.Background(), Options{Steal: true, Faults: f})
	if ran != 20 || st.Cancelled {
		t.Fatalf("straggler run: ran=%d cancelled=%v", ran, st.Cancelled)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Error("straggler delay was not applied")
	}
}

func TestCancelledDrainStopsEarlyAndSkips(t *testing.T) {
	c := New(2)
	reg := obs.New()
	c.SetObs(reg, "chase")
	var ran int64
	for i := 0; i < 400; i++ {
		c.Submit(&crystal.WorkUnit{ID: i, Part: fmt.Sprintf("p%d/b", i), EstCost: 1,
			Run: func(string) { atomic.AddInt64(&ran, 1); time.Sleep(300 * time.Microsecond) }})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel()
	st := c.DrainWithStats(ctx, Options{Steal: true})
	if !st.Cancelled {
		t.Fatal("drain must report Cancelled on context timeout")
	}
	if st.Skipped == 0 {
		t.Error("a drain cancelled mid-way must skip units")
	}
	if got := sumCounts(st.PerNode); got+st.Skipped != 400 {
		t.Errorf("executed(%d)+skipped(%d) != 400", got, st.Skipped)
	}
	if int64(sumCounts(st.PerNode)) != ran {
		t.Errorf("PerNode (%d) disagrees with ran (%d)", sumCounts(st.PerNode), ran)
	}
	if c.Sched.Pending() != 0 {
		t.Error("cancelled drain must leave the scheduler empty")
	}
	if reg.CounterValue("chase.cancelled") != 1 {
		t.Errorf("obs chase.cancelled = %d, want 1", reg.CounterValue("chase.cancelled"))
	}
	// The cluster stays usable: a fresh drain with a live context runs
	// newly submitted units only.
	var again int64
	for i := 0; i < 8; i++ {
		c.Submit(&crystal.WorkUnit{ID: i, Part: fmt.Sprintf("q%d/b", i), EstCost: 1,
			Run: func(string) { atomic.AddInt64(&again, 1) }})
	}
	st2 := c.DrainWithStats(context.Background(), Options{Steal: true})
	if again != 8 || st2.Cancelled {
		t.Errorf("post-cancel drain: ran=%d cancelled=%v", again, st2.Cancelled)
	}
}

func TestCancelledDrainsLeakNoGoroutines(t *testing.T) {
	// goleak is not vendored; bound the goroutine count instead. Workers
	// are joined by wg.Wait and the watchdog by watch.Wait, so any leak
	// shows up as monotonic growth across repeated cancelled drains.
	before := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		c := New(4)
		for i := 0; i < 100; i++ {
			c.Submit(&crystal.WorkUnit{ID: i, Part: fmt.Sprintf("p%d/b", i), EstCost: 1,
				Run: func(string) { time.Sleep(200 * time.Microsecond) }})
		}
		ctx, cancel := context.WithTimeout(context.Background(), 1*time.Millisecond)
		c.DrainWithStats(ctx, Options{Steal: true})
		cancel()
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after cancelled drains",
				before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestVnodeScalingBalancesPlacement is the regression test for the
// hardcoded crystal.NewRing(64): virtual nodes now scale with cluster
// size, keeping consistent-hash key placement balanced as n grows.
func TestVnodeScalingBalancesPlacement(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		c := New(n)
		counts := make(map[string]int, n)
		const keys = 20000
		for i := 0; i < keys; i++ {
			counts[c.Ring.Owner(fmt.Sprintf("part-%d/block-%d", i, i%7))]++
		}
		if len(counts) != n {
			t.Fatalf("n=%d: only %d nodes own keys", n, len(counts))
		}
		mean := float64(keys) / float64(n)
		for node, got := range counts {
			if f := float64(got) / mean; f < 0.55 || f > 1.45 {
				t.Errorf("n=%d: node %s owns %d keys (%.2fx mean) — placement imbalanced",
					n, node, got, f)
			}
		}
	}
}

func TestRetryBackoffYieldsToCancellation(t *testing.T) {
	// Regression: the retry backoff used to be an unconditional
	// time.Sleep, so cancelling a drain mid-backoff still waited the
	// whole k*RetryBackoff out. With a seconds-scale backoff the drain
	// must nevertheless return promptly after cancel.
	c := New(2)
	f := NewFaultInjector()
	f.PanicUnit(0, 100) // panics on every attempt, forcing backoffs
	c.Submit(&crystal.WorkUnit{ID: 0, Part: "p/b", EstCost: 1, Run: func(string) {}})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	st := c.DrainWithStats(ctx, Options{
		Steal: true, MaxRetries: 5, RetryBackoff: 30 * time.Second, Faults: f,
	})
	elapsed := time.Since(start)
	if !st.Cancelled {
		t.Errorf("drain not marked cancelled: %+v", st)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled drain took %v; backoff ignored cancellation", elapsed)
	}
}
