package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
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
	var units []*crystal.WorkUnit
	reg := obs.New()
	c.SetObs(reg, "chase")
	var ran int64
	for i := 0; i < 40; i++ {
		units = append(units, &crystal.WorkUnit{ID: i, Part: fmt.Sprintf("p%d/b", i), EstCost: 1,
			Run: func(string) { atomic.AddInt64(&ran, 1) }})
	}
	f := NewFaultInjector()
	f.PanicUnit(7, 1)  // first attempt panics, retry succeeds
	f.PanicUnit(23, 2) // two panics, third attempt succeeds
	st := c.DrainWithStats(context.Background(), units, Options{
		MaxRetries: 2, RetryBackoff: 100 * time.Microsecond, Faults: f,
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
	var units []*crystal.WorkUnit
	var ran int64
	for i := 0; i < 10; i++ {
		units = append(units, &crystal.WorkUnit{ID: i, RuleID: fmt.Sprintf("r%d", i), Part: fmt.Sprintf("p%d/b", i),
			EstCost: 1, Run: func(string) { atomic.AddInt64(&ran, 1) }})
	}
	f := NewFaultInjector()
	f.PanicUnit(4, 100) // panics forever
	st := c.DrainWithStats(context.Background(), units, Options{MaxRetries: 2, Faults: f})
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
	var units []*crystal.WorkUnit
	var ran int64
	units = append(units, &crystal.WorkUnit{ID: 0, Part: "p/b", EstCost: 1,
		Run: func(string) { atomic.AddInt64(&ran, 1) }})
	f := NewFaultInjector()
	f.PanicUnit(0, 1)
	st := c.DrainWithStats(context.Background(), units, Options{MaxRetries: 1, Faults: f})
	if ran != 1 {
		t.Fatalf("unit did not run after local retry")
	}
	if st.Reassigned != 0 {
		t.Errorf("single-node retry cannot reassign: %d", st.Reassigned)
	}
}

// TestRetryAvoidsFailedNode: a unit that panics is retried on another
// node while one lives. Units 0 and 1 meet at a rendezvous, so two
// workers hold them; unit 0 then panics, and its node is free at once
// while the other still sleeps in unit 1 — yet the retry waits for the
// other node.
func TestRetryAvoidsFailedNode(t *testing.T) {
	for round := 0; round < 5; round++ {
		c := New(2)
		var units []*crystal.WorkUnit
		meet := newRendezvous(2)
		var mu sync.Mutex
		var nodes []string
		units = append(units, &crystal.WorkUnit{ID: 0, Part: "p/b", EstCost: 1, Run: func(node string) {
			mu.Lock()
			nodes = append(nodes, node)
			first := len(nodes) == 1
			mu.Unlock()
			if first {
				meet.arrive()
				panic("first attempt fails")
			}
		}})
		units = append(units, &crystal.WorkUnit{ID: 1, Part: "p/b", EstCost: 1, Run: func(string) {
			meet.arrive()
			time.Sleep(20 * time.Millisecond)
		}})
		st := c.DrainWithStats(context.Background(), units, Options{MaxRetries: 1})
		if meet.timedOut.Load() {
			t.Fatal("units 0 and 1 never ran at once")
		}
		if len(nodes) != 2 || len(st.Failed) != 0 {
			t.Fatalf("want one panic and one good retry, got attempts on %v, failures %v", nodes, st.Failed)
		}
		if nodes[0] == nodes[1] {
			t.Fatalf("retry ran on %s, the node it panicked on", nodes[1])
		}
		if st.Retries != 1 || st.Reassigned != 1 {
			t.Errorf("Retries/Reassigned = %d/%d, want 1/1", st.Retries, st.Reassigned)
		}
	}
}

// waitGoroutines fails the test unless the goroutine count falls back to
// at most before+2 (slack for runtime helpers) within two seconds.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestKillNodeMidDrainReassignsQueue: a node killed mid-drain stops,
// and the survivors run every unit it left on the pending list. The four
// costliest units meet at a rendezvous, so each worker holds one of them
// and node-2 dies after exactly that one.
func TestKillNodeMidDrainReassignsQueue(t *testing.T) {
	before := runtime.NumGoroutine()
	c := New(4)
	var units []*crystal.WorkUnit
	reg := obs.New()
	c.SetObs(reg, "chase")
	meet := newRendezvous(4)
	var ran int64
	for i := 0; i < 50; i++ {
		cost := 1.0
		if i < 4 {
			cost = 2
		}
		units = append(units, &crystal.WorkUnit{ID: i, Part: "hot/block", EstCost: cost,
			Run: func(string) {
				atomic.AddInt64(&ran, 1)
				if cost == 2 {
					meet.arrive()
				}
			}})
	}
	f := NewFaultInjector()
	f.KillNode("node-2", 1)
	st := c.DrainWithStats(context.Background(), units, Options{MaxRetries: 1, Faults: f})
	if meet.timedOut.Load() {
		t.Fatal("the four costliest units never ran at once")
	}
	if ran != 50 || sumCounts(st.PerNode) != 50 {
		t.Fatalf("ran %d of 50 after node kill (PerNode %v)", ran, st.PerNode)
	}
	if len(st.Killed) != 1 || st.Killed[0] != "node-2" {
		t.Errorf("Killed = %v, want [node-2]", st.Killed)
	}
	if st.PerNode["node-2"] != 1 {
		t.Errorf("dead node executed %d units, want 1", st.PerNode["node-2"])
	}
	if len(st.Failed) != 0 || st.Reassigned != 0 {
		t.Errorf("survivors must run the rest with no failure or retry: %v, reassigned %d", st.Failed, st.Reassigned)
	}
	if got := reg.CounterValue("chase.node_killed"); got != 1 {
		t.Errorf("obs chase.node_killed = %d, want 1", got)
	}
	waitGoroutines(t, before)
}

func TestAllNodesDeadStrandsRemainder(t *testing.T) {
	c := New(1)
	var units []*crystal.WorkUnit
	var ran int64
	for i := 0; i < 5; i++ {
		units = append(units, &crystal.WorkUnit{ID: i, Part: fmt.Sprintf("p%d/b", i), EstCost: 1,
			Run: func(string) { atomic.AddInt64(&ran, 1) }})
	}
	f := NewFaultInjector()
	f.KillNode("node-0", 2)
	st := c.DrainWithStats(context.Background(), units, Options{Faults: f})
	if ran != 2 {
		t.Fatalf("ran %d, want 2 before the only node died", ran)
	}
	if len(st.Failed) != 3 {
		t.Fatalf("3 stranded units must surface as UnitErrors: %v", st.Failed)
	}
	for _, fe := range st.Failed {
		if !errors.Is(&fe, errNoSurvivor) || fe.Node != "node-0" {
			t.Errorf("stranded unit: %+v", fe)
		}
	}
	if st := c.DrainWithStats(context.Background(), nil, Options{}); st.Queued != 0 {
		t.Errorf("the next drain inherited %d units after total node loss", st.Queued)
	}
}

func TestStragglerStillCompletes(t *testing.T) {
	c := New(4)
	var units []*crystal.WorkUnit
	var ran int64
	for i := 0; i < 20; i++ {
		units = append(units, &crystal.WorkUnit{ID: i, Part: fmt.Sprintf("p%d/b", i), EstCost: 1,
			Run: func(string) { atomic.AddInt64(&ran, 1) }})
	}
	f := NewFaultInjector()
	f.SlowUnit(11, 20*time.Millisecond)
	start := time.Now()
	st := c.DrainWithStats(context.Background(), units, Options{Faults: f})
	if ran != 20 || st.Cancelled {
		t.Fatalf("straggler run: ran=%d cancelled=%v", ran, st.Cancelled)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Error("straggler delay was not applied")
	}
}

func TestCancelledDrainStopsEarlyAndSkips(t *testing.T) {
	c := New(2)
	var units []*crystal.WorkUnit
	reg := obs.New()
	c.SetObs(reg, "chase")
	var ran int64
	for i := 0; i < 400; i++ {
		units = append(units, &crystal.WorkUnit{ID: i, Part: fmt.Sprintf("p%d/b", i), EstCost: 1,
			Run: func(string) { atomic.AddInt64(&ran, 1); time.Sleep(300 * time.Microsecond) }})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel()
	st := c.DrainWithStats(ctx, units, Options{})
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
	if reg.CounterValue("chase.cancelled") != 1 {
		t.Errorf("obs chase.cancelled = %d, want 1", reg.CounterValue("chase.cancelled"))
	}
	// The cluster stays usable: a fresh drain with a live context runs
	// its own units only.
	var again int64
	units = nil
	for i := 0; i < 8; i++ {
		units = append(units, &crystal.WorkUnit{ID: i, Part: fmt.Sprintf("q%d/b", i), EstCost: 1,
			Run: func(string) { atomic.AddInt64(&again, 1) }})
	}
	st2 := c.DrainWithStats(context.Background(), units, Options{})
	if again != 8 || st2.Queued != 8 || st2.Cancelled {
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
		var units []*crystal.WorkUnit
		for i := 0; i < 100; i++ {
			units = append(units, &crystal.WorkUnit{ID: i, Part: fmt.Sprintf("p%d/b", i), EstCost: 1,
				Run: func(string) { time.Sleep(200 * time.Microsecond) }})
		}
		ctx, cancel := context.WithTimeout(context.Background(), 1*time.Millisecond)
		c.DrainWithStats(ctx, units, Options{})
		cancel()
	}
	waitGoroutines(t, before)
}

func TestRetryBackoffYieldsToCancellation(t *testing.T) {
	// Regression: the retry backoff used to be an unconditional
	// time.Sleep, so cancelling a drain mid-backoff still waited the
	// whole k*RetryBackoff out. With a seconds-scale backoff the drain
	// must nevertheless return promptly after cancel.
	c := New(2)
	var units []*crystal.WorkUnit
	f := NewFaultInjector()
	f.PanicUnit(0, 100) // panics on every attempt, forcing backoffs
	units = append(units, &crystal.WorkUnit{ID: 0, Part: "p/b", EstCost: 1, Run: func(string) {}})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	st := c.DrainWithStats(ctx, units, Options{
		MaxRetries: 5, RetryBackoff: 30 * time.Second, Faults: f,
	})
	elapsed := time.Since(start)
	if !st.Cancelled {
		t.Errorf("drain not marked cancelled: %+v", st)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled drain took %v; backoff ignored cancellation", elapsed)
	}
}

// TestLostNodeRequeuesItsUnit: a run that reports its node lost marks the
// node dead and puts the unit back without counting an attempt — a
// survivor runs it, and with none left the unit fails as stranded.
func TestLostNodeRequeuesItsUnit(t *testing.T) {
	for _, lostNodes := range [][]string{{"a"}, {"a", "b"}} {
		c := New(1)
		var units []*crystal.WorkUnit
		for i := 0; i < 6; i++ {
			units = append(units, &crystal.WorkUnit{ID: i, Part: fmt.Sprintf("p%d/b", i), EstCost: 1})
		}
		var mu sync.Mutex
		ran := map[int]string{}
		// b runs nothing before a has taken a unit and lost it.
		aLost := make(chan struct{})
		var once sync.Once
		st := c.DrainOn(context.Background(), []string{"a", "b"}, units, func(_ context.Context, node string, u *crystal.WorkUnit) error {
			for _, n := range lostNodes {
				if n == node {
					once.Do(func() { close(aLost) })
					return ErrNodeLost
				}
			}
			select {
			case <-aLost:
			case <-time.After(5 * time.Second):
			}
			mu.Lock()
			ran[u.ID] = node
			mu.Unlock()
			return nil
		}, Options{MaxRetries: 1})
		killed := append([]string(nil), st.Killed...)
		sort.Strings(killed)
		if fmt.Sprint(killed) != fmt.Sprint(lostNodes) || st.Panics != 0 || st.Retries != 0 {
			t.Fatalf("lost %v: Killed/Panics/Retries = %v/%d/%d, want %v/0/0", lostNodes, st.Killed, st.Panics, st.Retries, lostNodes)
		}
		if len(lostNodes) == 1 {
			if len(ran) != 6 || st.PerNode["b"] != 6 || len(st.Failed) != 0 {
				t.Errorf("the survivor ran %d of 6 (PerNode %v, failed %v)", len(ran), st.PerNode, st.Failed)
			}
			continue
		}
		if len(st.Failed) != 6 {
			t.Fatalf("with every node lost, want 6 stranded units, got %v", st.Failed)
		}
		for _, fe := range st.Failed {
			if !errors.Is(&fe, errNoSurvivor) || fe.Attempts != 0 {
				t.Errorf("stranded unit: %+v", fe)
			}
		}
	}
}
