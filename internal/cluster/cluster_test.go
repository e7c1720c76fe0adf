package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rockclean/rock/internal/crystal"
	"github.com/rockclean/rock/internal/obs"
)

func TestClusterDrainsAllUnits(t *testing.T) {
	c := New(4)
	var units []*crystal.WorkUnit
	var ran int64
	for i := 0; i < 100; i++ {
		units = append(units, &crystal.WorkUnit{
			ID:      i,
			Part:    fmt.Sprintf("p%d/b", i),
			EstCost: 1,
			Run:     func(string) { atomic.AddInt64(&ran, 1) },
		})
	}
	per := c.DrainWithStats(context.Background(), units, Options{}).PerNode
	if ran != 100 {
		t.Fatalf("ran %d of 100", ran)
	}
	total := 0
	for _, n := range per {
		total += n
	}
	if total != 100 {
		t.Errorf("per-node accounting: %v", per)
	}
}

// rendezvous is a unit body that returns only once n bodies are running
// at the same time — n distinct workers each holding one — or after a
// timeout, which it records. It makes tests that need "every worker has
// taken a unit" deterministic.
type rendezvous struct {
	mu       sync.Mutex
	waiting  int
	all      chan struct{}
	timedOut atomic.Bool
}

func newRendezvous(n int) *rendezvous { return &rendezvous{waiting: n, all: make(chan struct{})} }

func (r *rendezvous) arrive() {
	r.mu.Lock()
	r.waiting--
	if r.waiting == 0 {
		close(r.all)
	}
	r.mu.Unlock()
	select {
	case <-r.all:
	case <-time.After(10 * time.Second):
		r.timedOut.Store(true)
	}
}

// TestPoolOfOneRunsCostliestFirst pins the pending list's order: a pool
// of one runs the units by EstCost descending, ties in ID order,
// whatever order they are listed in.
func TestPoolOfOneRunsCostliestFirst(t *testing.T) {
	c := New(1)
	var units []*crystal.WorkUnit
	costs := map[int]float64{0: 1, 1: 5, 2: 3, 3: 5, 4: 0, 5: 3, 6: 9, 7: 1}
	var order []int
	for _, id := range []int{5, 0, 7, 3, 6, 1, 4, 2} {
		units = append(units, &crystal.WorkUnit{ID: id, Part: "p/b", EstCost: costs[id],
			Run: func(string) { order = append(order, id) }})
	}
	c.DrainWithStats(context.Background(), units, Options{})
	want := []int{6, 1, 3, 2, 5, 0, 7, 4}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("pool of one ran %v, want %v (EstCost descending, ties by ID)", order, want)
	}
}

// TestSkewedBatchRunsOnEveryWorker: units sharing one partition key are
// not tied to any worker. The first four (costliest) units meet at a
// rendezvous, which only four different workers can reach together.
func TestSkewedBatchRunsOnEveryWorker(t *testing.T) {
	const n = 4
	c := New(n)
	var units []*crystal.WorkUnit
	meet := newRendezvous(n)
	var ran int64
	for i := 0; i < 64; i++ {
		cost := 1.0
		if i < n {
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
	st := c.DrainWithStats(context.Background(), units, Options{})
	if meet.timedOut.Load() {
		t.Fatalf("the %d costliest units never ran at once: %v", n, st.PerNode)
	}
	if ran != 64 || sumCounts(st.PerNode) != 64 {
		t.Fatalf("ran %d of 64 (PerNode %v)", ran, st.PerNode)
	}
	for i := 0; i < n; i++ {
		if node := fmt.Sprintf("node-%d", i); st.PerNode[node] == 0 {
			t.Errorf("%s ran nothing of a one-partition batch: %v", node, st.PerNode)
		}
	}
}

// TestDrainPerDrainCounts is the regression test for the cumulative-count
// bug: a drain used to never reset the executed map, so per-node counts
// leaked across the chase's per-round drains — round 2's "per-round"
// stats silently included round 1.
func TestDrainPerDrainCounts(t *testing.T) {
	c := New(3)
	batch := func(n int) []*crystal.WorkUnit {
		var units []*crystal.WorkUnit
		for i := 0; i < n; i++ {
			units = append(units, &crystal.WorkUnit{ID: i, Part: fmt.Sprintf("p%d/b", i), EstCost: 1, Run: func(string) {}})
		}
		return units
	}
	sum := func(m map[string]int) int {
		s := 0
		for _, n := range m {
			s += n
		}
		return s
	}
	first := c.DrainWithStats(context.Background(), batch(12), Options{}).PerNode
	if got := sum(first); got != 12 {
		t.Fatalf("first drain counted %d units, want 12: %v", got, first)
	}
	second := c.DrainWithStats(context.Background(), batch(5), Options{}).PerNode
	if got := sum(second); got != 5 {
		t.Fatalf("second drain counted %d units, want 5 (per-drain, not cumulative): %v", got, second)
	}
}

// TestDrainRunsItsOwnList: a pool drained twice runs each drain's list
// exactly once, and nothing of the first list in the second drain; an
// empty list queues nothing.
func TestDrainRunsItsOwnList(t *testing.T) {
	c := New(3)
	var ran [2][]atomic.Int64
	list := func(k, n int) []*crystal.WorkUnit {
		ran[k] = make([]atomic.Int64, n)
		units := make([]*crystal.WorkUnit, n)
		for i := range units {
			units[i] = &crystal.WorkUnit{ID: i, Part: fmt.Sprintf("p%d/b", i), EstCost: float64(i % 3),
				Run: func(string) { ran[k][i].Add(1) }}
		}
		return units
	}
	first, second := list(0, 12), list(1, 5)
	if st := c.DrainWithStats(context.Background(), first, Options{}); st.Queued != 12 {
		t.Fatalf("first drain queued %d, want 12", st.Queued)
	}
	if st := c.DrainWithStats(context.Background(), second, Options{}); st.Queued != 5 {
		t.Fatalf("second drain queued %d, want 5", st.Queued)
	}
	for k := range ran {
		for i := range ran[k] {
			if n := ran[k][i].Load(); n != 1 {
				t.Errorf("list %d unit %d ran %d times, want 1", k, i, n)
			}
		}
	}
	if st := c.DrainWithStats(context.Background(), nil, Options{}); st.Queued != 0 || sumCounts(st.PerNode) != 0 {
		t.Errorf("empty drain: Queued %d, PerNode %v; want nothing", st.Queued, st.PerNode)
	}
}

func TestDrainWithStats(t *testing.T) {
	c := New(4)
	var units []*crystal.WorkUnit
	reg := obs.New()
	c.SetObs(reg, "chase")
	for i := 0; i < 32; i++ {
		units = append(units, &crystal.WorkUnit{ID: i, Part: "hot/block", EstCost: 1,
			Run: func(string) { time.Sleep(100 * time.Microsecond) }})
	}
	st := c.DrainWithStats(context.Background(), units, Options{})
	if st.Queued != 32 {
		t.Errorf("Queued = %d, want 32", st.Queued)
	}
	total := 0
	for node, n := range st.PerNode {
		total += n
		if got := reg.CounterValue("chase.node." + node + ".units"); got != uint64(n) {
			t.Errorf("obs counter for %s = %d, want %d", node, got, n)
		}
	}
	if total != 32 {
		t.Errorf("PerNode sums to %d, want 32: %v", total, st.PerNode)
	}
}

func TestClusterMinimumSize(t *testing.T) {
	c := New(0)
	if len(c.nodes) != 1 {
		t.Error("cluster clamps to 1 worker")
	}
}
