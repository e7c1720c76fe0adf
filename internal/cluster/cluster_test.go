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
	var ran int64
	for i := 0; i < 100; i++ {
		c.Submit(&crystal.WorkUnit{
			ID:      i,
			Part:    fmt.Sprintf("p%d/b", i),
			EstCost: 1,
			Run:     func(string) { atomic.AddInt64(&ran, 1) },
		})
	}
	per := c.DrainWithStats(context.Background(), Options{}).PerNode
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
// whatever order they were submitted in.
func TestPoolOfOneRunsCostliestFirst(t *testing.T) {
	c := New(1)
	costs := map[int]float64{0: 1, 1: 5, 2: 3, 3: 5, 4: 0, 5: 3, 6: 9, 7: 1}
	var order []int
	for _, id := range []int{5, 0, 7, 3, 6, 1, 4, 2} {
		c.Submit(&crystal.WorkUnit{ID: id, Part: "p/b", EstCost: costs[id],
			Run: func(string) { order = append(order, id) }})
	}
	c.DrainWithStats(context.Background(), Options{})
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
	meet := newRendezvous(n)
	var ran int64
	for i := 0; i < 64; i++ {
		cost := 1.0
		if i < n {
			cost = 2
		}
		c.Submit(&crystal.WorkUnit{ID: i, Part: "hot/block", EstCost: cost,
			Run: func(string) {
				atomic.AddInt64(&ran, 1)
				if cost == 2 {
					meet.arrive()
				}
			}})
	}
	st := c.DrainWithStats(context.Background(), Options{})
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
	submit := func(n int) {
		for i := 0; i < n; i++ {
			c.Submit(&crystal.WorkUnit{ID: i, Part: fmt.Sprintf("p%d/b", i), EstCost: 1, Run: func(string) {}})
		}
	}
	sum := func(m map[string]int) int {
		s := 0
		for _, n := range m {
			s += n
		}
		return s
	}
	submit(12)
	first := c.DrainWithStats(context.Background(), Options{}).PerNode
	if got := sum(first); got != 12 {
		t.Fatalf("first drain counted %d units, want 12: %v", got, first)
	}
	submit(5)
	second := c.DrainWithStats(context.Background(), Options{}).PerNode
	if got := sum(second); got != 5 {
		t.Fatalf("second drain counted %d units, want 5 (per-drain, not cumulative): %v", got, second)
	}
}

func TestDrainWithStats(t *testing.T) {
	c := New(4)
	reg := obs.New()
	c.SetObs(reg, "chase")
	for i := 0; i < 32; i++ {
		c.Submit(&crystal.WorkUnit{ID: i, Part: "hot/block", EstCost: 1,
			Run: func(string) { time.Sleep(100 * time.Microsecond) }})
	}
	st := c.DrainWithStats(context.Background(), Options{})
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
