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
	per := c.DrainWithStats(context.Background(), Options{Steal: true}).PerNode
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

func TestStealingBalancesSkew(t *testing.T) {
	// All units hash-assigned to the same partition prefix land on one
	// node; stealing must spread execution.
	c := New(4)
	var mu sync.Mutex
	perWorker := map[string]int{}
	for i := 0; i < 64; i++ {
		c.Submit(&crystal.WorkUnit{
			ID:      i,
			Part:    "hot/block", // same partition => same owner
			EstCost: 1,
			Run: func(string) {
				time.Sleep(200 * time.Microsecond)
			},
		})
	}
	counts := c.DrainWithStats(context.Background(), Options{Steal: true}).PerNode
	busy := 0
	for _, n := range counts {
		if n > 0 {
			busy++
		}
	}
	mu.Lock()
	_ = perWorker
	mu.Unlock()
	if busy < 2 {
		t.Errorf("stealing failed to spread hot partition: %v", counts)
	}
	// Without stealing, only the owner runs them.
	c2 := New(4)
	for i := 0; i < 16; i++ {
		c2.Submit(&crystal.WorkUnit{ID: i, Part: "hot/block", EstCost: 1, Run: func(string) {}})
	}
	counts2 := c2.DrainWithStats(context.Background(), Options{Steal: false}).PerNode
	busy2 := 0
	for _, n := range counts2 {
		if n > 0 {
			busy2++
		}
	}
	if busy2 != 1 {
		t.Errorf("without stealing exactly one node must run the hot partition: %v", counts2)
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
	first := c.DrainWithStats(context.Background(), Options{Steal: true}).PerNode
	if got := sum(first); got != 12 {
		t.Fatalf("first drain counted %d units, want 12: %v", got, first)
	}
	submit(5)
	second := c.DrainWithStats(context.Background(), Options{Steal: true}).PerNode
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
	st := c.DrainWithStats(context.Background(), Options{Steal: true})
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
	if st.Steals == 0 {
		t.Error("hot partition with stealing should record steals")
	}
	if got := reg.CounterValue("chase.steals"); got != uint64(st.Steals) {
		t.Errorf("obs steal counter = %d, want %d", got, st.Steals)
	}
	// Without stealing the counter must stay put.
	c2 := New(4)
	reg2 := obs.New()
	c2.SetObs(reg2, "chase")
	for i := 0; i < 16; i++ {
		c2.Submit(&crystal.WorkUnit{ID: i, Part: "hot/block", EstCost: 1, Run: func(string) {}})
	}
	st2 := c2.DrainWithStats(context.Background(), Options{Steal: false})
	if st2.Steals != 0 || reg2.CounterValue("chase.steals") != 0 {
		t.Errorf("Steal=false must record zero steals: %d / %d", st2.Steals, reg2.CounterValue("chase.steals"))
	}
}

func TestClusterMinimumSize(t *testing.T) {
	c := New(0)
	if len(c.nodes) != 1 {
		t.Error("cluster clamps to 1 worker")
	}
}
