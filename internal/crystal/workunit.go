package crystal

import (
	"fmt"
	"sort"
	"sync"
)

// WorkUnit is T = (φ, D_T): a (partial) REE++ paired with a data partition
// (paper §5.2). The scheduler treats it opaquely; RuleID and Part identify
// the pieces, EstCost drives placement, and Run executes it.
type WorkUnit struct {
	ID      int
	RuleID  string
	Part    string // partition key, e.g. "Trans/block3"
	EstCost float64
	// Run executes the unit on the named worker — the one actually running
	// it (a stolen unit reports the thief, not the affinity owner), so span
	// tracing attributes work to the lane that really ran it.
	Run func(node string)
}

// BlockUnit is the data half D_T of a work unit: one block (single-variable
// rule) or one block combination of the rule's first two tuple variables.
type BlockUnit struct {
	Part     string           // partition key, e.g. "Trans/b3" or "Trans-Store/b3-0"
	Restrict map[string]Block // tuple variable -> the block it ranges over
	EstCost  float64          // product of the block sizes
}

// Atom is one tuple atom R(t) of a rule as the planner reads it: the
// relation and the tuple variable ranging over it.
type Atom struct{ Rel, Var string }

// UnitsFor plans a rule over blocks from its tuple atoms, of which the
// first two partition the work: one unit per non-empty block combination,
// in block-index order, so the i-th unit of a rule names the same work on
// every process that partitioned the same data. A rule without tuple
// atoms yields no units.
func UnitsFor(atoms []Atom, blocks map[string][]Block) []BlockUnit {
	if len(atoms) == 0 {
		return nil
	}
	var units []BlockUnit
	a1 := atoms[0]
	for i, b1 := range blocks[a1.Rel] {
		if len(b1.Tuples) == 0 {
			continue
		}
		if len(atoms) == 1 {
			units = append(units, BlockUnit{
				Part:     fmt.Sprintf("%s/b%d", a1.Rel, i),
				Restrict: map[string]Block{a1.Var: b1},
				EstCost:  float64(len(b1.Tuples)),
			})
			continue
		}
		a2 := atoms[1]
		for j, b2 := range blocks[a2.Rel] {
			if len(b2.Tuples) == 0 {
				continue
			}
			units = append(units, BlockUnit{
				Part:     fmt.Sprintf("%s-%s/b%d-%d", a1.Rel, a2.Rel, i, j),
				Restrict: map[string]Block{a1.Var: b1, a2.Var: b2},
				EstCost:  float64(len(b1.Tuples)) * float64(len(b2.Tuples)),
			})
		}
	}
	return units
}

// Scheduler distributes work units over nodes with the three load-balancing
// strategies of paper §5.2: (1) block-granular partitions, (2) cost
// estimation at generation time, and (3) non-centralised work
// re-assignment — an idle node fetches units from the most loaded peer.
type Scheduler struct {
	// OnSteal, when set, observes every work re-assignment as it happens:
	// thief fetched u from victim's queue. Called outside the scheduler
	// lock; set it before draining (the cluster layer wires it to the
	// observability registry).
	OnSteal func(thief, victim string, u *WorkUnit)

	mu     sync.Mutex
	queues map[string][]*WorkUnit // node -> pending units (max-cost first)
	loads  map[string]float64     // node -> pending cost
	names  []string               // node names, sorted (deterministic scans)
	steals int
}

// NewScheduler creates a scheduler for the given nodes.
func NewScheduler(nodes []string) *Scheduler {
	s := &Scheduler{
		queues: make(map[string][]*WorkUnit, len(nodes)),
		loads:  make(map[string]float64, len(nodes)),
	}
	for _, n := range nodes {
		s.queues[n] = nil
		s.loads[n] = 0
	}
	s.names = make([]string, 0, len(s.queues))
	for n := range s.queues {
		s.names = append(s.names, n)
	}
	sort.Strings(s.names)
	return s
}

// Assign places a unit on the node owning its partition (by consistent
// hash), falling back to the least-loaded node when the owner is unknown.
func (s *Scheduler) Assign(ring *Ring, u *WorkUnit) string {
	node := ring.Owner(u.Part)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.queues[node]; !ok || node == "" {
		node = s.leastLoadedLocked()
	}
	s.queues[node] = append(s.queues[node], u)
	s.loads[node] += u.EstCost
	return node
}

func (s *Scheduler) leastLoadedLocked() string {
	best, bestLoad := "", -1.0
	// Deterministic tie-break by node name (s.names is pre-sorted).
	for _, n := range s.names {
		if bestLoad < 0 || s.loads[n] < bestLoad {
			best, bestLoad = n, s.loads[n]
		}
	}
	return best
}

// Next pops a unit for the node. When the node's own queue is empty and
// stealing is enabled, it fetches the costliest pending unit from the most
// loaded peer (paper §5.2: "when a node finishes its assigned work units,
// it evokes the work manager to fetch work units from other nodes").
func (s *Scheduler) Next(node string, steal bool) *WorkUnit {
	s.mu.Lock()
	if q := s.queues[node]; len(q) > 0 {
		u := q[len(q)-1]
		s.queues[node] = q[:len(q)-1]
		s.loads[node] -= u.EstCost
		s.mu.Unlock()
		return u
	}
	if !steal {
		s.mu.Unlock()
		return nil
	}
	// Find a victim: any peer with pending units qualifies, load is only
	// the tie-break. Selecting on load alone (load > 0) would make peers
	// whose queued units all carry EstCost == 0 unstealable — an idle node
	// would spin while their work sits queued. Strict > keeps the
	// deterministic first-name tie-break of s.names order.
	victim, maxLoad := "", 0.0
	for _, n := range s.names {
		if n == node || len(s.queues[n]) == 0 {
			continue
		}
		if victim == "" || s.loads[n] > maxLoad {
			victim, maxLoad = n, s.loads[n]
		}
	}
	if victim == "" {
		s.mu.Unlock()
		return nil
	}
	// Steal the costliest unit (front of queue after sort-on-assign order
	// is approximated by scanning).
	q := s.queues[victim]
	bi := 0
	for i, u := range q {
		if u.EstCost > q[bi].EstCost {
			bi = i
		}
	}
	u := q[bi]
	s.queues[victim] = append(q[:bi], q[bi+1:]...)
	s.loads[victim] -= u.EstCost
	s.steals++
	onSteal := s.OnSteal
	s.mu.Unlock()
	if onSteal != nil {
		onSteal(node, victim, u)
	}
	return u
}

// AssignExcluding places the unit on the least-loaded node not in
// exclude, falling back to the global least-loaded node when every node
// is excluded (e.g. a single-node cluster retrying a failed unit). The
// fault-tolerance layer uses it to move a unit away from the node it
// panicked on, and to re-home the queue of a killed node.
func (s *Scheduler) AssignExcluding(u *WorkUnit, exclude map[string]bool) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	best, bestLoad := "", -1.0
	for _, n := range s.names {
		if exclude[n] {
			continue
		}
		if bestLoad < 0 || s.loads[n] < bestLoad {
			best, bestLoad = n, s.loads[n]
		}
	}
	if best == "" {
		best = s.leastLoadedLocked()
	}
	s.queues[best] = append(s.queues[best], u)
	s.loads[best] += u.EstCost
	return best
}

// Reclaim removes and returns every unit still pending on the node. The
// fault-tolerance layer reclaims a killed node's queue to reassign it to
// the survivors, and a cancelled drain reclaims every queue so the next
// drain does not run stale units.
func (s *Scheduler) Reclaim(node string) []*WorkUnit {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[node]
	s.queues[node] = nil
	s.loads[node] = 0
	return q
}

// Pending reports the number of queued units across nodes.
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, q := range s.queues {
		n += len(q)
	}
	return n
}

// Steals reports how many units were re-assigned by stealing.
func (s *Scheduler) Steals() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.steals
}

// Load reports a node's pending estimated cost.
func (s *Scheduler) Load(node string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loads[node]
}
