package cluster

import (
	"fmt"
	"sync"
	"time"
)

// FaultInjector injects controlled failures into a drain, standing in
// for the node crashes and stragglers a real 21-node Kubernetes
// deployment (paper §6) experiences. It drives the recovery tests;
// production runs leave Options.Faults nil.
//
// All injections are keyed by WorkUnit.ID or node name and are
// one-shot state machines: a scheduled panic is consumed per attempt,
// a node kill triggers once.
type FaultInjector struct {
	// ProcessKill, when set, is the injector's "real mode": instead of
	// simulating a node death inside the process, a triggered KillNode
	// schedule invokes this hook, which is expected to SIGKILL the actual
	// worker process behind the node (internal/cluster/remote wires it to
	// os.Process.Kill). Set it before the drain starts; it is called at
	// most once per scheduled kill, outside the injector's lock.
	ProcessKill func(node string)

	mu     sync.Mutex
	panics map[int]int           // unit ID -> remaining attempts to panic
	delays map[int]time.Duration // unit ID -> straggler delay
	kills  map[string]int        // node -> units to execute before dying
}

// NewFaultInjector returns an empty injector.
func NewFaultInjector() *FaultInjector {
	return &FaultInjector{
		panics: make(map[int]int),
		delays: make(map[int]time.Duration),
		kills:  make(map[string]int),
	}
}

// PanicUnit makes the unit with the given ID panic on its next `times`
// attempts. With times=1 and retries enabled, the first attempt
// panics and the retry succeeds — the successful-recovery scenario.
func (f *FaultInjector) PanicUnit(id, times int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.panics[id] = times
}

// SlowUnit turns the unit into a straggler: its execution is preceded
// by the given delay (cut short if the drain's context is cancelled).
func (f *FaultInjector) SlowUnit(id int, d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.delays[id] = d
}

// KillNode schedules the node to die after it has executed afterUnits
// units in the next drain; its pending queue is then reclaimed and
// reassigned to the surviving nodes. afterUnits < 1 kills the node
// after its first unit.
func (f *FaultInjector) KillNode(node string, afterUnits int) {
	if afterUnits < 1 {
		afterUnits = 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.kills[node] = afterUnits
}

func (f *FaultInjector) delayFor(id int) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.delays[id]
}

// maybePanic consumes one scheduled panic for the unit, if any, and
// panics — inside the worker's recover() shield.
func (f *FaultInjector) maybePanic(id int) {
	f.mu.Lock()
	n := f.panics[id]
	if n > 0 {
		f.panics[id] = n - 1
	}
	f.mu.Unlock()
	if n > 0 {
		panic(fmt.Sprintf("fault injection: unit %d", id))
	}
}

// ShouldDie records one executed unit on node and reports whether the
// node's scheduled kill has now triggered; when it has and ProcessKill
// is set, the hook fires (real mode — the caller's worker process is
// killed for real rather than simulated dead). The remote coordinator
// consults this after every received result.
func (f *FaultInjector) ShouldDie(node string) bool {
	if !f.shouldDie(node) {
		return false
	}
	if f.ProcessKill != nil {
		f.ProcessKill(node)
	}
	return true
}

// shouldDie records one executed unit on node and reports whether the
// node's scheduled kill has now triggered.
func (f *FaultInjector) shouldDie(node string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.kills[node]
	if !ok {
		return false
	}
	n--
	if n <= 0 {
		delete(f.kills, node)
		return true
	}
	f.kills[node] = n
	return false
}
