package remote

// Oracle tests for the distributed chase: real worker processes (this
// test binary re-executed via TestMain) connect over TCP and the
// distributed fix set must be bit-identical — truth.FixSet.Snapshot()
// equality — to a serial in-process run over the same inputs,
// including when a worker is SIGKILLed mid-drain.

import (
	"context"
	"fmt"
	"os"
	osexec "os/exec"
	"strconv"
	"syscall"
	"testing"
	"time"

	"github.com/rockclean/rock/internal/chase"
	"github.com/rockclean/rock/internal/cluster"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/ree"
	"github.com/rockclean/rock/internal/truth"
	"github.com/rockclean/rock/internal/workload"
)

const (
	helperEnv = "ROCK_WORKER_HELPER"
	coordEnv  = "ROCK_COORD_ADDR"
	nEnv      = "ROCK_HELPER_N"
	seedEnv   = "ROCK_HELPER_SEED"
	fpEnv     = "ROCK_HELPER_FP"
)

func TestMain(m *testing.M) {
	if os.Getenv(helperEnv) == "1" {
		runHelper()
		return
	}
	os.Exit(m.Run())
}

// replica builds the engine inputs every process derives identically
// from (n, seed): the lockstep-replication precondition.
func replica(n int, seed int64) (*predicate.Env, []*ree.Rule, *truth.FixSet, map[string]bool) {
	ds := workload.Bank(workload.Config{N: n, Seed: seed})
	ds.SeedGamma(0.5, seed+1)
	return ds.BuildEnv(), ds.Rules, ds.Gamma, ds.EIDRefs
}

func replicaOpts(refs map[string]bool) chase.Options {
	return chase.Options{
		Lazy: true, UseBlocking: true, Workers: 4,
		Drain:   cluster.Options{MaxRetries: 2},
		EIDRefs: refs,
	}
}

// runHelper is the worker-process main: the test binary re-executed
// with the helper environment set.
func runHelper() {
	n, _ := strconv.Atoi(os.Getenv(nEnv))
	seed, _ := strconv.ParseInt(os.Getenv(seedEnv), 10, 64)
	env, rules, gamma, refs := replica(n, seed)
	eng := chase.New(env, rules, gamma, replicaOpts(refs))
	err := RunWorker(context.Background(), eng, WorkerOptions{
		Coord:       os.Getenv(coordEnv),
		Fingerprint: os.Getenv(fpEnv),
		Meta:        strconv.Itoa(os.Getpid()),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker helper:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func spawnWorker(t *testing.T, addr, fp string, n int, seed int64) *osexec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := osexec.Command(exe)
	cmd.Env = append(os.Environ(),
		helperEnv+"=1",
		coordEnv+"="+addr,
		nEnv+"="+strconv.Itoa(n),
		seedEnv+"="+strconv.FormatInt(seed, 10),
		fpEnv+"="+fp,
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// serialRun produces the baseline snapshot and report.
func serialRun(t *testing.T, n int, seed int64) (string, *chase.Report) {
	t.Helper()
	env, rules, gamma, refs := replica(n, seed)
	eng := chase.New(env, rules, gamma, replicaOpts(refs))
	rep, err := eng.RunCtx(context.Background())
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	return eng.Truth().Snapshot(), rep
}

// distributedRun drives a full chase over nWorkers real processes and
// returns the final snapshot and report. faults, when non-nil, is
// installed on the engine (and its ProcessKill wired to SIGKILL the
// real worker process by the PID it sent in its hello).
func distributedRun(t *testing.T, n int, seed int64, nWorkers int, faults *cluster.FaultInjector) (string, *chase.Report, map[string]*osexec.Cmd) {
	t.Helper()
	const fp = "oracle-test-fp"
	coord := NewCoordinator(CoordOptions{
		Addr: "127.0.0.1:0", Workers: nWorkers, Fingerprint: fp,
		Logf: t.Logf,
	})
	addr, err := coord.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })

	cmds := make([]*osexec.Cmd, nWorkers)
	for i := range cmds {
		cmds[i] = spawnWorker(t, addr, fp, n, seed)
	}
	byNode := map[string]*osexec.Cmd{}
	t.Cleanup(func() {
		for _, cmd := range cmds {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := coord.WaitWorkers(ctx); err != nil {
		t.Fatalf("WaitWorkers: %v", err)
	}
	pidToCmd := map[int]*osexec.Cmd{}
	for _, cmd := range cmds {
		pidToCmd[cmd.Process.Pid] = cmd
	}
	for _, node := range coord.order {
		if pid, err := strconv.Atoi(coord.WorkerMeta(node)); err == nil {
			byNode[node] = pidToCmd[pid]
		}
	}
	if faults != nil {
		faults.ProcessKill = func(node string) {
			if pid, err := strconv.Atoi(coord.WorkerMeta(node)); err == nil {
				syscall.Kill(pid, syscall.SIGKILL)
			}
		}
	}

	env, rules, gamma, refs := replica(n, seed)
	opts := replicaOpts(refs)
	opts.Cluster = coord
	opts.Drain.Faults = faults
	eng := chase.New(env, rules, gamma, opts)
	rep, err := eng.RunCtx(ctx)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	coord.Close()
	return eng.Truth().Snapshot(), rep, byNode
}

func TestDistributedBitIdenticalToSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	const n, seed = 220, 7
	wantSnap, wantRep := serialRun(t, n, seed)
	gotSnap, gotRep, _ := distributedRun(t, n, seed, 2, nil)

	if gotSnap != wantSnap {
		t.Fatalf("distributed snapshot differs from serial:\nserial %d bytes, distributed %d bytes",
			len(wantSnap), len(gotSnap))
	}
	if gotRep.Rounds != wantRep.Rounds {
		t.Errorf("rounds: distributed %d, serial %d", gotRep.Rounds, wantRep.Rounds)
	}
	if len(gotRep.Applied) != len(wantRep.Applied) {
		t.Errorf("applied fixes: distributed %d, serial %d", len(gotRep.Applied), len(wantRep.Applied))
	}
	if len(gotRep.Unresolved) != len(wantRep.Unresolved) {
		t.Fatalf("unresolved conflicts: distributed %d, serial %d", len(gotRep.Unresolved), len(wantRep.Unresolved))
	}
	for i, u := range gotRep.Unresolved {
		w := wantRep.Unresolved[i]
		if u.Conflict.Error() != w.Conflict.Error() || u.Fix.String() != w.Fix.String() {
			t.Fatalf("unresolved conflict %d: distributed %v / %v, serial %v / %v", i, u.Conflict, u.Fix, w.Conflict, w.Fix)
		}
	}
	if gotRep.ResolvedMI != wantRep.ResolvedMI {
		t.Errorf("resolved MI: distributed %d, serial %d", gotRep.ResolvedMI, wantRep.ResolvedMI)
	}
}

func TestDistributedSurvivesWorkerSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	const n, seed = 220, 7
	wantSnap, _ := serialRun(t, n, seed)

	faults := cluster.NewFaultInjector()
	faults.KillNode("worker-1", 2) // SIGKILL after its second completed unit
	gotSnap, _, byNode := distributedRun(t, n, seed, 3, faults)

	if gotSnap != wantSnap {
		t.Fatalf("snapshot after mid-drain SIGKILL differs from serial:\nserial %d bytes, distributed %d bytes",
			len(wantSnap), len(gotSnap))
	}
	// The kill must have really happened: worker-1's OS process ended on
	// SIGKILL, not a clean exit.
	cmd := byNode["worker-1"]
	if cmd == nil {
		t.Fatal("no process mapped to worker-1")
	}
	err := cmd.Wait()
	if err == nil {
		t.Fatal("worker-1 exited cleanly; expected death by SIGKILL")
	}
	ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("worker-1 did not die of SIGKILL: %v (state %v)", err, cmd.ProcessState)
	}
}

func TestFingerprintMismatchRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real worker process")
	}
	coord := NewCoordinator(CoordOptions{
		Addr: "127.0.0.1:0", Workers: 1, Fingerprint: "coordinator-fp",
		AcceptTimeout: 20 * time.Second,
	})
	addr, err := coord.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cmd := spawnWorker(t, addr, "some-other-fp", 40, 3)
	defer func() { cmd.Process.Kill(); cmd.Wait() }()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := coord.WaitWorkers(ctx); err == nil {
		t.Fatal("WaitWorkers accepted a worker with a mismatched fingerprint")
	}
}
