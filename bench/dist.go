package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rockclean/rock/internal/chase"
	"github.com/rockclean/rock/internal/cluster/remote"
	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/workload"
)

const (
	distReplicas = 2
	// distPartitions is Options.Workers on the coordinator and on every
	// replica: the partition count all of them must agree on.
	distPartitions = 4
	// distWarmReps reps are run and discarded before the timed ones. Three
	// engines are built per rep, and the Go heap of a fresh process takes
	// about five such reps to reach its steady size: at 250k tuples on the
	// dev host the rep wall fell from 1.2 s to 0.7 s over them, and a
	// median taken across that fall was bimodal from run to run.
	distWarmReps = 5
)

// dist is dist-scale: the Scale chase through a remote.Coordinator and
// two remote.RunWorker replicas, goroutines of this process speaking the
// real protocol over loopback TCP. Set-up generates one database per
// participant; every rep rebuilds the follower engines and the
// coordinator outside the timed region, then times the coordinator's
// chase.New + RunCtx.
type dist struct {
	cfg      config
	in       *input
	replicas []*workload.Dataset
}

func (d *dist) setup() (pins, error) {
	wc := workload.Config{N: d.cfg.sizes.DistN, Seed: d.cfg.seed}
	in, err := newInput(workload.Scale(wc), true)
	if err != nil {
		return nil, err
	}
	p := pins{}
	in.pin(p)
	d.in = in
	d.replicas = nil
	for i := 0; i < distReplicas; i++ {
		d.replicas = append(d.replicas, workload.Scale(wc))
	}
	return p, nil
}

func (d *dist) close()             {}
func (d *dist) probeInput() *input { return d.in }

func (d *dist) options() chase.Options {
	o := chaseOptions(d.cfg, d.in, true)
	o.Workers = distPartitions
	return o
}

// inProcess chases the coordinator's input on the in-process pool: the
// reference fix set, and the base of remote.overhead_ratio.
func (d *dist) inProcess(tr *tracer, root *obs.Span, rep int) (time.Duration, string, error) {
	var eng *chase.Engine
	wall, err := tr.step("chase.in_process", root, rep, func() error {
		eng = chase.New(predicate.NewEnv(d.in.ds.DB), d.in.ds.Rules, d.in.ds.Gamma, d.options())
		_, err := eng.Run()
		return err
	})
	if err != nil {
		return 0, "", err
	}
	return wall, eng.Truth().Snapshot(), nil
}

// distRep is what one distributed rep produced.
type distRep struct {
	wall, newWall, runWall, build time.Duration
	report                        *chase.Report
	snapshot                      string
	results                       uint64
}

// rep runs one distributed chase. wire, when set, counts the bytes and
// frames between the workers and the coordinator.
func (d *dist) rep(tr *tracer, rep int, wire *forwarder) (*distRep, error) {
	out := &distRep{}
	root := tr.start("rep", nil, rep)
	defer root.End()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	fp := fmt.Sprintf("bench-dist-scale-%d", d.cfg.seed)
	coord := remote.NewCoordinator(remote.CoordOptions{Addr: "127.0.0.1:0", Workers: distReplicas, Fingerprint: fp})
	reg := obs.New()
	coord.SetObs(reg, "chase")
	var addr string
	if _, err := tr.step("remote.listen", root, rep, func() (err error) {
		if addr, err = coord.Start(); err != nil || wire == nil {
			return err
		}
		if addr, err = wire.listen(addr); err != nil {
			coord.Close()
		}
		return err
	}); err != nil {
		return nil, err
	}
	// Workers stop when the coordinator closes their connections.
	workerErr := make(chan error, distReplicas)
	stop := func() {
		coord.Close()
		for i := 0; i < distReplicas; i++ {
			<-workerErr
		}
		if wire != nil {
			wire.close()
		}
	}
	out.build, _ = tr.step("remote.worker_build", root, rep, func() error {
		for i, ds := range d.replicas {
			o := d.options()
			eng := chase.New(predicate.NewEnv(ds.DB), ds.Rules, ds.Gamma, o)
			go func(i int) {
				workerErr <- remote.RunWorker(ctx, eng, remote.WorkerOptions{Coord: addr, Fingerprint: fp, Meta: fmt.Sprintf("bench-worker-%d", i)})
			}(i)
		}
		return nil
	})
	if _, err := tr.step("remote.wait_workers", root, rep, func() error { return coord.WaitWorkers(ctx) }); err != nil {
		cancel()
		stop()
		return nil, fmt.Errorf("WaitWorkers: %w", err)
	}

	// The three participants share one Go heap here, so a collection costs
	// three times what it costs any real participant, and whether one
	// lands inside the timed region moved the rep's wall by ±30 %. Collect
	// now: the timed region then starts right after a collection, as far
	// from the next one as the heap allows.
	_, _ = tr.step("go.gc", root, rep, func() error { runtime.GC(); return nil })
	opts := d.options()
	opts.Cluster = coord
	opts.Obs = reg
	var eng *chase.Engine
	out.newWall, _ = tr.step("chase.new", root, rep, func() error {
		eng = chase.New(predicate.NewEnv(d.in.ds.DB), d.in.ds.Rules, d.in.ds.Gamma, opts)
		return nil
	})
	var err error
	out.runWall, err = tr.step("chase.run", root, rep, func() (err error) { out.report, err = eng.RunCtx(ctx); return })
	out.wall = out.newWall + out.runWall
	_, _ = tr.step("remote.stop", root, rep, func() error { stop(); return nil })
	root.End()
	if err != nil {
		return nil, fmt.Errorf("distributed chase: %w", err)
	}
	out.snapshot = eng.Truth().Snapshot()
	out.results = reg.CounterValue("chase.remote.results")
	return out, nil
}

func (d *dist) measure(rec *recorder, tr *tracer) error {
	_, ref, err := d.inProcess(nil, nil, 0)
	if err != nil {
		return fmt.Errorf("in-process chase: %w", err)
	}
	gold := len(d.in.ds.Gold.MissingCells)

	var reps []*distRep
	var local []float64
	var wire *forwarder
	if tr != nil {
		wire = &forwarder{}
	}
	for i := 0; i < distWarmReps; i++ {
		if _, err := d.rep(nil, 0, nil); err != nil {
			return err
		}
	}
	rec.startGo()
	start := time.Now()
	for i := 1; i <= d.cfg.sizes.MinReps || time.Since(start) < d.cfg.seconds; i++ {
		out, err := d.rep(tr, i, wire)
		if err != nil {
			return err
		}
		rec.op(out.wall, d.in.tuples())
		rec.check(out.snapshot == ref, "rep %d: distributed fix set %s differs from the in-process one %s", i, fnv64([]byte(out.snapshot)), fnv64([]byte(ref)))
		reps = append(reps, out)
		if tr != nil {
			// Interleave the in-process chase for remote.overhead_ratio.
			root := tr.start("rep.in_process", nil, i)
			wall, _, err := d.inProcess(tr, root, i)
			root.End()
			if err != nil {
				return err
			}
			local = append(local, seconds(wall))
		}
	}
	rec.stopGo()
	applied := 0
	for _, rt := range reps[0].report.Trace {
		applied += rt.Applied
	}
	// Every fix of the Scale workload is the imputation of one gold null.
	rec.f1 = float64(2*min(applied, gold)) / float64(applied+gold)
	rec.check(applied == gold, "distributed chase applied %d fixes, want the %d gold nulls", applied, gold)
	if tr == nil {
		return nil
	}

	pick := func(f func(*distRep) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	walls := pick(func(r *distRep) float64 { return seconds(r.wall) })
	rec.set("data.tuples", float64(d.in.tuples()))
	rec.set("chase.new_s", pick(func(r *distRep) float64 { return seconds(r.newWall) }))
	rec.set("chase.run_s", pick(func(r *distRep) float64 { return seconds(r.runWall) }))
	rec.set("chase.round1_s", pick(func(r *distRep) float64 { r1, _, _ := chaseTimes(r.report.Trace, nil); return r1 }))
	rec.set("chase.rounds_rest_s", pick(func(r *distRep) float64 { _, rest, _ := chaseTimes(r.report.Trace, nil); return rest }))
	rec.set("chase.unit_cpu_s", pick(func(r *distRep) float64 { _, _, cpu := chaseTimes(nil, r.report.RuleProfile); return cpu }))
	rec.set("cluster.parallel_ratio", rec.layers["chase.unit_cpu_s"]/rec.layers["chase.run_s"])
	nodeUnits := make(map[string]int)
	chaseCounts(rec, reps[0].report.Rounds, reps[0].report.Trace, reps[0].report.Predication, nodeUnits)
	finishCounts(rec, nodeUnits)
	rec.set("truth.snapshot_bytes", float64(len(reps[0].snapshot)))
	rec.set("remote.results", float64(reps[0].results))
	rec.set("remote.worker_build_s", pick(func(r *distRep) float64 { return seconds(r.build) }))
	rec.set("remote.overhead_ratio", walls/median(local))
	rec.set("remote.wire_bytes", float64(wire.bytes.Load())/float64(len(reps)))
	rec.set("remote.frames", float64(wire.frames.Load())/float64(len(reps)))
	tr.checkCoverage(rec)
	return nil
}

// forwarder is the traced run's byte-counting loopback hop between the
// workers and the coordinator: workers dial it, it dials the coordinator
// and relays frames both ways, counting them.
type forwarder struct {
	bytes, frames atomic.Int64

	ln    net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []net.Conn
}

// listen starts relaying to target and returns the address workers dial.
func (f *forwarder) listen(target string) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	f.ln = ln
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			down, err := ln.Accept()
			if err != nil {
				return // closed
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				down.Close()
				return
			}
			f.mu.Lock()
			f.conns = append(f.conns, down, up)
			f.mu.Unlock()
			f.wg.Add(2)
			go f.relay(up, down)
			go f.relay(down, up)
		}
	}()
	return ln.Addr().String(), nil
}

// relay copies frames from src to dst until either side closes, then
// closes both so the peer sees EOF as it would without the hop.
func (f *forwarder) relay(dst, src net.Conn) {
	defer f.wg.Done()
	defer dst.Close()
	defer src.Close()
	for {
		payload, err := remote.ReadFrame(src, 0)
		if err != nil {
			return
		}
		f.frames.Add(1)
		f.bytes.Add(int64(len(payload)) + 8) // payload + the frame header
		if err := remote.WriteFrame(dst, payload); err != nil {
			return
		}
	}
}

// close stops the listener, drops the relayed connections and waits for
// the relay goroutines.
func (f *forwarder) close() {
	f.ln.Close()
	f.mu.Lock()
	for _, c := range f.conns {
		c.Close()
	}
	f.conns = nil
	f.mu.Unlock()
	f.wg.Wait()
}
