package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/linecard"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/montecarlo"
	"repro/internal/router"
	"repro/internal/topology"
)

const (
	// e5bShare is the part of a rare run spent on E5b estimates; the
	// rest runs the E10 mesh estimate at its fixed budget.
	e5bShare = 0.85
	// meshReps × e5bCyclesPerRep regenerative cycles is the mesh budget.
	meshReps        = 1000
	e5bCyclesPerRep = 100
	// oracleZ is the normal quantile of the interval the GTH oracle must
	// fall in: 99.99%, so a correct estimator fails the check about once
	// in 10⁴ estimates. (The 95% interval misses one estimate in 20 by
	// design; those misses are reported, not failed.)
	oracleZ = 3.891
	// setupRepeats is how many times a run measures its set-up.
	setupRepeats = 15
)

// e5b is experiment E5b as EXPERIMENTS.md runs it: DRA(9,4) at μ = 1/3
// with balanced failure biasing δ = 0.3, regenerative cycles run in
// batches until the 95% CI half-width is within 10% of the estimate or
// the 10 000-replication cap is reached.
func e5b(seed uint64, workers int) montecarlo.Options {
	return montecarlo.Options{
		Arch: linecard.DRA, N: 9, M: 4,
		Rates:        router.PaperRates(1.0 / 3),
		Reps:         10000,
		Seed:         seed,
		Workers:      workers,
		TargetRelErr: 0.1,
		CyclesPerRep: e5bCyclesPerRep,
		Biasing:      router.Biasing{Enabled: true, Delta: 0.3},
	}
}

// e10Mesh is E10's mesh 3×3 row at a fixed cycle budget.
func e10Mesh(seed uint64, workers int) montecarlo.Options {
	opt := e5b(seed, workers)
	opt.Topology = topology.Spec{Kind: "mesh", Rows: 3, Cols: 3}
	opt.Reps, opt.TargetRelErr, opt.Batch = meshReps, 0, meshReps
	return opt
}

// gthUnavailability is the analytic steady-state unavailability of the
// E5b configuration.
func gthUnavailability() (float64, error) {
	p := models.PaperParams(9, 4)
	p.Mu = 1.0 / 3
	md, err := models.DRAAvailability(p)
	if err != nil {
		return 0, err
	}
	return 1 - md.Availability(), nil
}

// estimate is one timed estimator run.
type estimate struct {
	res      montecarlo.UnavailabilityResult
	wall     time.Duration
	batchMs  []float64
	batchCPU []float64 // process CPU ms per batch
}

// runEstimate runs the estimator, timing every batch boundary and, when
// traced, recording a span per batch under one per estimate.
func runEstimate(r *run, opt montecarlo.Options, id string) (estimate, error) {
	var e estimate
	start := time.Now()
	last, lastCPU := start, cpuTime()
	opt.OnBatch = func(montecarlo.Checkpoint) {
		now, cpu := time.Now(), cpuTime()
		e.batchMs = append(e.batchMs, ms(now.Sub(last)))
		e.batchCPU = append(e.batchCPU, ms(cpu-lastCPU))
		r.spans.add("montecarlo.batch", id, "montecarlo.estimate", last, now)
		last, lastCPU = now, cpu
	}
	res, err := montecarlo.EstimateUnavailability(opt)
	e.wall = time.Since(start)
	r.spans.add("montecarlo.estimate", id, "", start, start.Add(e.wall))
	e.res = res
	if err == nil && len(res.Failed) > 0 {
		err = fmt.Errorf("%d replications failed: %v", len(res.Failed), res.Failed[0])
	}
	return e, err
}

// checkE5b counts one E5b estimate and applies its output checks: the
// run completed, its interval holds the GTH oracle, and an estimate that
// stopped on its target has rel_half_width ≤ 0.10. An estimate the
// replication cap stopped first is not a failure (E5b runs with that
// cap); capped reports it, as miss95 reports a 95% interval that missed
// the oracle.
func checkE5b(r *run, e estimate, err error, oracle float64, seed uint64) (ok, miss95, capped bool) {
	if err != nil {
		return r.check(false, "E5b seed %d: %v", seed, err), false, false
	}
	rhw := e.res.RelHalfWidth()
	capped = e.res.StopReason == montecarlo.StopBudget
	stopped := capped || (e.res.StopReason == montecarlo.StopTarget && rhw <= 0.10)
	lo, hi := e.res.Ratio.CI(oracleZ)
	ok = r.check(stopped && lo <= oracle && oracle <= hi,
		"E5b seed %d: U=%.4g rel_half_width %.4f (stop %s), 99.99%% CI [%.4g, %.4g] vs GTH %.4g",
		seed, e.res.Estimate(), rhw, e.res.StopReason, lo, hi, oracle)
	lo95, hi95 := e.res.CI()
	return ok, oracle < lo95 || oracle > hi95, capped
}

// rareSetup is the fixed cost every rare-event estimate pays before its
// steady state: the analytic oracle solve plus one batch of one
// replication per worker, routers built from scratch.
func rareSetup(workers int) (time.Duration, error) {
	start := time.Now()
	if _, err := gthUnavailability(); err != nil {
		return 0, err
	}
	opt := e5b(1, workers)
	opt.Reps, opt.TargetRelErr = workers, 0
	_, err := montecarlo.EstimateUnavailability(opt)
	return time.Since(start), err
}

func runRare(ctx context.Context, r *run) error {
	oracle, err := gthUnavailability()
	if err != nil {
		return err
	}
	var setups, walls []float64
	for i := 0; i < setupRepeats; i++ {
		cpu0 := cpuTime()
		d, err := rareSetup(r.nproc)
		if err != nil {
			return err
		}
		setups = append(setups, (cpuTime() - cpu0).Seconds())
		walls = append(walls, d.Seconds())
	}
	r.timing("set-up wall", "s", walls)
	setup := r.timing("set-up CPU", "s", setups)
	r.notef("GTH oracle U = %.6g", oracle)

	if r.traced {
		return rareTraced(r, oracle)
	}
	start := time.Now()
	var (
		batchMs, batchCPU, toCI  []float64
		e5bCycles                uint64
		e5bWall, e5bCPU          time.Duration
		misses95, capped, estims int
	)
	for k := 0; k == 0 || time.Since(start) < time.Duration(e5bShare*float64(r.dur)); k++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		seed := r.subSeed(k)
		cpu0 := userTime()
		e, err := runEstimate(r, e5b(seed, r.nproc), "")
		cpu := userTime() - cpu0
		ok, miss, capd := checkE5b(r, e, err, oracle, seed)
		if !ok {
			continue
		}
		if miss {
			misses95++
		}
		if capd {
			capped++
		}
		estims++
		batchMs = append(batchMs, e.batchMs...)
		batchCPU = append(batchCPU, e.batchCPU...)
		toCI = append(toCI, e.wall.Seconds())
		e5bCycles += e.res.Cycles
		e5bWall += e.wall
		e5bCPU += cpu
	}
	r.timing("e5b batch", "ms", batchMs)
	r.timing("e5b batch CPU", "ms", batchCPU)
	r.timing("e5b time to 10% CI", "s", toCI)
	r.notef("e5b: %d estimates, %d batches, %d cycles, %.0f cycles/s, user CPU %.3f us/cycle, %d outside their 95%% CI (expected 1 in 20), %d stopped by the %d-replication cap before the 10%% target",
		estims, len(batchMs), e5bCycles, float64(e5bCycles)/e5bWall.Seconds(), us(e5bCPU)/float64(e5bCycles), misses95, capped, e5b(0, 1).Reps)

	cpu0 := userTime()
	mesh, err := runEstimate(r, e10Mesh(r.subSeed(1000), r.nproc), "")
	meshCPU := userTime() - cpu0
	if r.check(err == nil && mesh.res.DownCycles > 0, "E10 mesh: err %v, %d down cycles", err, mesh.res.DownCycles) {
		r.notef("e10 mesh: %d cycles in %.3fs = %.0f cycles/s, user CPU %.3f us/cycle, U = %.4g", mesh.res.Cycles, mesh.wall.Seconds(),
			float64(mesh.res.Cycles)/mesh.wall.Seconds(), us(meshCPU)/float64(mesh.res.Cycles), mesh.res.Estimate())
	}

	// One operation is 1000 regenerative cycles, costed as the mean of
	// the E5b bus and the E10 mesh costs, so a per-unit cost the mesh's
	// 42 failable units scale weighs the same whatever share of the run
	// each estimate took.
	perOp := func(bus, grid time.Duration) float64 {
		return (ratio(ms(bus), float64(e5bCycles)/1000) + ratio(ms(grid), float64(mesh.res.Cycles)/1000)) / 2
	}
	r.set("user_cpu_ms_per_op", perOp(e5bCPU, meshCPU))
	r.notef("wall per 1000 cycles (mean of E5b and mesh) %.4f ms", perOp(e5bWall, mesh.wall))
	r.set("setup_s", setup.Median)
	r.set("rss_mb", peakRSSMB(os.Getpid()))
	return nil
}

// rareTraced measures the engine's layers: one E5b estimate untraced
// and the same estimate with the metrics registry attached (the
// difference is the tracing overhead), direct Kernel.Step and
// CanDeliverCached timings on the estimator's own replications, and the
// mesh estimate.
func rareTraced(r *run, oracle float64) error {
	seed := r.subSeed(0)
	plain, err := runEstimate(&run{}, e5b(seed, r.nproc), "")
	if ok, _, _ := checkE5b(r, plain, err, oracle, seed); !ok {
		return nil
	}
	pb := r.timing("e5b batch (untraced)", "ms", plain.batchMs)
	r.set("client.p50_ms", pb.Median)
	r.set("client.tail_ms", pb.Tail)
	r.set("client.throughput_per_s", float64(plain.res.Cycles)/plain.wall.Seconds())

	reg := metrics.NewRegistry()
	opt := e5b(seed, r.nproc)
	opt.Metrics = reg
	cpu0 := cpuTime()
	e, err := runEstimate(r, opt, "e5b")
	cpu := cpuTime() - cpu0
	if ok, _, _ := checkE5b(r, e, err, oracle, seed); !ok {
		return nil
	}
	c := scrape(reg.PrometheusText())
	r.counters = c
	events := c["sim_events_fired_total"]
	rhw := e.res.RelHalfWidth()
	r.set("sim.events", events)
	r.set("sim.ns_per_event", ratio(float64(cpu.Nanoseconds()), events))
	r.set("montecarlo.cycles", c["montecarlo_cycles_total"])
	r.set("montecarlo.down_cycles", c["montecarlo_down_cycles_total"])
	r.set("montecarlo.batches", float64(e.res.Batches))
	r.set("montecarlo.batch_s", r.timing("montecarlo.batch (traced)", "ms", e.batchMs).Median/1000)
	r.set("montecarlo.rel_half_width", rhw)
	r.set("montecarlo.ess_ratio", ratio(e.res.Weights.ESS(), float64(e.res.Cycles)))
	r.set("montecarlo.wnv", e.wall.Seconds()*rhw*rhw)
	r.set("montecarlo.time_to_ci_s", e.wall.Seconds())
	r.set("montecarlo.cycles_per_s", float64(e.res.Cycles)/e.wall.Seconds())
	tracedBatch := summarize(e.batchMs).Median
	r.set("trace.latency_ms", tracedBatch)
	r.set("trace.overhead_ms", tracedBatch-pb.Median)
	r.set("trace.accounted_ratio", ratio(sumMs(e.batchMs), ms(e.wall)))

	stepProbe(r, seed)

	var units int
	mopt := e10Mesh(r.subSeed(1000), r.nproc)
	mopt.OnBuild = func(rep uint64, rt *router.Router) {
		if rep == 0 {
			units = rt.Topology().Units()
		}
	}
	mesh, err := runEstimate(r, mopt, "e10-mesh")
	if r.check(err == nil && mesh.res.DownCycles > 0, "E10 mesh: err %v, %d down cycles", err, mesh.res.DownCycles) {
		r.set("topology.units", float64(units))
		r.set("topology.mesh_cycles_per_s", float64(mesh.res.Cycles)/mesh.wall.Seconds())
	}
	return nil
}

// stepProbe rebuilds the estimator's first replications exactly as the
// engine does (same streams, same biasing) and times every Kernel.Step,
// split by whether the step fired a fault or repair (the injector's
// retarget path) or another event, plus the CanDeliverCached poll the
// regenerative loop makes after each step.
func stepProbe(r *run, seed uint64) {
	opt := e5b(seed, 1)
	var faultNs, otherNs, canNs []float64
	var faults, repairs uint64
	deadline := time.Now().Add(r.dur / 5)
	for rep := uint64(0); rep == 0 || time.Now().Before(deadline); rep++ {
		cfg := router.UniformConfig(opt.Arch, opt.N, opt.M)
		cfg.Source = montecarlo.TrialStream(opt.Seed, rep)
		rt, err := router.New(cfg)
		if err != nil {
			r.problem("step probe: %v", err)
			return
		}
		rt.InstallUniformRoutes()
		inj, err := router.NewInjector(rt, opt.Rates)
		if err == nil {
			b := opt.Biasing
			b.StopWhen = func() bool { return !rt.CanDeliverCached(opt.TargetLC) }
			err = inj.SetBiasing(b)
		}
		if err != nil {
			r.problem("step probe: %v", err)
			return
		}
		inj.Start()
		k := rt.Kernel()
		for inj.Repairs < uint64(opt.CyclesPerRep) {
			f, rp := inj.Faults, inj.Repairs
			t := time.Now()
			if !k.Step() {
				break
			}
			d := float64(time.Since(t).Nanoseconds())
			if inj.Faults != f || inj.Repairs != rp {
				faultNs = append(faultNs, d)
			} else {
				otherNs = append(otherNs, d)
			}
			t = time.Now()
			rt.CanDeliverCached(opt.TargetLC)
			canNs = append(canNs, float64(time.Since(t).Nanoseconds()))
		}
		faults += inj.Faults
		repairs += inj.Repairs
	}
	r.set("router.fault_events", float64(faults))
	r.set("router.repair_events", float64(repairs))
	r.set("router.fault_step_ns", r.timing("router.fault_step", "ns", faultNs).Median)
	r.set("router.other_step_ns", r.timing("router.other_step", "ns", otherNs).Median)
	r.set("router.candeliver_ns", r.timing("router.candeliver", "ns", canNs).Median)
}

func sumMs(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// scrape sums a Prometheus text exposition by family name, across
// label sets (histogram series keep their _sum/_count suffixes).
func scrape(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest := line, ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if j := strings.LastIndexByte(rest, ' '); j >= 0 {
			v := atof(rest[j+1:])
			if !math.IsNaN(v) {
				out[name] += v
			}
		}
	}
	return out
}
