// Package simbench measures the DES core hot paths — the rare-event
// Monte Carlo loop, the fault-free packet delivery path, and raw
// scheduler ops — on the current host. It backs `dractl bench -mode
// simcore` and the BENCH_simcore.json artifact.
package simbench

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Metric is one benchmark's outcome.
type Metric struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// EventsPerSec and NsPerEvent are set only for benchmarks that
	// process kernel events (the rare-event loop).
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	NsPerEvent   float64 `json:"ns_per_event,omitempty"`
	// AllocsPerEvent amortizes per-op allocations (replication setup)
	// over the events each op processes.
	AllocsPerEvent float64 `json:"allocs_per_event,omitempty"`
}

// Benchmark is one named measurement.
type Benchmark struct {
	Name string `json:"name"`
	Metric
}

// Report is the BENCH_simcore.json document.
type Report struct {
	Mode       string      `json:"mode"` // "simcore"
	Benchmarks []Benchmark `json:"benchmarks"`
	// SteadyStateAllocs summarizes the AllocsPerRun gates that pin the
	// warm hot paths (see internal/*/allocs_test.go); all must be zero.
	SteadyStateAllocs map[string]float64 `json:"steady_state_allocs"`
}

// rareEventCycles runs the exact hot loop of montecarlo's
// unavailability estimator: one router, balanced failure biasing,
// `cycles` regenerative cycles. Returns kernel events processed.
func rareEventCycles(seed uint64, cycles int) uint64 {
	const (
		n        = 9
		m        = 4
		targetLC = 0
	)
	src := xrand.New(seed)
	cfg := router.UniformConfig(0, n, m) // DRA
	cfg.Source = src
	r, err := router.New(cfg)
	if err != nil {
		panic(err)
	}
	r.InstallUniformRoutes()
	inj, err := router.NewInjector(r, router.PaperRates(1.0/3))
	if err != nil {
		panic(err)
	}
	b := router.Biasing{Enabled: true}
	b.StopWhen = func() bool { return !r.CanDeliverCached(targetLC) }
	if err := inj.SetBiasing(b); err != nil {
		panic(err)
	}
	inj.Start()
	k := r.Kernel()
	done := 0
	repairs := inj.Repairs
	wentDown := false
	for done < cycles {
		if !k.Step() {
			break
		}
		if !wentDown && !r.CanDeliverCached(targetLC) {
			wentDown = true
		}
		if inj.Repairs != repairs {
			repairs = inj.Repairs
			inj.CheckpointLR()
			done++
			wentDown = false
		}
	}
	return k.Processed
}

func toMetric(r testing.BenchmarkResult) Metric {
	return Metric{
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
	}
}

// RunRareEvent benchmarks 200 regenerative rare-event cycles per op.
func RunRareEvent() Metric {
	var events, ops uint64
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		events, ops = 0, 0
		for i := 0; i < b.N; i++ {
			events += rareEventCycles(uint64(i)+1, 200)
			ops++
		}
	})
	m := toMetric(res)
	if ops > 0 && events > 0 {
		perOp := float64(events) / float64(ops)
		m.NsPerEvent = m.NsPerOp / perOp
		m.EventsPerSec = 1e9 / m.NsPerEvent
		m.AllocsPerEvent = m.AllocsPerOp / perOp
	}
	return m
}

// RunDeliver benchmarks the fault-free packet path: lookup,
// segmentation, fabric transfer, reassembly.
func RunDeliver() Metric {
	r, err := router.New(router.UniformConfig(0, 9, 4))
	if err != nil {
		panic(err)
	}
	r.InstallUniformRoutes()
	p := packet.Get()
	defer packet.Release(p)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst := (i*7)%8 + 1
			*p = packet.Packet{
				ID:    uint64(i),
				SrcLC: i % 9,
				DstIP: workload.PrefixFor(dst) | 1,
				DstLC: -1,
				Bytes: 1500,
			}
			rep := r.Deliver(p)
			if rep.Kind == router.PathDropped {
				b.Fatalf("dropped: %s", rep.DropReason)
			}
		}
	})
	return toMetric(res)
}

// RunScheduler benchmarks a schedule+pop cycle through the kernel.
func RunScheduler() Metric {
	k := sim.NewKernel()
	fn := func() {}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k.Schedule(k.Now()+1, fn)
			k.Step()
		}
	})
	return toMetric(res)
}

// steadyStateAllocs re-measures the warm-path AllocsPerRun gates so the
// report carries live numbers, not just the test wall's pass/fail.
func steadyStateAllocs() map[string]float64 {
	out := make(map[string]float64)

	// Pool cycle.
	for i := 0; i < 64; i++ {
		packet.Release(packet.Get())
	}
	out["packet_pool_cycle"] = testing.AllocsPerRun(200, func() {
		p := packet.Get()
		p.Bytes = 1500
		packet.Release(p)
	})

	// Scheduler hold model: pop one, push one, at stationary population.
	k := sim.NewKernel()
	var fire func()
	fire = func() { k.After(1, fire) }
	k.After(1, fire)
	for i := 0; i < 100; i++ {
		k.Step()
	}
	out["scheduler_hold"] = testing.AllocsPerRun(200, func() { k.Step() })

	// Steady-state Deliver.
	r, err := router.New(router.UniformConfig(0, 6, 3))
	if err != nil {
		panic(err)
	}
	r.InstallUniformRoutes()
	p := packet.Get()
	defer packet.Release(p)
	id := uint64(0)
	deliver := func() {
		id++
		*p = packet.Packet{
			ID:    id,
			SrcLC: 0,
			DstIP: workload.PrefixFor(1) | 0x123,
			DstLC: -1,
			Proto: packet.ProtoEthernet,
			Bytes: 1500,
		}
		if rep := r.Deliver(p); rep.Kind == router.PathDropped {
			panic("dropped: " + rep.DropReason)
		}
	}
	for i := 0; i < 48; i++ {
		deliver()
	}
	out["router_deliver"] = testing.AllocsPerRun(200, deliver)
	return out
}

// Run executes the full simcore suite and assembles the report.
func Run() Report {
	return Report{
		Mode: "simcore",
		Benchmarks: []Benchmark{
			{Name: "rare_event_200_cycles", Metric: RunRareEvent()},
			{Name: "deliver_fault_free", Metric: RunDeliver()},
			{Name: "scheduler_push_pop", Metric: RunScheduler()},
		},
		SteadyStateAllocs: steadyStateAllocs(),
	}
}
