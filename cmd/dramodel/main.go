// Command dramodel solves the paper's Markov dependability models from
// the command line.
//
// Usage:
//
//	dramodel -analysis reliability -arch dra -n 9 -m 4 -t 40000
//	dramodel -analysis reliability -arch dra -n 9 -m 4 -grid 0:100000:5000
//	dramodel -analysis availability -arch bdr -mu 0.3333
//	dramodel -analysis mttf -arch dra -n 6 -m 3
//	dramodel -analysis reliability -sweep -nrange 3:9 -mrange 2:8 -workers 4
//
// -analysis is one of reliability, availability, mttf,
// transient-availability (A(t) over -grid), interval-availability
// (expected uptime fraction over -t), sensitivity (dR(t)/dλ per
// failure rate) or dot (the reliability chain in Graphviz form).
//
// -sweep fans reliability, availability or mttf out over an N×M grid
// on the worker-pool sweep engine; cells with M > N are skipped.
//
// -metrics-addr serves /metrics (computed results as gauges), expvar
// and pprof while the solver runs; -metrics-out writes the final dump
// to a file.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/config"
	"repro/internal/linecard"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/sweep"
)

var reg *metrics.Registry // nil unless -metrics-addr / -metrics-out given

// lc owns the shared lifecycle: interrupt context, artifact flushers,
// and the exit-code conventions (130 on SIGINT/SIGTERM after flushing).
var lc = cli.New("dramodel")

// publish records a solved quantity as a gauge so long grid sweeps can be
// watched (and profiled) over -metrics-addr.
func publish(name, help string, v float64) {
	reg.Gauge(name, help).Set(v)
	reg.Counter("dramodel_solves_total", "Model evaluations performed.").Inc()
}

func main() {
	os.Exit(run())
}

// run is main's body; returning instead of exiting lets the deferred
// -metrics-out flush execute before the process exits, including on the
// interrupted path (exit 130).
func run() int {
	var (
		analysis = flag.String("analysis", "reliability", strings.Join(analysisNames, " | "))
		spec     = flag.String("spec", "", "run a sweep job-spec JSON file (overrides -analysis/-sweep and the grid flags)")
		arch     = flag.String("arch", "dra", "dra | bdr")
		n        = flag.Int("n", 6, "number of linecards N")
		m        = flag.Int("m", 3, "linecards sharing LCUA's protocol, M")
		t        = flag.Float64("t", 40000, "evaluation time in hours (reliability)")
		grid     = flag.String("grid", "", "time grid start:end:step (reliability series)")
		mu       = flag.Float64("mu", 1.0/3, "repair rate μ per hour (availability)")

		sweepMode = flag.Bool("sweep", false, "sweep the analysis over an N×M grid (-nrange/-mrange/-workers)")
		nRange    = flag.String("nrange", "", "N range lo:hi for -sweep (default -n alone)")
		mRange    = flag.String("mrange", "", "M range lo:hi for -sweep (default -m alone)")
		workers   = flag.Int("workers", 0, "sweep worker-pool size; 0 = NumCPU")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, expvar and pprof on this address (e.g. :9090 or :0)")
		metricsOut  = flag.String("metrics-out", "", "write the final Prometheus metrics dump to this file")
	)
	flag.Parse()

	// -spec: a sweep job-spec document drives the run instead of the
	// grid flags; the same document submitted to drad produces the same
	// table (and the same content address).
	if *spec != "" {
		sp, err := config.LoadSpec(*spec)
		if err != nil {
			usageError(err)
		}
		sp = sp.Normalize()
		if sp.Kind != config.KindSweep {
			usageError(fmt.Errorf("spec kind %q is not runnable by dramodel (only %q; use drasim or drad for the rest)", sp.Kind, config.KindSweep))
		}
		*analysis = sp.Sweep.Analysis
		*sweepMode = true
		*nRange = fmt.Sprintf("%d:%d", sp.Sweep.NLo, sp.Sweep.NHi)
		*mRange = fmt.Sprintf("%d:%d", sp.Sweep.MLo, sp.Sweep.MHi)
		// Normalize zeroes the fields the analysis ignores; keep the
		// flag defaults there so validation still passes.
		if sp.Sweep.T > 0 {
			*t = sp.Sweep.T
		}
		if sp.Sweep.Mu > 0 {
			*mu = sp.Sweep.Mu
		}
		if sp.Sweep.Workers > 0 {
			*workers = sp.Sweep.Workers
		}
	}

	// Flag validation: reject bad values with a non-zero exit instead of
	// silently continuing with defaults.
	var a linecard.Arch
	switch strings.ToLower(*arch) {
	case "dra":
		a = linecard.DRA
	case "bdr":
		a = linecard.BDR
	default:
		usageError(fmt.Errorf("unknown arch %q (want dra or bdr)", *arch))
	}
	if *n < 2 {
		usageError(fmt.Errorf("-n must be at least 2, got %d", *n))
	}
	if *m < 1 || *m > *n {
		usageError(fmt.Errorf("-m must be within [1, %d], got %d", *n, *m))
	}
	if *t < 0 {
		usageError(fmt.Errorf("-t must not be negative, got %g", *t))
	}
	if *mu <= 0 {
		usageError(fmt.Errorf("-mu must be positive, got %g", *mu))
	}
	if *workers < 0 {
		usageError(fmt.Errorf("-workers must not be negative, got %d", *workers))
	}
	if (*nRange != "" || *mRange != "") && !*sweepMode {
		usageError(fmt.Errorf("-nrange/-mrange require -sweep"))
	}
	if err := checkAnalysis(strings.ToLower(*analysis), *sweepMode); err != nil {
		usageError(err)
	}

	// A SIGINT/SIGTERM cancels the sweep engine at the next cell
	// boundary; partial -metrics-out output still flushes and the
	// process exits 130 (see internal/cli).
	ctx := lc.Context()

	if *metricsAddr != "" || *metricsOut != "" {
		reg = metrics.NewRegistry()
	}
	if *metricsAddr != "" {
		srv, addr, err := metrics.Serve(*metricsAddr, reg, nil)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "dramodel: serving metrics on http://%s/\n", addr)
	}
	if *metricsOut != "" {
		lc.OnExit("metrics dump", func() error {
			return os.WriteFile(*metricsOut, []byte(reg.PrometheusText()), 0o644)
		})
	}

	if *sweepMode {
		return lc.Exit(runSweep(ctx, a, strings.ToLower(*analysis), *nRange, *mRange, *n, *m, *t, *mu, *workers))
	}

	p := models.PaperParams(*n, *m)

	build := func(withRepair bool) *models.Model {
		md, err := buildModel(a, p, withRepair)
		if err != nil {
			fatal(err)
		}
		return md
	}

	switch strings.ToLower(*analysis) {
	case "reliability":
		md := build(false)
		if *grid != "" {
			times, err := parseGrid(*grid)
			if err != nil {
				fatal(err)
			}
			tb := report.NewTable(md.Name, "t (h)", "R(t)")
			for i, r := range md.ReliabilitySeries(times) {
				tb.AddRow(times[i], fmt.Sprintf("%.9f", r))
			}
			fmt.Print(tb.String())
			return lc.Exit(0)
		}
		r := md.ReliabilityAt(*t)
		publish("dramodel_reliability", "Last computed R(t).", r)
		fmt.Printf("%s: R(%g) = %.9f\n", md.Name, *t, r)
	case "availability":
		p.Mu = *mu
		md := build(true)
		av := md.Availability()
		publish("dramodel_availability", "Last computed steady-state availability.", av)
		fmt.Printf("%s: A = %.12f (%s)\n", md.Name, av, stats.FormatNines(av, 16))
	case "transient-availability":
		p.Mu = *mu
		md := build(true)
		times, err := parseGrid(gridOrDefault(*grid, "0:100:10"))
		if err != nil {
			fatal(err)
		}
		tb := report.NewTable(md.Name, "t (h)", "A(t)")
		for _, tt := range times {
			tb.AddRow(tt, fmt.Sprintf("%.12f", md.AvailabilityAt(tt)))
		}
		fmt.Print(tb.String())
	case "interval-availability":
		p.Mu = *mu
		md := build(true)
		ia := md.IntervalAvailability(*t, 128)
		fmt.Printf("%s: E[uptime fraction over %g h] = %.12f (expected downtime %.4f h)\n",
			md.Name, *t, ia, (1-ia)**t)
	case "sensitivity":
		ss, err := models.ReliabilitySensitivity(p, *t, 0)
		if err != nil {
			fatal(err)
		}
		tb := report.NewTable(fmt.Sprintf("DRA R(%g) rate sensitivity (N=%d, M=%d)", *t, *n, *m),
			"rate", "base", "dR/dλ", "elasticity")
		for _, s := range ss {
			tb.AddRow(s.Param, fmt.Sprintf("%.2e", s.Base),
				fmt.Sprintf("%.4e", s.Derivative), fmt.Sprintf("%+.5f", s.Elasticity))
		}
		fmt.Print(tb.String())
	case "dot":
		md := build(false)
		fmt.Print(md.Chain().DOT(md.Name, func(l string) bool { return l == models.FailState }))
	case "mttf":
		md := build(false)
		v, err := md.MTTF()
		if err != nil {
			fatal(err)
		}
		publish("dramodel_mttf_hours", "Last computed mean time to failure.", v)
		fmt.Printf("%s: MTTF = %.1f hours (%.2f years)\n", md.Name, v, v/8760)
	}
	return lc.Exit(0)
}

var (
	// analysisNames are the -analysis values, in help order.
	analysisNames = []string{"reliability", "availability", "mttf",
		"transient-availability", "interval-availability", "sensitivity", "dot"}
	// sweepAnalyses are the ones -sweep can fan out over an N×M grid.
	sweepAnalyses = []string{"reliability", "availability", "mttf"}
)

// checkAnalysis rejects an unknown analysis, or one -sweep cannot fan
// out, before any work starts: both are bad invocations.
func checkAnalysis(name string, sweep bool) error {
	switch {
	case !slices.Contains(analysisNames, name):
		return fmt.Errorf("unknown analysis %q (want %s)", name, strings.Join(analysisNames, ", "))
	case sweep && !slices.Contains(sweepAnalyses, name):
		return fmt.Errorf("analysis %q does not support -sweep (want %s)", name, strings.Join(sweepAnalyses, ", "))
	}
	return nil
}

func buildModel(a linecard.Arch, p models.Params, withRepair bool) (*models.Model, error) {
	switch {
	case a == linecard.BDR && withRepair:
		return models.BDRAvailability(p)
	case a == linecard.BDR:
		return models.BDRReliability(p)
	case withRepair:
		return models.DRAAvailability(p)
	default:
		return models.DRAReliability(p)
	}
}

// runSweep fans one analysis out over an N×M grid on the sweep engine
// and prints the results as a table (cells in deterministic grid order
// whatever the worker count). An interrupt cancels the pool at the next
// cell boundary and yields exit 130.
func runSweep(ctx context.Context, a linecard.Arch, analysis, nRange, mRange string, n, m int, t, mu float64, workers int) int {
	ns, err := parseRange(nRange, n)
	if err != nil {
		usageError(err)
	}
	ms, err := parseRange(mRange, m)
	if err != nil {
		usageError(err)
	}
	type cell struct{ N, M int }
	var cells []cell
	for _, nn := range ns {
		for _, mm := range ms {
			if nn >= 2 && mm >= 1 && mm <= nn {
				cells = append(cells, cell{nn, mm})
			}
		}
	}
	if len(cells) == 0 {
		usageError(fmt.Errorf("sweep grid %q × %q has no valid (N, M) cells", nRange, mRange))
	}

	var header string
	eval := func(p models.Params) (float64, error) {
		switch analysis {
		case "reliability":
			md, err := buildModel(a, p, false)
			if err != nil {
				return 0, err
			}
			return md.ReliabilityAt(t), nil
		case "availability":
			p.Mu = mu
			md, err := buildModel(a, p, true)
			if err != nil {
				return 0, err
			}
			return md.Availability(), nil
		case "mttf":
			md, err := buildModel(a, p, false)
			if err != nil {
				return 0, err
			}
			return md.MTTF()
		default:
			return 0, fmt.Errorf("analysis %q does not support -sweep", analysis)
		}
	}
	switch analysis {
	case "reliability":
		header = fmt.Sprintf("R(%g)", t)
	case "availability":
		header = "A"
	case "mttf":
		header = "MTTF (h)"
	}

	opt := sweep.Options{Workers: workers, Metrics: reg, Name: "dramodel_" + analysis}
	vals, err := sweep.Map(ctx, cells, opt, func(_ context.Context, c cell) (float64, error) {
		return eval(models.PaperParams(c.N, c.M))
	})
	if errors.Is(err, context.Canceled) {
		// The lifecycle's Exit maps the cancelled context to 130 and
		// prints the interruption notice after flushing artifacts.
		return cli.ExitInterrupted
	}
	if err != nil {
		fatal(err)
	}

	tb := report.NewTable(fmt.Sprintf("%s sweep (%s)", analysis, archName(a)), "N", "M", header)
	for i, c := range cells {
		v := fmt.Sprintf("%.9f", vals[i])
		if analysis == "availability" {
			v = fmt.Sprintf("%.12f (%s)", vals[i], stats.FormatNines(vals[i], 16))
		} else if analysis == "mttf" {
			v = fmt.Sprintf("%.1f", vals[i])
		}
		tb.AddRow(c.N, c.M, v)
		publish(fmt.Sprintf("dramodel_sweep_n%d_m%d", c.N, c.M), "Sweep cell result.", vals[i])
	}
	fmt.Print(tb.String())
	return 0
}

func archName(a linecard.Arch) string {
	if a == linecard.BDR {
		return "BDR"
	}
	return "DRA"
}

// parseRange parses "lo:hi" into the inclusive integer range; an empty
// string collapses to the single fallback value.
func parseRange(s string, fallback int) ([]int, error) {
	if s == "" {
		return []int{fallback}, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return nil, fmt.Errorf("range must be lo:hi, got %q", s)
	}
	lo, err := strconv.Atoi(parts[0])
	if err != nil {
		return nil, fmt.Errorf("bad range %q: %v", s, err)
	}
	hi, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, fmt.Errorf("bad range %q: %v", s, err)
	}
	if hi < lo {
		return nil, fmt.Errorf("bad range %q: hi < lo", s)
	}
	var out []int
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out, nil
}

func gridOrDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func parseGrid(s string) ([]float64, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("grid must be start:end:step, got %q", s)
	}
	var v [3]float64
	for i, p := range parts {
		x, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, err
		}
		v[i] = x
	}
	if v[2] <= 0 || v[1] < v[0] {
		return nil, fmt.Errorf("bad grid %q", s)
	}
	var out []float64
	for t := v[0]; t <= v[1]+1e-9; t += v[2] {
		out = append(out, t)
	}
	return out, nil
}

// usageError and fatal delegate to the shared lifecycle conventions
// (exit 2 for bad invocations, 1 for malfunctions).
func usageError(err error) { lc.UsageError(err) }

func fatal(err error) { lc.Fatal(err) }
