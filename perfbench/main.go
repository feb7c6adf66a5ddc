// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time, checks the program's outputs, and prints every
// metric BENCHMARK.json lists as the last line of standard output:
//
//	bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// tracing. With --trace 1 it reports the per-layer metrics: it wraps the
// seams the public constructors expose, times the public calls each
// layer offers on the workload's own inputs, and scrapes the counters
// the program exports. --smoke runs every workload briefly in both modes.
// See README.md for the workloads and how to read the report.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *run) error{
	"rare":       runRare,
	"serve-hit":  runServeHit,
	"serve-cold": runServeCold,
}

// unlisted names the workloads BENCHMARK.json leaves out. They run on
// demand and in --smoke; README.md says why their figures are not
// steady enough to gate.
var unlisted = map[string]bool{"serve-hit": true}

// run is one invocation's state: its inputs, the metrics measured so
// far, the operation counts and the report lines.
type run struct {
	workload string
	seed     uint64
	dur      time.Duration
	traced   bool
	root     string // checkout root
	work     string // private scratch dir, removed at the end
	drad     string // drad binary built from the checkout
	nproc    int

	metrics   map[string]float64
	counters  map[string]float64 // traced: counters scraped over the measured phase
	measured  time.Time          // traced: start of the measured phase
	attempted int64
	failed    int64
	problems  []string
	lines     []string
	spans     *recorder
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: rare, serve-hit or serve-cold")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
		smoke   = flag.Bool("smoke", false, "run every workload briefly in both modes and exit non-zero on any failure")
		bench   = flag.String("bench", "BENCHMARK.json", "benchmark description")
		drad    = flag.String("drad", filepath.Join(".bench_build", "drad"), "drad binary")
		workDir = flag.String("work", ".bench_build", "directory for state dirs and span files")
	)
	flag.Parse()
	data, err := os.ReadFile(*bench)
	if err != nil {
		fatalf("%v", err)
	}
	bf, err := parseBenchFile(data)
	if err != nil {
		fatalf("%v", err)
	}
	root, _ := os.Getwd()
	base := run{root: root, drad: *drad, nproc: runtime.NumCPU()}
	if *smoke {
		os.Exit(runSmoke(bf, base, *workDir))
	}
	if _, ok := workloads[*name]; !ok {
		fatalf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		fatalf("--seconds must be positive")
	}
	base.workload, base.seed, base.traced = *name, *seed, *trace == 1
	base.dur = time.Duration(*seconds) * time.Second
	res, err := execute(bf, base, *workDir)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// execute runs one workload and assembles its result line.
func execute(bf benchFile, r run, workDir string) (result, error) {
	dir, err := os.MkdirTemp(workDir, "run-"+r.workload+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	r.work, _ = filepath.Abs(dir)
	r.metrics = map[string]float64{}
	if r.traced {
		r.spans = &recorder{}
	}
	host := gatherHost(r.root, r.work)
	r.notef("host %s nproc %d GOMAXPROCS %d %s commit %s state-fs %s",
		host.Host, host.NumCPU, host.GOMAXPROCS, host.GoVersion, host.Commit, host.StateFS)
	ctx, cancel := context.WithTimeout(context.Background(), r.dur+120*time.Second)
	defer cancel()
	steal0, cpu0, wall0 := stealSeconds(), cpuTime(), time.Now()
	if err := workloads[r.workload](ctx, &r); err != nil {
		return result{}, err
	}
	r.notef("run wall %.1fs, harness CPU %.1fs, hypervisor steal %.2f CPU-s",
		time.Since(wall0).Seconds(), (cpuTime() - cpu0).Seconds(), stealSeconds()-steal0)
	if r.traced {
		if err := r.spans.write(filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.json", r.workload, r.seed))); err != nil {
			return result{}, err
		}
		for _, l := range r.spans.selfTimes() {
			r.notef("%s", l)
		}
		r.checkPlan(bf)
	}
	for _, p := range r.problems {
		r.notef("CHECK FAILED: %s", p)
	}
	r.printReport()
	m, err := bf.selectMetrics(r.traced, r.metrics)
	if err != nil {
		return result{}, err
	}
	if r.attempted < 1 {
		return result{}, fmt.Errorf("no operation was attempted")
	}
	return result{Correct: len(r.problems) == 0 && r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
}

// runSmoke runs every workload for one second in both modes.
func runSmoke(bf benchFile, base run, workDir string) int {
	code := 0
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, traced := range []bool{false, true} {
			r := base
			r.workload, r.seed, r.traced, r.dur = n, 1, traced, time.Second
			res, err := execute(bf, r, workDir)
			status := "ok"
			switch {
			case err != nil:
				status, code = "error: "+err.Error(), 1
			case !res.Correct:
				status, code = fmt.Sprintf("incorrect (%d of %d failed)", res.Failed, res.Attempted), 1
			}
			fmt.Printf("smoke %-10s trace=%v: %s\n", n, traced, status)
		}
	}
	return code
}

// set records a metric.
func (r *run) set(name string, v float64) { r.metrics[name] = v }

// timing records a summary in the report and returns it.
func (r *run) timing(name, unit string, xs []float64) Summary {
	s := summarize(xs)
	r.notef("%-28s median %10.4g %-3s tail %10.4g (p%.3g)  n=%d", name, s.Median, unit, s.Tail, s.TailPct, s.N)
	return s
}

// check counts one attempted operation, failed when ok is false.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// problem records a failed output check that is not itself an
// operation (its operation was already counted).
func (r *run) problem(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) notef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// printReport prints the human report: the notes, then every metric.
func (r *run) printReport() {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Printf("== perfbench %s seed %d %s, %s\n", r.workload, r.seed, mode, r.dur)
	for _, l := range r.lines {
		fmt.Println("  " + l)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  metric %-30s %.6g\n", n, r.metrics[n])
	}
}

// subSeed derives the i-th input seed of a run.
func (r *run) subSeed(i int) uint64 {
	x := r.seed*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return x>>16 | 1
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func itoa(i int) string { return strconv.Itoa(i) }

func atof(s string) float64 {
	f, _ := strconv.ParseFloat(strings.TrimSpace(s), 64)
	return f
}
