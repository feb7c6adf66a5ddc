package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	dra "repro"
	"repro/internal/config"
	"repro/internal/jobs"
	"repro/internal/mgmt"
	"repro/internal/store"
)

const (
	// hitWarm is how many distinct jobs serve-hit warms and then repeats.
	hitWarm = 8
	// hitRate is serve-hit's fixed offered rate (requests/s) for p50 and
	// tail, well under what one host serves.
	hitRate = 400
	// hitLimitMs is the tail latency a ladder rate must meet to count as
	// sustained. It sits above the audit log's occasional fsync stalls, so
	// a rate fails on a growing queue rather than on one stall.
	hitLimitMs = 50
	// setupBoots is how many times a service run boots its service.
	setupBoots = 9
	// verifySample is how many serve-cold results are re-run in-process.
	verifySample = 12
	// traceBlocks is how many blocks a traced service phase alternates
	// with audit-append probes, so the probe sees the disk as the
	// requests around it did.
	traceBlocks = 5
	// hitAccountedMin is the least share of the traced serve-hit request
	// latency the independently timed pieces must explain.
	hitAccountedMin = 0.6
	// coldAccountedMin is the least share of a traced serve-cold job's
	// latency its handler spans, queue wait and run span must explain.
	coldAccountedMin = 0.8
	// minCovered and maxCovered bound the share of the measured handler
	// time the direct-call medians of its calls explain (see
	// handlerCover).
	minCovered, maxCovered = 0.6, 1.1
	// coldJobs is how many fresh jobs one drad of serve-cold serves: the
	// run measures segments of this many jobs, each on a freshly booted
	// drad, until --seconds. drad keeps every finished job's record and
	// trace buffer (up to 4096 of them), so its memory grows with each
	// job; a fixed count per process keeps rss_mb comparable between
	// runs and the process small.
	coldJobs = 300
)

// hitSpecs are serve-hit's warm jobs: small reliability estimates with
// seed-derived engine seeds.
func hitSpecs(r *run) [][]byte {
	out := make([][]byte, hitWarm)
	for i := range out {
		out[i] = []byte(fmt.Sprintf(`{"kind":"reliability","router":{"n":4,"m":2},"mc":{"reps":200,"seed":%d}}`, r.subSeed(i)))
	}
	return out
}

// coldSpec is serve-cold's i-th job: a rotation of a small reliability
// estimate (N=4 M=2, 200 replications), a small fixed-budget rare-event
// estimate (64 replications × 20 cycles, about as long a run as the
// other two kinds, so no kind dominates the engine's share), and a
// reliability sweep over N 2..coldSweepN × M 1..coldSweepM at a
// seed-derived time. The engine seed or sweep time steps with i from a
// seed-derived base, so no spec repeats.
func coldSpec(r *run, i int) (kind string, spec []byte) {
	seed := r.subSeed(10_000) + uint64(i)
	switch i % 3 {
	case 0:
		return "reliability", []byte(fmt.Sprintf(`{"kind":"reliability","router":{"n":4,"m":2},"mc":{"reps":200,"seed":%d}}`, seed))
	case 1:
		return "rareevent", []byte(fmt.Sprintf(`{"kind":"rareevent","router":{"n":4,"m":2},"mc":{"reps":64,"cycles_per_rep":20,"delta":0.3,"seed":%d}}`, seed))
	default:
		return "sweep", sweepSpec(r, 10_000, i, coldSweepN, coldSweepM)
	}
}

// coldSweepN and coldSweepM bound serve-cold's sweep grid: N 2..16,
// and M up to 4 so that every N in the grid has a spare-count axis.
const coldSweepN, coldSweepM = 16, 4

// sweepSpec is a reliability sweep over N 2..nHi × M 1..mHi at a time
// that steps by one hour per i from a seed-derived base in [1000, 2000).
func sweepSpec(r *run, stream, i, nHi, mHi int) []byte {
	t := 1000 + float64(r.subSeed(stream+1)%100_000)/100 + float64(i)
	return []byte(fmt.Sprintf(`{"kind":"sweep","sweep":{"analysis":"reliability","n_lo":2,"n_hi":%d,"m_lo":1,"m_hi":%d,"t":%g}}`, nHi, mHi, t))
}

// gridCells is the cell count of an N 2..nHi × M 1..mHi grid (M ≤ N).
func gridCells(nHi, mHi int) int {
	c := 0
	for n := 2; n <= nHi; n++ {
		c += min(n, mHi)
	}
	return c
}

// bootTimed boots a fresh service setupBoots times, running warm on
// each, and keeps the last. Set-up is boot to ready plus warm-up. Its
// cost is the user-mode CPU time drad spent on it, averaged over the
// boots: a boot creates the state dir, key store, audit log and store
// files, and the kernel time for that drifts with the host (see
// README.md). /proc counts user time in 10 ms ticks, so a mean over the
// boots resolves it where a median would not. The wall time and the
// total CPU are reported too.
func bootTimed(r *run, warm func(*target) error) (*target, float64, error) {
	var walls, cpus, users []float64
	var t *target
	for i := 0; i < setupBoots; i++ {
		if t != nil {
			if err := t.close(); err != nil {
				return nil, 0, err
			}
		}
		start := time.Now()
		var err error
		t, err = bootDrad(r, filepath.Join(r.work, fmt.Sprintf("boot%d", i)))
		if err != nil {
			return nil, 0, err
		}
		if err := warm(t); err != nil {
			t.close()
			return nil, 0, err
		}
		walls = append(walls, time.Since(start).Seconds())
		cpus = append(cpus, t.cpu().Seconds())
		u, _ := t.cpuSplit()
		users = append(users, u.Seconds())
	}
	r.timing("set-up wall", "s", walls)
	r.timing("set-up CPU", "s", cpus)
	user := 0.0
	for _, u := range users {
		user += u / float64(len(users))
	}
	r.notef("set-up user CPU mean %.4f s over %d boots", user, len(users))
	return t, user, nil
}

// runJob submits a spec and waits for its result bytes. A non-empty
// reqID names the two calls' spans reqID/submit and reqID/result.
func runJob(ctx context.Context, t *target, reqID string, spec []byte) (snapshot, []byte, error) {
	subID, resID := "", ""
	if reqID != "" {
		subID, resID = reqID+"/submit", reqID+"/result"
	}
	code, snap, err := t.api.submit(subID, spec)
	if err != nil || (code != http.StatusOK && code != http.StatusAccepted) {
		return snap, nil, fmt.Errorf("submit: %d %v", code, err)
	}
	if err := t.api.waitDone(ctx, snap.ID); err != nil {
		return snap, nil, err
	}
	code, res, err := t.api.do(http.MethodGet, "/v1/jobs/"+snap.ID+"/result", resID, nil)
	if err != nil || code != http.StatusOK {
		return snap, nil, fmt.Errorf("result: %d %v", code, err)
	}
	return snap, res, nil
}

// warmHit runs serve-hit's warm jobs and returns their ids and results.
func warmHit(ctx context.Context, t *target, specs [][]byte) ([]string, [][]byte, error) {
	ids := make([]string, len(specs))
	res := make([][]byte, len(specs))
	for i, s := range specs {
		snap, out, err := runJob(ctx, t, "", s)
		if err != nil {
			return nil, nil, fmt.Errorf("warm-up job %d: %w", i, err)
		}
		ids[i], res[i] = snap.ID, out
	}
	return ids, res, nil
}

// hitOp is one serve-hit request: resubmit a warm job, expect a cache
// hit, and fetch its result, which must equal the warm-up result.
func hitOp(r *run, t *target, specs [][]byte, want [][]byte, failures *atomic.Int64) func(i int64) bool {
	var mu sync.Mutex
	fail := func(format string, args ...any) bool {
		failures.Add(1)
		mu.Lock()
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
		mu.Unlock()
		return false
	}
	var seq atomic.Int64 // request IDs stay unique across open-loop steps
	return func(int64) bool {
		i := seq.Add(1) - 1
		k := int((uint64(i)*7 + r.seed) % uint64(len(specs)))
		id := fmt.Sprintf("h%d", i)
		code, snap, err := t.api.submit(id, specs[k])
		if err != nil || code != http.StatusOK || !snap.Cached {
			return fail("hit submit %d: status %d cached %v err %v", i, code, snap.Cached, err)
		}
		code, body, err := t.api.do(http.MethodGet, "/v1/jobs/"+snap.ID+"/result", id, nil)
		if err != nil || code != http.StatusOK || !bytes.Equal(body, want[k]) {
			return fail("hit result %d: status %d err %v, bytes equal %v", i, code, err, bytes.Equal(body, want[k]))
		}
		return true
	}
}

// account folds an open-loop step into the run's operation counts.
func (r *run) account(s openLoopResult, failures *atomic.Int64) {
	r.attempted += s.Sent
	r.failed += failures.Swap(0)
	if len(r.problems) > 20 {
		r.problems = r.problems[:20]
	}
}

func runServeHit(ctx context.Context, r *run) error {
	specs := hitSpecs(r)
	var want [][]byte
	warm := func(t *target) (err error) {
		_, want, err = warmHit(ctx, t, specs)
		return err
	}
	t, setup, err := bootTimed(r, warm)
	if err != nil {
		return err
	}
	defer t.close()
	var failures atomic.Int64
	op := hitOp(r, t, specs, want, &failures)

	fixedDur := r.dur / 4
	if r.traced {
		fixedDur = r.dur / 3
	}
	cpu0, wall0 := t.cpu(), time.Now()
	fixed := openLoop(ctx, hitRate, fixedDur, r.nproc, op)
	cpu, wall := t.cpu()-cpu0, time.Since(wall0)
	r.account(fixed, &failures)
	lat := r.timing(fmt.Sprintf("hit latency @%d/s", hitRate), "ms", fixed.Latency)
	r.timing("gen_late", "ms", fixed.GenLate)
	r.notef("hit @%d/s: sent %d, failed %d, backlog %d, drad CPU %.1f us/request", hitRate, fixed.Sent, fixed.Failed, fixed.Backlog,
		ratio(us(cpu), float64(fixed.Sent)))
	if r.traced {
		r.set("client.p50_ms", lat.Median)
		r.set("client.tail_ms", lat.Tail)
		r.set("client.throughput_per_s", float64(len(fixed.Latency))/wall.Seconds())
		if err := t.close(); err != nil {
			return err
		}
		return hitTraced(ctx, r, specs, lat.Median)
	}
	// The cost metric: drad's user-mode CPU per request over a closed
	// loop on nproc connections.
	u0, s0 := t.cpuSplit()
	wall0 = time.Now()
	sent := closedOps(ctx, r.dur*9/20, r.nproc, op)
	wall = time.Since(wall0)
	u1, s1 := t.cpuSplit()
	r.account(openLoopResult{Sent: sent}, &failures)
	r.notef("hit closed loop on %d connections: %d requests, %.0f/s, drad CPU user %.1f + system %.1f us/request", r.nproc, sent,
		float64(sent)/wall.Seconds(), ratio(us(u1-u0), float64(sent)), ratio(us(s1-s0), float64(sent)))
	r.set("user_cpu_ms_per_op", ratio(ms(u1-u0), float64(sent)))
	r.set("setup_s", setup)
	hitLadder(ctx, r, op, &failures, r.dur*3/10-r.dur/50)
	r.set("rss_mb", t.rssMB())
	return nil
}

// hitLadder finds the highest offered rate whose tail meets hitLimitMs
// with no failed request and no backlog. It doubles from hitRate until a
// rate fails, then bisects between the last rate that passed and the
// first that failed. A rate fails only when a second try fails too, so
// one fsync stall cannot end the climb.
func hitLadder(ctx context.Context, r *run, op func(int64) bool, failures *atomic.Int64, budget time.Duration) {
	const probes = 14
	step := budget / probes
	n := 0
	try := func(rate float64) bool {
		n++
		s := openLoop(ctx, rate, step, r.nproc, op)
		r.account(s, failures)
		sum := summarize(s.Latency)
		ok := s.Failed == 0 && s.Backlog <= s.Sent/100 && sum.N > 0 && sum.Tail <= hitLimitMs
		r.notef("ladder %6.0f/s: sent %5d backlog %4d p50 %7.3f ms tail %8.3f ms (p%.3g) -> %v",
			rate, s.Sent, s.Backlog, sum.Median, sum.Tail, sum.TailPct, ok)
		time.Sleep(20 * time.Millisecond) // let any queue drain between steps
		return ok
	}
	probe := func(rate float64) bool { return try(rate) || (n < probes && try(rate)) }
	pass, failAt := float64(hitRate), 0.0
	for rate := 2.0 * hitRate; n < probes; rate *= 2 {
		if !probe(rate) {
			failAt = rate
			break
		}
		pass = rate
	}
	for n < probes && failAt > 0 {
		mid := (pass + failAt) / 2
		if probe(mid) {
			pass = mid
		} else {
			failAt = mid
		}
	}
	r.notef("hit max sustained rate %.0f/s (tail limit %d ms)", pass, hitLimitMs)
}

// hitTraced repeats the fixed-rate phase on the in-process service with
// every seam wrapped, then times the public calls each layer makes on
// the request path, on the same inputs.
func hitTraced(ctx context.Context, r *run, specs [][]byte, untracedP50 float64) error {
	var ids []string
	var want [][]byte
	t, err := bootStack(r, filepath.Join(r.work, "traced"), 0)
	if err != nil {
		return err
	}
	defer t.close()
	if ids, want, err = warmHit(ctx, t, specs); err != nil {
		return err
	}
	before := t.stack.counters()
	probe, err := newAuditProbe(t, ids)
	if err != nil {
		return err
	}
	defer probe.close()
	r.measured = time.Now()
	var failures atomic.Int64
	op := hitOp(r, t, specs, want, &failures)
	var s openLoopResult
	for b := 0; b < traceBlocks; b++ {
		s.add(openLoop(ctx, hitRate, r.dur/3/traceBlocks, r.nproc, op))
		probe.sample(40, time.Second/hitRate)
	}
	r.account(s, &failures)
	r.counters = diff(t.stack.counters(), before)
	lat := r.timing("traced hit latency", "ms", s.Latency)
	genLate := r.timing("gen_late (traced)", "ms", s.GenLate).Median
	r.set("loadgen.gen_late_ms", genLate)
	r.set("trace.latency_ms", lat.Median)
	r.set("trace.overhead_ms", lat.Median-untracedP50)
	serviceCounters(r, float64(s.Sent))
	r.set("store.objects", t.stack.counters()["store_objects"])

	calls := layerCalls(r, t, specs, ids, want)
	calls["mgmt.audit_append_us"] = probe.report(r)
	handler, transport := requestSplit(r)
	covered := handlerCover(r, calls, handler, minCovered)
	// The share of the traced request latency the independently timed
	// pieces explain: the direct-call medians of the handler's calls,
	// the transport and the generator's lateness. Server self time is
	// the unexplained rest, so a blocking step no direct call covers
	// lowers this share.
	acc := ratio(covered/1000+transport/1000+genLate, lat.Median)
	r.set("trace.accounted_ratio", acc)
	if acc < hitAccountedMin {
		r.problem("serve-hit: timed layers explain %.2f of the traced request latency, below %.2f", acc, hitAccountedMin)
	}
	r.notef("hit request pair: handler %.1f us = calls %.1f us + server self %.1f us; transport %.1f us; gen late %.1f us; traced p50 %.1f us",
		handler, covered, handler-covered, transport, genLate*1000, lat.Median*1000)
	return nil
}

// auditProbe times audit appends to a scratch log beside the live one
// (same filesystem) in short bursts between blocks of a traced phase.
// An fsync costs about three times as much spaced out as back to back
// (≈280 vs ≈100 µs on an ext4 VM disk) and the disk's speed drifts from
// minute to minute, so the appends are paced at the workload's own
// submit spacing and interleaved with the requests they stand for.
type auditProbe struct {
	log *mgmt.Audit
	ids []string
	us  []float64
}

func newAuditProbe(t *target, ids []string) (*auditProbe, error) {
	log, err := mgmt.OpenAudit(filepath.Join(t.stateDir, "perfbench-audit.log"), 0)
	if len(ids) == 0 {
		ids = []string{"0123456789abcdef"}
	}
	return &auditProbe{log: log, ids: ids}, err
}

func (p *auditProbe) sample(n int, spacing time.Duration) {
	p.us = append(p.us, pacedCalls(n, spacing, func(i int) {
		p.log.Append(mgmt.Entry{Tenant: tenant, Verb: string(mgmt.VerbSubmit), Job: p.ids[i%len(p.ids)], Outcome: "cache", Detail: "reliability"})
	})...)
}

// report sets mgmt.audit_append_us and returns it.
func (p *auditProbe) report(r *run) float64 {
	m := r.timing("mgmt.audit_append_us", "us", p.us).Median
	r.set("mgmt.audit_append_us", m)
	return m
}

func (p *auditProbe) close() { p.log.Close() }

// serviceCounters reports the layer ratios the in-process service's
// counters give over the measured phase of reqs requests.
func serviceCounters(r *run, reqs float64) {
	c := r.counters
	r.set("sim.events", c["sim_events_fired_total"])
	r.set("mgmt.audit_entries_per_req", ratio(c["mgmt_audit_entries_total"], reqs))
	r.set("store.hit_ratio", ratio(c["store_hits_total"], c["store_hits_total"]+c["store_misses_total"]))
	jh := c["jobs_cache_hits_total"]
	r.set("jobs.cache_hit_ratio", ratio(jh, jh+c["jobs_submitted_total"]))
}

// handlerCover sums the direct-call medians of the calls one submit and
// one result request make inside their handlers (two key resolutions,
// the spec parse, the admission, the audit append, the job lookup and
// the store read) and fails the run unless they fit inside the measured
// handler time (to within maxCovered) and explain at least minShare of
// it. The remainder is
// the server's own time: routing, body reads and JSON encoding. A
// negative remainder down to -10% of the handler is the noise of
// comparing medians of different calls; below that the direct calls do
// not measure what the handler does, and the run fails.
func handlerCover(r *run, calls map[string]float64, handler, minShare float64) float64 {
	covered := 2*calls["mgmt.resolve_us"] + calls["config.parse_us"] + calls["jobs.submit_us"] +
		calls["mgmt.audit_append_us"] + calls["jobs.get_us"] + calls["store.get_us"]
	share := ratio(covered, handler)
	r.set("server.self_us", handler-covered)
	r.set("server.covered_ratio", share)
	if share < minShare || share > maxCovered {
		r.problem("%s: timed calls sum to %.1f us of a %.1f us handler (share %.2f, want %.2f..%.2f)",
			r.workload, covered, handler, share, minShare, maxCovered)
	}
	return covered
}

// diff is after − before for every counter in after.
func diff(after, before map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// requestSplit reads, per request ID, the client's round trips and the
// handler spans inside them, and reports the median summed handler time
// and the median remainder (transport: connection, kernel, HTTP
// framing on both sides), both in µs.
func requestSplit(r *run) (handlerUs, transportUs float64) {
	type pair struct{ client, handler time.Duration }
	per := map[string]*pair{}
	for _, s := range r.spans.all() {
		if s.Name != "client.request" && s.Name != "server.handler" {
			continue
		}
		req := strings.SplitN(s.ID, "/", 2)[0]
		p := per[req]
		if p == nil {
			p = &pair{}
			per[req] = p
		}
		if s.Name == "client.request" {
			p.client += s.dur()
		} else {
			p.handler += s.dur()
		}
	}
	var hs, ts []float64
	for _, p := range per {
		if p.client > 0 && p.handler > 0 {
			hs = append(hs, us(p.handler))
			ts = append(ts, us(p.client-p.handler))
		}
	}
	h := r.timing("server.handler", "us", hs)
	tr := r.timing("server.transport", "us", ts)
	r.set("server.handler_us", h.Median)
	r.set("server.transport_us", tr.Median)
	return h.Median, tr.Median
}

// layerCalls times the public calls the request path makes, on the
// workload's own inputs: decoding a spec, resolving and authorizing the
// tenant key, reading a result from the store, looking a job up, and
// submitting a job whose result is cached. It returns each median in
// µs. (The audit append is timed by an auditProbe during the traced
// phase.)
func layerCalls(r *run, t *target, specs [][]byte, ids []string, want [][]byte) map[string]float64 {
	s := t.stack
	const n = 2000
	out := map[string]float64{}
	set := func(name string, xs []float64) {
		out[name] = r.timing(name, "us", xs).Median
		r.set(name, out[name])
	}
	parsed := make([]config.Spec, len(specs))
	set("config.parse_us", timeCalls(n, func(i int) {
		parsed[i%len(specs)], _ = config.ParseSpec(specs[i%len(specs)])
	}))
	set("config.decode_us", timeCalls(n, func(i int) {
		sp, err := config.ParseSpec(specs[i%len(specs)])
		if err == nil {
			sp.Normalize()
			sp.JobID()
		}
	}))
	set("mgmt.resolve_us", timeCalls(n, func(int) {
		id, err := s.mg.Resolve(t.api.token)
		if err == nil {
			err = s.mg.Authorize(id, mgmt.VerbSubmit)
		}
		if err != nil {
			r.problem("mgmt.Resolve: %v", err)
		}
	}))
	set("store.get_us", timeCalls(n, func(i int) {
		got, err := s.st.Get(ids[i%len(ids)])
		if err != nil || !bytes.Equal(got, want[i%len(ids)]) {
			r.problem("store.Get %s: %v", ids[i%len(ids)], err)
		}
	}))
	set("jobs.get_us", timeCalls(n, func(i int) {
		if _, err := s.mgr.Get(ids[i%len(ids)]); err != nil {
			r.problem("jobs.Get %s: %v", ids[i%len(ids)], err)
		}
	}))
	set("jobs.submit_us", timeCalls(n, func(i int) {
		snap, err := s.mgr.SubmitAs(tenant, parsed[i%len(parsed)])
		if err != nil || !snap.Cached {
			r.problem("SubmitAs cached spec: %v", err)
		}
	}))
	return out
}

// counters scrapes the in-process service's registry, adding the
// engine counters of every job run so far (each job reports into a
// registry of its own).
func (s *stack) counters() map[string]float64 {
	c := scrape(s.reg.PrometheusText())
	s.fc.mu.Lock()
	for k, v := range s.engine {
		c[k] += v
	}
	s.fc.mu.Unlock()
	return c
}

// coldJob is one completed serve-cold or fleet job.
type coldJob struct {
	kind    string
	req     string // request-ID prefix of its submit and result calls
	id      string
	spec    []byte
	result  []byte
	latency time.Duration
}

// jobSeq numbers closed-loop jobs across every loop of a run, so the
// request IDs that tie client and handler spans together never repeat.
var jobSeq atomic.Int64

// closedLoop runs clients that each submit the next fresh job and wait
// for its result, until maxJobs (0: no limit) have been started or the
// window closes. The window closes only at a multiple of unit jobs, so
// a workload that rotates through unit kinds measures whole rotations;
// jobs in flight at the close finish and count. It returns the completed jobs and the time from the
// start to the last completion.
func closedLoop(ctx context.Context, r *run, t *target, clients, maxJobs, unit int, window time.Duration, next func(i int) (string, []byte)) ([]coldJob, time.Duration) {
	var (
		mu   sync.Mutex
		done []coldJob
		wg   sync.WaitGroup
		seq  atomic.Int64
		last time.Time
	)
	start := time.Now()
	end := start.Add(window)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(seq.Add(1) - 1)
				if (maxJobs > 0 && i >= maxJobs) || (i%unit == 0 && !time.Now().Before(end)) {
					return
				}
				kind, spec := next(i)
				t0 := time.Now()
				req := fmt.Sprintf("j%d", jobSeq.Add(1))
				snap, res, err := runJob(ctx, t, req, spec)
				lat := time.Since(t0)
				mu.Lock()
				r.attempted++
				switch {
				case err != nil:
					r.failed++
					r.problems = append(r.problems, fmt.Sprintf("job %d (%s): %v", i, kind, err))
				case snap.Cached:
					r.failed++
					r.problems = append(r.problems, fmt.Sprintf("job %d (%s) was a cache hit; every spec must be new", i, kind))
				default:
					done = append(done, coldJob{kind: kind, req: req, id: snap.ID, spec: spec, result: res, latency: lat})
					r.spans.add("client.job", snap.ID, "", t0, t0.Add(lat))
					if t0.Add(lat).After(last) {
						last = t0.Add(lat)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(r.problems) > 20 {
		r.problems = r.problems[:20]
	}
	if last.IsZero() { // the window closed before any job started
		return done, 0
	}
	return done, last.Sub(start)
}

// standalone runs a spec through the in-process default runners, the
// reference every served or fleet-merged result must equal byte for
// byte.
func standalone(ctx context.Context, spec []byte) ([]byte, error) {
	sp, err := config.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	run, ok := dra.DefaultRunners()[sp.Kind]
	if !ok {
		return nil, fmt.Errorf("no runner for %q", sp.Kind)
	}
	rc := jobs.RunContext{Progress: func(string) {}}
	return run(ctx, rc, sp)
}

// verify re-runs jobs in-process, outside any timed window, and counts
// each mismatch as a failed operation.
func verify(ctx context.Context, r *run, js []coldJob) {
	for _, j := range js {
		want, err := standalone(ctx, j.spec)
		if err != nil || !bytes.Equal(want, j.result) {
			r.problem("job %s (%s): result differs from the in-process run (err %v)", j.id, j.kind, err)
		}
	}
	r.notef("verified %d results byte-identical to in-process runs", len(js))
}

// sample picks up to n jobs spread evenly over js.
func sample(js []coldJob, n int) []coldJob {
	if len(js) <= n {
		return js
	}
	out := make([]coldJob, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, js[i*len(js)/n])
	}
	return out
}

func latenciesMs(js []coldJob) []float64 {
	out := make([]float64, len(js))
	for i, j := range js {
		out[i] = ms(j.latency)
	}
	return out
}

func runServeCold(ctx context.Context, r *run) error {
	// The same warm-up as serve-hit: it fills the store with results the
	// measured jobs, all distinct, never hit.
	specs := hitSpecs(r)
	warm := func(t *target) error {
		_, _, err := warmHit(ctx, t, specs)
		return err
	}
	t, setup, err := bootTimed(r, warm)
	if err != nil {
		return err
	}
	defer func() { t.close() }()
	window := r.dur
	if r.traced {
		window = r.dur / 3
	}
	// Segments of at most coldJobs jobs, each on a freshly booted and
	// warmed drad (the first on the last set-up boot), fill the window.
	deadline := time.Now().Add(window)
	var (
		js       []coldJob
		elapsed  time.Duration
		cpu      time.Duration
		rss      float64
		segs     int
		usr, sys time.Duration
	)
	for ; segs == 0 || time.Now().Before(deadline); segs++ {
		if segs > 0 {
			if t, err = bootDrad(r, filepath.Join(r.work, fmt.Sprintf("seg%d", segs))); err != nil {
				return err
			}
			if err := warm(t); err != nil {
				return err
			}
		}
		base := len(js)
		next := func(i int) (string, []byte) { return coldSpec(r, base+i) }
		cpu0 := t.cpu()
		u0, s0 := t.cpuSplit()
		part, d := closedLoop(ctx, r, t, r.nproc, coldJobs, 1, time.Until(deadline), next)
		cpu += t.cpu() - cpu0
		u1, s1 := t.cpuSplit()
		usr, sys = usr+u1-u0, sys+s1-s0
		rss = max(rss, t.rssMB())
		if err := t.close(); err != nil {
			return err
		}
		js, elapsed = append(js, part...), elapsed+d
	}
	lat := r.timing("cold submit->result", "ms", latenciesMs(js))
	r.notef("cold: %d jobs in %d segments, %.2fs = %.1f jobs/s, drad CPU %.2f ms/job (user %.2f + system %.2f)", len(js), segs,
		elapsed.Seconds(), float64(len(js))/elapsed.Seconds(), ratio(ms(cpu), float64(len(js))),
		ratio(ms(usr), float64(len(js))), ratio(ms(sys), float64(len(js))))
	byKind := map[string][]float64{}
	for _, j := range js {
		byKind[j.kind] = append(byKind[j.kind], ms(j.latency))
	}
	for _, k := range []string{"reliability", "rareevent", "sweep"} {
		r.timing("cold "+k, "ms", byKind[k])
	}
	verify(ctx, r, sample(js, verifySample))
	if r.traced {
		r.set("client.p50_ms", lat.Median)
		r.set("client.tail_ms", lat.Tail)
		r.set("client.throughput_per_s", float64(len(js))/elapsed.Seconds())
		if err := coldTraced(ctx, r, len(js), lat.Median); err != nil {
			return err
		}
		return fleetPhase(ctx, r, r.dur/3)
	}
	r.set("user_cpu_ms_per_op", ratio(ms(usr), float64(len(js))))
	r.set("setup_s", setup)
	r.set("rss_mb", rss)
	return nil
}

// coldTraced runs the closed loop on the in-process service with every
// seam wrapped, continuing the spec sequence past the untraced phase so
// no spec repeats, then times the public calls the request path makes
// on the jobs it ran.
func coldTraced(ctx context.Context, r *run, offset int, untracedP50 float64) error {
	t, err := bootStack(r, filepath.Join(r.work, "traced"), 0)
	if err != nil {
		return err
	}
	defer t.close()
	probe, err := newAuditProbe(t, nil)
	if err != nil {
		return err
	}
	defer probe.close()
	before := t.stack.counters()
	r.measured = time.Now()
	var js []coldJob
	var elapsed time.Duration
	for b := 0; b < traceBlocks; b++ {
		base := offset + len(js)
		next := func(i int) (string, []byte) { return coldSpec(r, base+i) }
		part, d := closedLoop(ctx, r, t, r.nproc, coldJobs/3/traceBlocks, 1, r.dur/3/traceBlocks, next)
		js, elapsed = append(js, part...), elapsed+d
		if len(part) > 0 {
			probe.sample(10, d/time.Duration(len(part)))
		}
	}
	r.counters = diff(t.stack.counters(), before)
	if len(js) == 0 {
		return fmt.Errorf("no traced job completed")
	}
	lat := r.timing("traced cold submit->result", "ms", latenciesMs(js))
	r.set("trace.latency_ms", lat.Median)
	r.set("trace.overhead_ms", lat.Median-untracedP50)
	verify(ctx, r, sample(js, verifySample/3))

	// The share of each job's latency spent inside the service: its
	// submit and result handlers, its wait in the queue (the scheduler's
	// own stamps) and its run. The rest is transport, the event stream
	// and the client.
	handlers := map[string]time.Duration{}
	runs := map[string]time.Duration{}
	for _, s := range r.spans.all() {
		switch {
		case s.Name == "server.handler":
			handlers[strings.SplitN(s.ID, "/", 2)[0]] += s.dur()
		case strings.HasPrefix(s.Name, "jobs.run."):
			runs[s.ID] += s.dur()
		}
	}
	var waits, accounted []float64
	for _, j := range js {
		code, body, err := t.api.do(http.MethodGet, "/v1/jobs/"+j.id, "", nil)
		var s snapshot
		if err == nil && code == http.StatusOK && json.Unmarshal(body, &s) == nil && s.StartedAt != nil {
			w := s.StartedAt.Sub(s.SubmittedAt)
			waits = append(waits, ms(w))
			accounted = append(accounted, ratio(ms(handlers[j.req]+w+runs[j.id]), ms(j.latency)))
		}
	}
	r.set("jobs.queue_wait_ms", r.timing("jobs.queue_wait", "ms", waits).Median)
	acc := r.timing("cold accounted share", "ratio", accounted).Median
	r.set("trace.accounted_ratio", acc)
	if acc < coldAccountedMin {
		r.problem("serve-cold: handlers, queue wait and run explain %.2f of the job latency, below %.2f", acc, coldAccountedMin)
	}
	runSpans(r, len(js), gridCells(coldSweepN, coldSweepM))
	r.set("mgmt.admit_us", r.timing("mgmt.admit", "us", usOf(r.spans.named("mgmt.admit"))).Median)
	serviceCounters(r, float64(len(js)))
	r.set("store.objects", t.stack.counters()["store_objects"])
	handler, transport := requestSplit(r)

	specs, ids, results := make([][]byte, len(js)), make([]string, len(js)), make([][]byte, len(js))
	for i, j := range js {
		specs[i], ids[i], results[i] = j.spec, j.id, j.result
	}
	calls := layerCalls(r, t, specs, ids, results)
	calls["mgmt.audit_append_us"] = probe.report(r)
	// A fresh admission, not the cached one layerCalls timed: specs no
	// phase has run.
	submits := timeCalls(6, func(i int) {
		_, spec := coldSpec(r, 1_000_000+i)
		sp, err := config.ParseSpec(spec)
		if err == nil {
			_, err = t.stack.mgr.SubmitAs(tenant, sp)
		}
		if err != nil {
			r.problem("SubmitAs fresh spec: %v", err)
		}
	})
	calls["jobs.submit_us"] = r.timing("jobs.submit (fresh)", "us", submits).Median
	r.set("jobs.submit_us", calls["jobs.submit_us"])
	// Store writes, timed on this phase's results in a scratch store on
	// the same filesystem, paced at the phase's job spacing.
	scratch, err := store.Open(filepath.Join(t.stateDir, "perfbench-store"), store.Options{})
	if r.check(err == nil, "scratch store: %v", err) {
		r.set("store.put_ms", r.timing("store.put", "ms", msOf(pacedCalls(min(len(js), 50), elapsed/time.Duration(len(js)), func(i int) {
			if err := scratch.Put(js[i].id, js[i].result); err != nil {
				r.problem("store.Put: %v", err)
			}
		}))).Median)
	}
	// On serve-cold the handlers share the two CPUs with the engines
	// running jobs, so their time includes waiting for a CPU, which no
	// direct call covers: the covered share is reported, and only its
	// upper bound is checked.
	covered := handlerCover(r, calls, handler, 0)
	r.notef("cold request pair: handler %.1f us = calls %.1f us + server self %.1f us; transport %.1f us per job",
		handler, covered, handler-covered, transport)
	return nil
}

// runSpans reports the runner spans: run time per kind, the sweep
// share, and telemetry samples per job. Every sweep the workload runs
// (whole or as shards) covers sweepCells cells in total.
func runSpans(r *run, jobsRun, sweepCells int) {
	for _, k := range []string{"reliability", "rareevent", "sweep", "availability"} {
		ss := r.spans.named("jobs.run." + k)
		r.set("jobs.run_ms."+k, r.timing("jobs.run."+k, "ms", durationsMs(ss)).Median)
		if k == "sweep" && len(ss) > 0 {
			jobs := map[string]time.Duration{}
			for _, s := range ss {
				jobs[s.ID] += s.dur()
			}
			r.set("sweep.cells", float64(len(jobs)*sweepCells))
			var per []float64
			for _, d := range jobs {
				per = append(per, ms(d)/float64(sweepCells))
			}
			r.set("markov.cell_ms", r.timing("markov.cell (busy per cell)", "ms", per).Median)
		}
	}
	r.set("telemetry.samples_per_job", ratio(float64(len(r.spans.named("telemetry.sample"))), float64(jobsRun)))
}

func usOf(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = us(s.dur())
	}
	return out
}

func msOf(usecs []float64) []float64 {
	out := make([]float64, len(usecs))
	for i, u := range usecs {
		out[i] = u / 1000
	}
	return out
}
