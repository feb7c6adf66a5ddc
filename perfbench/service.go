package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	dra "repro"
	"repro/internal/config"
	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/mgmt"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// tenant is the one tenant every service workload submits as.
const tenant = "bench"

// reqHeader carries the benchmark's request ID to the traced handler so
// client and server spans of one request share it.
const reqHeader = "X-Perfbench-Req"

// target is a running service under test: a real drad (standalone or a
// coordinator with workers) or, in a traced run, the same service built
// in-process from the public constructors with every seam wrapped.
type target struct {
	api      *api
	stateDir string
	procs    []*dradProc // real drad processes; empty in-process
	stack    *stack      // in-process service; nil for real drad
}

// rssMB is the summed peak RSS of the target's processes.
func (t *target) rssMB() float64 {
	s := 0.0
	for _, p := range t.procs {
		s += peakRSSMB(p.cmd.Process.Pid)
	}
	return s
}

// cpu is the summed CPU time of the target's processes so far; for the
// in-process service, the benchmark process's own.
func (t *target) cpu() time.Duration {
	if t.stack != nil {
		return cpuTime()
	}
	var d time.Duration
	for _, p := range t.procs {
		d += procCPU(p.cmd.Process.Pid)
	}
	return d
}

// cpuSplit is the summed user and system CPU time of the target's
// processes so far (zero for the in-process service).
func (t *target) cpuSplit() (user, sys time.Duration) {
	for _, p := range t.procs {
		u, s := procTicks(p.cmd.Process.Pid)
		user, sys = user+u, sys+s
	}
	return user, sys
}

// close stops every process (workers first) and waits for each.
func (t *target) close() error {
	var errs []error
	for i := len(t.procs) - 1; i >= 0; i-- {
		errs = append(errs, t.procs[i].stop())
	}
	if t.stack != nil {
		errs = append(errs, t.stack.close())
	}
	t.api.hc.CloseIdleConnections()
	return errors.Join(errs...)
}

// dradProc is one drad child process.
type dradProc struct {
	cmd    *exec.Cmd
	exited chan struct{}
}

// startDrad launches drad and waits for the first stdout line matching
// ready, returning the process and every stdout line read so far.
func startDrad(bin string, args []string, ready, logPath string) (*dradProc, []string, error) {
	cmd := exec.Command(bin, args...)
	// A drad outliving a crashed benchmark would skew whatever runs next.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	p := &dradProc{cmd: cmd, exited: make(chan struct{})}
	// Buffered so the few lines drad prints before it is ready are never
	// dropped while this function is between receives; later lines are
	// drained and discarded.
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default: // nobody waiting any more: drain only
			}
		}
		close(lines)
		cmd.Wait()
		close(p.exited)
	}()
	var seen []string
	timeout := time.After(30 * time.Second)
	for {
		select {
		case l, ok := <-lines:
			if !ok {
				<-p.exited
				log, _ := os.ReadFile(logPath)
				return nil, seen, fmt.Errorf("drad exited before ready: %s %s", strings.Join(seen, " | "), log)
			}
			seen = append(seen, l)
			if strings.Contains(l, ready) {
				return p, seen, nil
			}
		case <-timeout:
			p.stop()
			return nil, seen, fmt.Errorf("drad not ready after 30s")
		}
	}
}

// stop sends SIGTERM (drad drains and exits 130) and waits; a process
// still alive after ten seconds is killed.
func (p *dradProc) stop() error {
	select {
	case <-p.exited:
		return nil
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
		return nil
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
		return fmt.Errorf("drad pid %d ignored SIGTERM", p.cmd.Process.Pid)
	}
}

// bootDrad starts a real standalone drad with authentication required
// and mints one tenant key with the bootstrap admin token.
func bootDrad(r *run, dir string) (*target, error) {
	args := []string{"-addr", "127.0.0.1:0", "-state-dir", filepath.Join(dir, "drad"), "-allow-anonymous=false"}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p, lines, err := startDrad(r.drad, args, "serving on http://", filepath.Join(dir, "drad.log"))
	if err != nil {
		return nil, err
	}
	t := &target{stateDir: filepath.Join(dir, "drad"), procs: []*dradProc{p}}
	var admin, base string
	for _, l := range lines {
		if _, tok, ok := strings.Cut(l, " token "); ok {
			admin = strings.Fields(tok)[0]
		}
		if _, a, ok := strings.Cut(l, "serving on "); ok {
			base = strings.Fields(a)[0]
		}
	}
	t.api = newAPI(base, admin, r.nproc)
	fail := func(err error) (*target, error) {
		t.close()
		return nil, err
	}
	if admin == "" {
		return fail(fmt.Errorf("drad printed no bootstrap token"))
	}
	code, body, err := t.api.do(http.MethodPost, "/v1/keys", "", []byte(`{"tenant":"`+tenant+`","role":"operator"}`))
	if err != nil || code != http.StatusCreated {
		return fail(fmt.Errorf("minting tenant key: %d %s %v", code, body, err))
	}
	var key struct {
		Token string `json:"token"`
	}
	if err := json.Unmarshal(body, &key); err != nil {
		return fail(err)
	}
	t.api.token = key.Token
	return t, nil
}

// api is a client of the drad HTTP API on at most conns connections.
type api struct {
	base  string
	token string
	hc    *http.Client
	spans *recorder
}

func newAPI(base, token string, conns int) *api {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	return &api{base: base, token: token, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

// do sends one request and reads the whole response. reqID, when set,
// is sent to the traced handler and names the client span.
func (a *api) do(method, path, reqID string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, a.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Authorization", "Bearer "+a.token)
	if reqID != "" {
		req.Header.Set(reqHeader, reqID)
	}
	start := time.Now()
	resp, err := a.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if reqID != "" {
		a.spans.add("client.request", reqID, "", start, time.Now())
	}
	return resp.StatusCode, data, err
}

// snapshot is the part of a job snapshot the benchmark reads.
type snapshot struct {
	ID          string     `json:"id"`
	Cached      bool       `json:"cached"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at"`
}

// submit posts a spec; a 200 or 202 decodes the job snapshot.
func (a *api) submit(reqID string, spec []byte) (int, snapshot, error) {
	code, body, err := a.do(http.MethodPost, "/v1/jobs", reqID, spec)
	var s snapshot
	if err == nil && (code == http.StatusOK || code == http.StatusAccepted) {
		err = json.Unmarshal(body, &s)
	}
	return code, s, err
}

// waitDone follows the job's event stream until it reaches a final
// state. The stream is primed with the current state, so a job that is
// already done ends it at once; nothing here polls.
func (a *api) waitDone(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, a.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+a.token)
	resp, err := a.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var line struct {
			Type  string `json:"type"`
			Event *struct {
				State string `json:"state"`
				Note  string `json:"note"`
			} `json:"event"`
		}
		if err := dec.Decode(&line); err != nil {
			return fmt.Errorf("events of %s: %w", id, err)
		}
		if line.Event == nil {
			continue
		}
		switch line.Event.State {
		case "done":
			return nil
		case "failed", "canceled", "interrupted":
			return fmt.Errorf("job %s %s: %s", id, line.Event.State, line.Event.Note)
		}
	}
}

// waitWorkers waits until /healthz reports n live fleet workers.
func (a *api) waitWorkers(n int) error {
	if n == 0 {
		return nil
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, body, err := a.do(http.MethodGet, "/healthz", "", nil)
		var h struct {
			Workers int `json:"fleet_workers"`
		}
		if err == nil && json.Unmarshal(body, &h) == nil && h.Workers >= n {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("fleet workers did not register")
}

// stack is the drad service assembled in-process from the same public
// constructors cmd/drad uses, with each seam they expose wrapped so the
// traced run can time it: the server's http.Handler, the jobs.Runner
// map, the Quota and TenantWeight hooks, the fleet Backend, Planner and
// Merger, and the workers' HTTP transport and Execute func.
type stack struct {
	reg    *metrics.Registry
	st     *store.Store
	mg     *mgmt.Manager
	mgr    *jobs.Manager
	http   *http.Server
	cancel context.CancelFunc
	wg     sync.WaitGroup
	fc     fleetCounters
	engine map[string]float64 // engine counters summed over job runs; guarded by fc.mu
}

// fleetCounters are counted at the fleet seams.
type fleetCounters struct {
	mu           sync.Mutex
	polls        int
	claims       int
	retries      int
	completeSize []float64
	shards       []float64
	requeues     int
}

// bootStack builds and serves the in-process service; workers > 0
// makes it a coordinator with that many in-process fleet workers.
func bootStack(r *run, dir string, workers int) (*target, error) {
	rec := r.spans
	s := &stack{reg: metrics.NewRegistry(), engine: map[string]float64{}}
	stateDir := filepath.Join(dir, "stack")
	var err error
	if s.st, err = store.Open(filepath.Join(stateDir, "cache"), store.Options{Metrics: s.reg}); err != nil {
		return nil, err
	}
	hub, err := telemetry.New(telemetry.Options{Store: s.st, Metrics: s.reg})
	if err != nil {
		return nil, err
	}
	var mgr *jobs.Manager
	s.mg, err = mgmt.New(mgmt.Options{
		Dir:      stateDir,
		Defaults: mgmt.Config{MaxQueued: 128, ClassLimits: map[string]int{"chaos": 1, "scenario": 2}},
		Metrics:  s.reg,
		Apply:    func(cfg mgmt.Config) { mgr.ApplyLimits(cfg.MaxQueued, cfg.ClassLimits) },
	})
	if err != nil {
		return nil, err
	}
	quota := func(tn string, queued, running int) error {
		t := time.Now()
		err := s.mg.AdmitSubmit(tn, queued, running)
		rec.add("mgmt.admit", "", "", t, time.Now())
		return err
	}
	weight := func(tn string) int {
		t := time.Now()
		w := s.mg.TenantWeight(tn)
		rec.add("mgmt.tenant_weight", "", "", t, time.Now())
		return w
	}
	mgr, err = jobs.NewManager(jobs.Options{
		Store: s.st, Dir: stateDir, Runners: s.wrapRunners(rec, dra.DefaultRunners()),
		MaxQueued: 128, ClassLimits: map[string]int{"chaos": 1, "scenario": 2},
		Metrics: s.reg, Telemetry: hub, External: workers > 0,
		Quota: quota, TenantWeight: weight,
	})
	if err != nil {
		return nil, err
	}
	s.mgr = mgr
	s.mg.ApplyRunning()
	_, token, err := s.mg.Keys().Create(tenant, mgmt.RoleOperator)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	opt := server.Options{Manager: mgr, Metrics: s.reg, Telemetry: hub, StoreProbe: s.st.WriteProbe, Mgmt: s.mg}
	if workers > 0 {
		coord := fleet.New(fleet.Options{
			Backend: &tracedBackend{Manager: mgr, rec: rec, fc: &s.fc},
			Planner: func(spec config.Spec, n int) []fleet.ShardSpec {
				t := time.Now()
				plan := dra.FleetPlanner(spec, n)
				id, _ := spec.JobID()
				rec.add("fleet.plan", id, "", t, time.Now())
				s.fc.mu.Lock()
				s.fc.shards = append(s.fc.shards, float64(max(len(plan), 1)))
				s.fc.mu.Unlock()
				return plan
			},
			Merger:    tracedMerger(rec, dra.FleetMerger()),
			Metrics:   s.reg,
			Telemetry: hub,
		})
		s.wg.Add(1)
		go func() { defer s.wg.Done(); coord.Run(ctx) }()
		opt.Fleet = coord
	}
	srv, err := server.New(opt)
	if err != nil {
		cancel()
		return nil, err
	}
	handler := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		t := time.Now()
		srv.ServeHTTP(w, req)
		if id := req.Header.Get(reqHeader); id != "" {
			rec.add("server.handler", id, "client.request", t, time.Now())
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	s.http = &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	s.wg.Add(1)
	go func() { defer s.wg.Done(); s.http.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	for i := 0; i < workers; i++ {
		w, err := fleet.NewWorker(fleet.WorkerOptions{
			ID:          fmt.Sprintf("w%d", i),
			Coordinator: base,
			Execute:     tracedExecute(rec, dra.FleetExecutor(dra.DefaultRunners())),
			StateDir:    filepath.Join(dir, fmt.Sprintf("w%d", i)),
			Client:      &http.Client{Timeout: 30 * time.Second, Transport: &workerTransport{rt: http.DefaultTransport, rec: rec, fc: &s.fc}},
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.wg.Add(1)
		go func() { defer s.wg.Done(); w.Run(ctx) }()
	}
	t := &target{api: newAPI(base, token, r.nproc), stateDir: stateDir, stack: s}
	t.api.spans = rec
	if err := t.api.waitWorkers(workers); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// close drains the in-process service the way drad's SIGTERM path does
// and waits for its goroutines.
func (s *stack) close() error {
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.mgr.Drain(dctx)
	s.cancel()
	s.http.Shutdown(dctx)
	s.wg.Wait()
	return errors.Join(err, s.mg.Close())
}

// wrapRunners times every job run, counts the telemetry samples the
// runner publishes through its RunContext, and sums the engine counters
// of the job's own registry.
func (s *stack) wrapRunners(rec *recorder, in map[string]jobs.Runner) map[string]jobs.Runner {
	out := make(map[string]jobs.Runner, len(in))
	for kind, fn := range in {
		kind, fn := kind, fn
		out[kind] = func(ctx context.Context, rc jobs.RunContext, spec config.Spec) (json.RawMessage, error) {
			id, _ := spec.JobID()
			if pub := rc.Telemetry; pub != nil {
				rc.Telemetry = func(smp telemetry.Sample) {
					rec.add("telemetry.sample", id, "jobs.run."+kind, time.Now(), time.Now())
					pub(smp)
				}
			}
			t := time.Now()
			res, err := fn(ctx, rc, spec)
			rec.add("jobs.run."+kind, id, "", t, time.Now())
			if rc.Metrics != nil {
				c := scrape(rc.Metrics.PrometheusText())
				s.fc.mu.Lock()
				for _, k := range []string{"sim_events_fired_total", "montecarlo_cycles_total", "montecarlo_trials_total"} {
					s.engine[k] += c[k]
				}
				s.fc.mu.Unlock()
			}
			return res, err
		}
	}
	return out
}

// tracedBackend times the coordinator's calls into the scheduler.
type tracedBackend struct {
	*jobs.Manager
	rec *recorder
	fc  *fleetCounters
}

func (b *tracedBackend) ClaimExternal(worker string) (jobs.ExternalJob, bool) {
	t := time.Now()
	j, ok := b.Manager.ClaimExternal(worker)
	if ok {
		b.rec.add("fleet.backend_claim", j.ID, "", t, time.Now())
	}
	return j, ok
}

func (b *tracedBackend) CompleteExternal(id string, result json.RawMessage) error {
	t := time.Now()
	err := b.Manager.CompleteExternal(id, result)
	b.rec.add("fleet.backend_complete", id, "", t, time.Now())
	return err
}

func (b *tracedBackend) RequeueExternal(id, note string) error {
	b.fc.mu.Lock()
	b.fc.requeues++
	b.fc.mu.Unlock()
	return b.Manager.RequeueExternal(id, note)
}

func tracedMerger(rec *recorder, m fleet.Merger) fleet.Merger {
	return func(spec config.Spec, parts []json.RawMessage) (json.RawMessage, error) {
		t := time.Now()
		out, err := m(spec, parts)
		id, _ := spec.JobID()
		rec.add("fleet.merge", id, "", t, time.Now())
		return out, err
	}
}

func tracedExecute(rec *recorder, ex fleet.ExecuteFunc) fleet.ExecuteFunc {
	return func(ctx context.Context, req fleet.ExecuteRequest) (json.RawMessage, error) {
		t := time.Now()
		out, err := ex(ctx, req)
		rec.add("jobs.run."+req.Spec.Kind, req.Job, "", t, time.Now())
		return out, err
	}
}

// workerTransport sits under a fleet worker's HTTP client: it counts
// claim polls and the claims that carried work, records when each
// shard was claimed, sizes completions, and counts the responses the
// worker's retry layer will retry.
type workerTransport struct {
	rt  http.RoundTripper
	rec *recorder
	fc  *fleetCounters
}

func (w *workerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	if path == "/v1/fleet/complete" {
		w.fc.mu.Lock()
		w.fc.completeSize = append(w.fc.completeSize, float64(req.ContentLength))
		w.fc.mu.Unlock()
	}
	resp, err := w.rt.RoundTrip(req)
	retry := err != nil || resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500
	w.fc.mu.Lock()
	if retry {
		w.fc.retries++
	}
	if path == "/v1/fleet/claim" {
		w.fc.polls++
	}
	w.fc.mu.Unlock()
	if err != nil || path != "/v1/fleet/claim" || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var a fleet.Assignment
	if rerr == nil && json.Unmarshal(body, &a) == nil && a.Lease != "" {
		now := time.Now()
		w.rec.add("fleet.claim", a.Job, "", now, now)
		w.fc.mu.Lock()
		w.fc.claims++
		w.fc.mu.Unlock()
	}
	return resp, nil
}
