package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/mgmt"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// TestTelemetryIngestQueryFleet: the POST→query→fleet round trip over
// HTTP, including pagination, the since cursor, and error mapping.
func TestTelemetryIngestQueryFleet(t *testing.T) {
	ts, _ := testServer(t, jobs.Options{Runners: map[string]jobs.Runner{config.KindReliability: instantRunner(nil)}})

	// Array form.
	resp, body := post(t, ts.URL+"/v1/telemetry",
		`[{"job":"aaaa1111","window":1,"availability":0.999,"trials":100},
		  {"job":"aaaa1111","window":2,"availability":0.998,"trials":200},
		  {"job":"bbbb2222","window":5,"availability":0.99,"violations_total":3,"trials":50}]`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	var ack struct{ Ingested, Rejected int }
	json.Unmarshal(body, &ack)
	if ack.Ingested != 3 || ack.Rejected != 0 {
		t.Fatalf("ack %+v", ack)
	}

	// NDJSON form; the stale window (2) and the empty job are rejected,
	// the fresh window lands.
	resp, body = post(t, ts.URL+"/v1/telemetry",
		"{\"job\":\"aaaa1111\",\"window\":2}\n{\"job\":\"\",\"window\":9}\n{\"job\":\"aaaa1111\",\"window\":3,\"availability\":0.997,\"trials\":300}\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ndjson ingest: %d %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &ack)
	if ack.Ingested != 1 || ack.Rejected != 2 {
		t.Fatalf("ndjson ack %+v", ack)
	}

	// Per-job query with a since cursor.
	resp, body = get(t, ts.URL+"/v1/telemetry/aaaa1111?since=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	var qr telemetry.QueryResult
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Samples) != 2 || qr.Samples[0].Window != 2 || qr.Samples[1].Window != 3 {
		t.Fatalf("since=1 page: %+v", qr.Samples)
	}
	if qr.LastWindow != 3 {
		t.Fatalf("last window %d", qr.LastWindow)
	}

	// Pagination: limit=1 returns the first matching window.
	_, body = get(t, ts.URL+"/v1/telemetry/aaaa1111?limit=1")
	json.Unmarshal(body, &qr)
	if len(qr.Samples) != 1 || qr.Samples[0].Window != 1 {
		t.Fatalf("limit=1 page: %+v", qr.Samples)
	}

	// Fleet aggregate sees both jobs.
	_, body = get(t, ts.URL+"/v1/telemetry")
	var fs telemetry.FleetSummary
	if err := json.Unmarshal(body, &fs); err != nil {
		t.Fatal(err)
	}
	if len(fs.Jobs) != 2 || fs.Ingested != 4 {
		t.Fatalf("fleet %+v", fs)
	}

	// Error mapping.
	resp, _ = get(t, ts.URL+"/v1/telemetry/nosuchjob")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown series: %d, want 404", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/v1/telemetry/aaaa1111?since=bogus")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since: %d, want 400", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/v1/telemetry/aaaa1111?limit=-2")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit: %d, want 400", resp.StatusCode)
	}
	resp, body = post(t, ts.URL+"/v1/telemetry", `[{"job":`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated array: %d %s", resp.StatusCode, body)
	}

	// Interleaved series over several POSTs: each chunk carries every
	// series, windows advance per series from chunk to chunk, nothing is
	// rejected, and each series reads back whole and in order.
	const series, chunks, perChunk = 4, 4, 25 // windows per series per chunk
	for c := 0; c < chunks; c++ {
		var batch []telemetry.Sample
		for w := 1; w <= perChunk; w++ {
			for s := 0; s < series; s++ {
				win := uint64(c*perChunk + w)
				batch = append(batch, telemetry.Sample{Job: fmt.Sprintf("series%d", s), Window: win,
					Availability: 1 - 1/float64(win+1), Trials: win * 100})
			}
		}
		data, _ := json.Marshal(batch)
		resp, body = post(t, ts.URL+"/v1/telemetry", string(data))
		json.Unmarshal(body, &ack)
		if resp.StatusCode != http.StatusOK || ack.Ingested != len(batch) || ack.Rejected != 0 {
			t.Fatalf("chunk %d: %d %+v %s", c, resp.StatusCode, ack, body)
		}
	}
	for s := 0; s < series; s++ {
		resp, body = get(t, fmt.Sprintf("%s/v1/telemetry/series%d", ts.URL, s))
		qr = telemetry.QueryResult{}
		if err := json.Unmarshal(body, &qr); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("series%d read: %d %v %s", s, resp.StatusCode, err, body)
		}
		if len(qr.Samples) != chunks*perChunk {
			t.Fatalf("series%d read back %d windows, want %d", s, len(qr.Samples), chunks*perChunk)
		}
		for i, sm := range qr.Samples {
			if sm.Window != uint64(i+1) {
				t.Fatalf("series%d window %d at position %d", s, sm.Window, i)
			}
		}
	}
}

// TestTelemetryTailConcurrentCompletion: the fleet tail multiplexes
// samples from several jobs finishing concurrently and closes each job
// out with a synthesized "done" line — even though terminal delivery
// through the subscription is best-effort. This extends the per-job
// dropped-terminal-event regression to the fleet-wide stream; run
// under -race it also exercises ingest/subscribe/complete interleaving.
func TestTelemetryTailConcurrentCompletion(t *testing.T) {
	const jobsN = 3
	start := make(chan struct{})
	runner := func(ctx context.Context, rc jobs.RunContext, spec config.Spec) (json.RawMessage, error) {
		<-start
		for wnd := uint64(1); wnd <= 8; wnd++ {
			rc.Telemetry(telemetry.Sample{Window: wnd, Availability: 0.999, Trials: wnd * 10})
		}
		return json.RawMessage(`{"ok": true}`), nil
	}
	ts, _ := testServer(t, jobs.Options{Runners: map[string]jobs.Runner{config.KindReliability: runner}})

	ids := make(map[string]bool)
	for i := 0; i < jobsN; i++ {
		_, body := post(t, ts.URL+"/v1/jobs", specBody(uint64(100+i)))
		var snap jobs.Snapshot
		json.Unmarshal(body, &snap)
		ids[snap.ID] = true
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/telemetry/tail", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	close(start)

	samples := make(map[string]int)
	done := make(map[string]bool)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for len(done) < jobsN && sc.Scan() {
		var line tailLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch line.Type {
		case "sample":
			samples[line.Sample.Job]++
		case "done":
			if !ids[line.Job] {
				t.Fatalf("done for unknown job %q", line.Job)
			}
			if done[line.Job] {
				t.Fatalf("duplicate done for %q", line.Job)
			}
			done[line.Job] = true
		}
	}
	if len(done) != jobsN {
		t.Fatalf("tail closed out %d/%d jobs (scan err %v)", len(done), jobsN, sc.Err())
	}
	for id := range ids {
		if samples[id] == 0 {
			t.Errorf("no samples tailed for %s", id)
		}
	}
}

// TestTelemetryTailSubscriberOverflow: a tail whose subscriber buffer
// overflows keeps the producers unblocked, loses samples, and reports
// the loss with a "dropped" line instead of stalling or dying.
func TestTelemetryTailSubscriberOverflow(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hub, err := telemetry.New(telemetry.Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := jobs.NewManager(jobs.Options{
		Store:     st,
		Telemetry: hub,
		Runners:   map[string]jobs.Runner{config.KindReliability: instantRunner(nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{
		Manager: mgr, SampleInterval: 10 * time.Millisecond,
		Telemetry: hub, TailBuffer: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/telemetry/tail", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Flood from several producers: with a 1-slot subscriber buffer the
	// handler cannot keep up and must shed.
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			job := fmt.Sprintf("f100d%03d", p)
			for wnd := uint64(1); wnd <= 500; wnd++ {
				hub.Ingest(telemetry.Sample{Job: job, Window: wnd})
			}
		}(p)
	}
	wg.Wait()

	sawDrop := false
	sawSample := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line tailLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch line.Type {
		case "sample":
			sawSample = true
		case "dropped":
			if line.Dropped == 0 {
				t.Fatal("dropped line with zero count")
			}
			sawDrop = true
		}
		if sawDrop && sawSample {
			break
		}
	}
	if !sawSample || !sawDrop {
		t.Fatalf("sawSample=%v sawDrop=%v (scan err %v)", sawSample, sawDrop, sc.Err())
	}
}

// TestServiceMetricNamesLint pins every family the service registry
// accumulates — store, job manager, telemetry hub — to the Prometheus
// naming conventions LintNames enforces.
func TestServiceMetricNamesLint(t *testing.T) {
	reg := metrics.NewRegistry()
	st, err := store.Open(t.TempDir(), store.Options{Metrics: reg, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	hub, err := telemetry.New(telemetry.Options{Store: st, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := jobs.NewManager(jobs.Options{
		Store: st, Metrics: reg, Telemetry: hub, Dir: t.TempDir(),
		Runners: map[string]jobs.Runner{config.KindReliability: instantRunner(nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The fleet coordinator registers its families (fleet_workers_live,
	// fleet_leases_active, fleet_*_total) on the same registry.
	fleet.New(fleet.Options{Backend: mgr, Metrics: reg})
	// The management plane registers the mgmt_tenant_*, mgmt_audit_*,
	// mgmt_auth_*, and mgmt_config_* families; exercise the vec paths so
	// labeled children materialize too.
	mg, err := mgmt.New(mgmt.Options{Dir: t.TempDir(), AllowAnonymous: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()
	if err := mg.Conf().Set("tenants.linted.quota.max_queued", "1"); err != nil {
		t.Fatal(err)
	}
	if _, err := mg.Commit(mgmt.Identity{Role: mgmt.RoleAdmin}); err != nil {
		t.Fatal(err)
	}
	if err := mg.AdmitSubmit("linted", 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := mg.AdmitSubmit("linted", 1, 0); err == nil {
		t.Fatal("expected a quota rejection to materialize the rejection counter")
	}
	mg.Resolve("drak_bogus")
	// Both write probes publish their writability gauges.
	if err := mgr.WriteProbe(); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteProbe(); err != nil {
		t.Fatal(err)
	}
	if problems := reg.LintNames(); len(problems) != 0 {
		t.Fatalf("metric naming violations:\n%s", strings.Join(problems, "\n"))
	}
}
