package main

import (
	"strings"
	"testing"
	"time"
)

func TestEveryPlanNamesListedMetricsAndGroups(t *testing.T) {
	b, err := parseBenchFile(repoBenchFile(t))
	if err != nil {
		t.Fatal(err)
	}
	for w := range workloads {
		p, ok := plans[w]
		if !ok {
			t.Errorf("workload %s has no layer plan", w)
			continue
		}
		for _, m := range p.measures {
			found := false
			for _, l := range b.PerLayer {
				found = found || hasPrefix(l.Name, []string{m})
			}
			if !found {
				t.Errorf("%s promises %q, which names no per-layer metric", w, m)
			}
		}
		for _, g := range p.flat {
			if _, ok := groups[g]; !ok {
				t.Errorf("%s predicts unknown group %q flat", w, g)
			}
		}
	}
}

// planRun is a traced serve-hit run that measured every promised metric.
func planRun(t *testing.T) (*run, benchFile) {
	b, err := parseBenchFile(repoBenchFile(t))
	if err != nil {
		t.Fatal(err)
	}
	r := &run{workload: "serve-hit", traced: true, metrics: map[string]float64{}, counters: map[string]float64{}, spans: &recorder{}}
	for _, m := range b.PerLayer {
		if hasPrefix(m.Name, plans["serve-hit"].measures) {
			r.set(m.Name, 1)
		}
	}
	return r, b
}

func TestCheckPlanFillsOnlyAfterChecking(t *testing.T) {
	r, b := planRun(t)
	r.checkPlan(b)
	if r.failed != 0 {
		t.Fatalf("clean run failed: %v", r.problems)
	}
	if v, ok := r.metrics["router.fault_events"]; !ok || v != 0 {
		t.Errorf("flat metric router.fault_events = %v, %v; want 0, reported", v, ok)
	}
	if r.metrics["store.get_us"] != 1 {
		t.Errorf("a measured metric was overwritten")
	}
}

func TestCheckPlanFailsAContradictedFlatPrediction(t *testing.T) {
	r, b := planRun(t)
	r.counters["sim_events_fired_total"] = 12
	r.checkPlan(b)
	if r.failed != 1 || !strings.Contains(r.problems[0], "engine") {
		t.Errorf("engine work on serve-hit: failed %d, problems %v", r.failed, r.problems)
	}

	r, b = planRun(t)
	now := time.Now()
	r.measured = now
	r.spans.add("jobs.run.reliability", "x", "", now.Add(-time.Second), now) // warm-up, before the phase
	r.checkPlan(b)
	if r.failed != 0 {
		t.Errorf("a span before the measured phase counted: %v", r.problems)
	}
	r, b = planRun(t)
	r.spans.add("jobs.run.reliability", "x", "", now, now)
	r.checkPlan(b)
	if r.failed == 0 {
		t.Errorf("a job run in the measured phase of serve-hit passed")
	}
}

func TestCheckPlanFailsAnUnmeasuredPromise(t *testing.T) {
	r, b := planRun(t)
	delete(r.metrics, "server.self_us")
	r.checkPlan(b)
	if r.failed != 1 || !strings.Contains(r.problems[0], "server.self_us") {
		t.Errorf("missing server.self_us: failed %d, problems %v", r.failed, r.problems)
	}
}
